import itertools
import json
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from pdds.constructions import pdds1_square, plc_n1
from pdds.lattice import (BoxSpec, box_shape, strides, t_neighborhood,
                          translate, unflatten)
from pdds.search import (
    DEFAULT_MAX_CELLS,
    Placement,
    SearchProblem,
    _allowed_orientations,
    enumerate_placements,
    exact_cover_search,
)
from pdds.verifier import PDDSInstance, instantiate_on_torus, verify_pdds


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem((0, 5), 1, BoxSpec((1, 1)))
    with pytest.raises(ValueError):
        SearchProblem((5, 5), -1, BoxSpec((1, 1)))
    with pytest.raises(ValueError):
        SearchProblem((5, 5), 1, BoxSpec((1, 1, 1)))
    with pytest.raises(ValueError):
        SearchProblem((5, 5), 1, BoxSpec((1, 1)), "sideways")


@pytest.mark.parametrize("t", [1.5, True, None])
def test_problem_rejects_non_integer_radius(t):
    # 1.5 used to fail later inside the search, True to run the whole
    # search, and None to raise TypeError
    with pytest.raises(ValueError, match="nonnegative integer"):
        SearchProblem((5, 5), t, BoxSpec((1, 1)))


@pytest.mark.parametrize("torus", [(5.5, 5), (5, 5.0), (True, 5), ("5", 5)])
def test_problem_rejects_non_integer_torus(torus):
    # (5.5, 5) used to be truncated and searched as (5, 5)
    with pytest.raises(ValueError, match="positive integers"):
        SearchProblem(torus, 1, BoxSpec((1, 1)))


def test_placement_counts():
    assert len(enumerate_placements(
        SearchProblem((5, 5), 1, BoxSpec((1, 1))))) == 25
    assert len(enumerate_placements(
        SearchProblem((8, 8), 1, BoxSpec((3, 3))))) == 64
    assert len(enumerate_placements(
        SearchProblem((6, 6), 1, BoxSpec((2, 3))))) == 72
    assert len(enumerate_placements(
        SearchProblem((6, 6), 1, BoxSpec((2, 3)), "fixed"))) == 36


def test_placements_are_canonical_and_deduplicated():
    problem = SearchProblem((4, 4), 0, BoxSpec((2, 1)))
    placements = enumerate_placements(problem)
    assert placements == sorted(placements,
                                key=lambda p: (p.cells, p.component))
    assert len({(p.cells, p.component)
                for p in placements}) == len(placements)
    # dominoes in two orientations, anywhere: 2 * 16
    assert len(placements) == 32
    assert all(isinstance(p, Placement) for p in placements)


def test_orientation_that_wraps_axis_is_dropped():
    # a 3-extent along a 3-axis would close into a ring; only the other
    # orientation remains
    problem = SearchProblem((7, 3), 1, BoxSpec((1, 3)))
    placements = enumerate_placements(problem)
    assert {tuple(unflatten(c, problem.torus) for c in p.component)
            for p in placements} == {
        tuple(sorted(((a + i) % 7, b) for i in range(3)))
        for a in range(7) for b in range(3)
    } and len(placements) == 21


def test_lee_code_found_on_5x5():
    result = exact_cover_search(SearchProblem((5, 5), 1, BoxSpec((1, 1))))
    assert result.outcome == "found"
    assert result.instance is not None
    assert verify_pdds(result.instance).passed
    assert len(result.instance.components) == 5
    assert result.nodes_explored == 5
    assert result.wall_time_ms >= 0


def test_divisibility_shortcut_and_its_gate():
    # 21-cell neighborhoods cannot tile 49 vertices: immediate exhaustion
    quick = exact_cover_search(SearchProblem((7, 7), 1, BoxSpec((3, 3))))
    assert quick.outcome == "exhausted" and quick.nodes_explored == 0
    # but when a neighborhood wraps into itself the counting bound is void:
    # on a 4-ring, one radius-2 domino neighborhood covers everything
    ring = exact_cover_search(SearchProblem((4,), 2, BoxSpec((2,))))
    assert ring.outcome == "found"
    assert ring.nodes_explored >= 1
    # same box where nothing wraps: the bound applies again
    line = exact_cover_search(SearchProblem((7,), 2, BoxSpec((2,))))
    assert line.outcome == "exhausted" and line.nodes_explored == 0


def test_orientation_with_two_nearest_vertices_is_dropped():
    # on a 3-ring the vertex opposite a domino is 1 from both its ends, so
    # no 1-PDDS of dominoes exists; this used to raise RuntimeError after
    # the exact cover "found" one
    ring = SearchProblem((3,), 1, BoxSpec((2,)))
    assert enumerate_placements(ring) == []
    assert exact_cover_search(ring).outcome == "exhausted"
    # on (3, 5) only the orientation along the 5-axis survives
    wide = SearchProblem((3, 5), 1, BoxSpec((2, 1)))
    placements = enumerate_placements(wide)
    assert len(placements) == 15
    assert all(u[0] == v[0] for u, v in
               ((unflatten(c, wide.torus) for c in p.component)
                for p in placements))


def _flat(shape, dims):
    return tuple(sorted(sum(map(mul, v, strides(dims))) for v in shape))


def test_placements_match_per_anchor_neighborhoods():
    # the shifted neighborhoods equal the ones built anchor by anchor, as
    # sorted flat tuples in the same canonical order
    problems = 0
    for n in (1, 2):
        for dims in itertools.product(range(1, 7), repeat=n):
            for t in range(3):
                for extents in itertools.product(range(1, 4), repeat=n):
                    problem = SearchProblem(dims, t, BoxSpec(extents))
                    want = set()
                    for exts in _allowed_orientations(problem):
                        base = box_shape(BoxSpec(exts))
                        for anchor in itertools.product(*(range(d) for d in dims)):
                            comp = translate(base, anchor, dims)
                            cells = t_neighborhood(comp, t, dims)
                            want.add((_flat(cells, dims), _flat(comp, dims)))
                    assert enumerate_placements(problem) == sorted(want), problem
                    problems += 1
    assert problems == 1026


def test_exhaustion_with_real_branching():
    # volume divisible by ball size, yet no perfect code exists on (5,3)
    result = exact_cover_search(SearchProblem((5, 3), 1, BoxSpec((1, 1))))
    assert result.outcome == "exhausted"
    assert result.nodes_explored == 10


def test_domino_tiling_found_at_radius_zero():
    result = exact_cover_search(SearchProblem((4, 4), 0, BoxSpec((2, 1))))
    assert result.outcome == "found"
    assert result.instance is not None
    assert verify_pdds(result.instance).passed
    assert len(result.instance.components) == 8


def test_deep_cover_of_singletons():
    result = exact_cover_search(SearchProblem((8, 8), 0, BoxSpec((1, 1))))
    assert result.outcome == "found"
    assert result.nodes_explored == 64


def test_found_instances_verify_under_fuzzing():
    rng = random.Random(60901)
    for _ in range(40):
        n = rng.randint(1, 2)
        dims = tuple(rng.randint(2, 6) for _ in range(n))
        t = rng.randint(0, 2)
        extents = tuple(rng.randint(1, 2) for _ in range(n))
        problem = SearchProblem(dims, t, BoxSpec(extents))
        result = exact_cover_search(problem)
        if result.outcome == "found":
            assert verify_pdds(result.instance).passed
        else:
            assert result.instance is None


def test_catalog_codes_rediscovered_on_their_tori():
    # small-period catalog instances must be findable by blind search
    for c, orientations in ((plc_n1(2), "fixed"),
                            (pdds1_square(0), "fixed")):
        inst = instantiate_on_torus(c)
        problem = SearchProblem(inst.torus, c.t, c.h_spec, orientations)
        result = exact_cover_search(problem)
        assert result.outcome == "found", (c.h_spec, inst.torus)
        assert verify_pdds(result.instance).passed


def test_volume_cap_and_override():
    with pytest.raises(ValueError):
        exact_cover_search(SearchProblem((70, 70), 1, BoxSpec((1, 1))))
    assert DEFAULT_MAX_CELLS == 4096
    result = exact_cover_search(SearchProblem((5, 5), 1, BoxSpec((1, 1))),
                                max_cells=25)
    assert result.outcome == "found"


def test_search_result_json_shape():
    found = exact_cover_search(SearchProblem((5, 5), 1, BoxSpec((1, 1))))
    blob = found.to_json()
    assert blob["outcome"] == "found"
    assert blob["nodes_explored"] == 5
    assert isinstance(blob["wall_time_ms"], int)
    assert blob["instance"]["torus"] == [5, 5]
    empty = exact_cover_search(SearchProblem((7, 7), 1, BoxSpec((3, 3))))
    assert empty.to_json()["instance"] is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_result_json_round_trip(data):
    n = data.draw(st.integers(1, 2))
    dims = tuple(data.draw(st.integers(1, 6)) for _ in range(n))
    extents = tuple(data.draw(st.integers(1, 2)) for _ in range(n))
    result = exact_cover_search(
        SearchProblem(dims, data.draw(st.integers(0, 2)), BoxSpec(extents)))
    blob = json.loads(result.dumps())
    assert blob == result.to_json()
    assert (blob["outcome"], blob["nodes_explored"], blob["wall_time_ms"]) == (
        result.outcome, result.nodes_explored, result.wall_time_ms)
    if result.instance is None:
        assert blob["instance"] is None
    else:
        assert PDDSInstance.from_json(blob["instance"]) == result.instance
