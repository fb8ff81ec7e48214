import itertools
import json
import random
from math import prod
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
    _count_excludes,
    _dfs,
    enumerate_placements,
    exact_cover_search,
)
from pdds.verifier import PDDSInstance, instantiate_on_torus, verify_pdds


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem((0, 5), 1, BoxSpec((1, 1)))
    with pytest.raises(ValueError):
        SearchProblem((5, 5), -1, BoxSpec((1, 1)))
    with pytest.raises(ValueError, match="box spec h has 3 axes, torus has 2"):
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


@pytest.mark.parametrize("cap", [0, -3, True, 2.5, "4096"])
def test_cell_cap_must_be_a_positive_int(cap):
    # -3 used to be reported as "torus volume 25 exceeds the cell cap -3"
    with pytest.raises(ValueError, match="max_cells must be a positive integer"):
        exact_cover_search(SearchProblem((5, 5), 1, BoxSpec((1, 1))),
                           max_cells=cap)


@pytest.mark.parametrize("torus, t, extents, outcome, nodes", [
    ((6, 6, 6), 1, (2, 1, 1), "exhausted", 206_857),
    ((26, 26), 2, (1, 1), "found", 4_144),
    ((12, 12, 12), 1, (2, 2, 2), "found", 1_925),
])
def test_heaviest_benchmark_searches_keep_their_trees(torus, t, extents,
                                                      outcome, nodes):
    # the largest trees of the benchmark's pinned search problems
    result = exact_cover_search(SearchProblem(torus, t, BoxSpec(extents)))
    assert (result.outcome, result.nodes_explored) == (outcome, nodes)
    assert result.stats["decided_by"] == "search"
    if outcome == "found":
        assert verify_pdds(result.instance).passed


def test_stats_say_what_decided_and_where_the_time_went():
    shortcut = exact_cover_search(SearchProblem((7, 7), 1, BoxSpec((3, 3))))
    assert shortcut.stats == {"decided_by": "divisibility", "placements": 0,
                              "placements_ms": 0.0, "dfs_ms": 0.0}
    problem = SearchProblem((5, 3), 1, BoxSpec((1, 1)))
    searched = exact_cover_search(problem)
    assert searched.stats["decided_by"] == "search"
    assert searched.stats["placements"] == len(enumerate_placements(problem))
    assert searched.stats["placements_ms"] >= 0 and searched.stats["dfs_ms"] >= 0
    assert searched.to_json()["stats"] == searched.stats


class _OverBudget(Exception):
    pass


def _least_cell_reference(placements, volume, budget):
    """Least-cell backtracker that tests placements against the cover.

    The oracle for the bitset ``_dfs``: at the lowest uncovered cell it
    scans every placement that covers the cell, in index order, and tries
    those whose cells miss the cover.  Returns (solution or None, nodes)
    like ``_dfs``; raises _OverBudget after ``budget`` nodes.
    """
    masks = [sum(1 << c for c in pl.cells) for pl in placements]
    by_vertex = [[] for _ in range(volume)]
    for idx, pl in enumerate(placements):
        for c in pl.cells:
            by_vertex[c].append(idx)
    full = (1 << volume) - 1
    nodes = 0
    path = []
    covers = [0]
    stack = [[by_vertex[0], 0]]
    while stack:
        frame = stack[-1]
        candidates, idx = frame
        placed = False
        while idx < len(candidates):
            p = candidates[idx]
            idx += 1
            if masks[p] & covers[-1]:
                continue
            frame[1] = idx
            nodes += 1
            if nodes > budget:
                raise _OverBudget
            path.append(p)
            nxt = covers[-1] | masks[p]
            if nxt == full:
                return path, nodes
            covers.append(nxt)
            uncovered = ~nxt & full
            v = (uncovered & -uncovered).bit_length() - 1
            stack.append([by_vertex[v], 0])
            placed = True
            break
        if not placed:
            stack.pop()
            if stack:
                path.pop()
                covers.pop()
    return None, nodes


def _sweep_problems(seed, count):
    """Seeded 1-3-D problems on tori of at most 216 cells, both modes."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        top = {1: 30, 2: 12, 3: 6}[n]
        yield SearchProblem(tuple(rng.randint(1, top) for _ in range(n)),
                            rng.randint(0, 2),
                            BoxSpec(tuple(rng.randint(1, 3) for _ in range(n))),
                            rng.choice(("all_axis_permutations", "fixed")))


# Orientations whose neighborhoods wrap into themselves (extent + 2t above
# the axis): two covers and two exhaustions of a few hundred nodes.
_WRAPPING = (
    SearchProblem((4,), 2, BoxSpec((2,))),
    SearchProblem((2, 2, 2), 1, BoxSpec((1, 1, 1))),
    SearchProblem((2, 5, 5), 1, BoxSpec((2, 1, 1))),
    SearchProblem((5, 5, 2), 1, BoxSpec((1, 1, 2))),
)


def test_bitset_dfs_matches_least_cell_reference():
    compared = found = wrapping = 0
    for problem in itertools.chain(_WRAPPING, _sweep_problems(80801, 300)):
        placements = enumerate_placements(problem)
        try:
            # a few seeded t = 0 tilings run to millions of nodes
            want = _least_cell_reference(placements, problem.volume, 20_000)
        except _OverBudget:
            continue
        assert _dfs(placements, problem.volume) == want, problem
        compared += 1
        found += want[0] is not None
        wrapping += any(e + 2 * problem.t > d
                        for exts in _allowed_orientations(problem)
                        for e, d in zip(exts, problem.torus))
    assert compared >= 280 and found >= 40 and wrapping >= 20


def test_count_per_slice_at_radius_zero():
    # Every allowed 1x1x3 box on (5, 5, 3) lies along axis 0 or 1, so it
    # stays in one 25-cell layer across axis 2, and 3 does not divide 25.
    # The whole-volume count (75) passes, and the search used to take
    # 93,850,240 nodes (76 s) to prove it; on (4, 5, 3), 81.4 M nodes.
    for torus in ((5, 5, 3), (4, 5, 3)):
        result = exact_cover_search(SearchProblem(torus, 0, BoxSpec((1, 1, 3))))
        assert (result.outcome, result.nodes_explored) == ("exhausted", 0)
        assert result.stats["decided_by"] == "divisibility"
    # at t >= 1 a neighborhood crosses layers, so only the volume counts:
    # 8 divides 4 * 6 but not the 4 cells of a layer across axis 1
    across = SearchProblem((4, 6), 1, BoxSpec((2, 1)), "fixed")
    assert exact_cover_search(across).stats["decided_by"] == "search"


def test_huge_radius_is_sized_on_the_torus():
    # |H*| used to be counted on the grid first: t = 1000 took 20 s on
    # (5, 5), and t = 10**6 did not return
    result = exact_cover_search(SearchProblem((5, 5), 10 ** 6, BoxSpec((1, 1))))
    assert (result.outcome, result.nodes_explored) == ("found", 1)
    assert verify_pdds(result.instance).passed
    # on (7, 3) the 1x3 box would close axis 1 into a ring; 3x1 is used
    wide = exact_cover_search(SearchProblem((7, 3), 10 ** 6, BoxSpec((1, 3))))
    assert wide.outcome == "found"
    assert wide.instance.components == [box_shape(BoxSpec((3, 1)))]


def test_no_allowed_orientation_runs_the_empty_search():
    # a domino on a 3-ring has two nearest vertices opposite it: no
    # placement, so the search over none of them decides, with no node
    result = exact_cover_search(SearchProblem((3,), 1, BoxSpec((2,))))
    assert (result.outcome, result.nodes_explored) == ("exhausted", 0)
    assert result.stats["decided_by"] == "search"
    assert result.stats["placements"] == 0


def test_radius_zero_counts_agree_with_the_reference():
    # wherever the (per-slice) count decides a t = 0 problem, the
    # reference backtracker finds no cover either
    rng = random.Random(70707)
    decided = checked = sliced = 0
    for _ in range(600):
        n = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 6) for _ in range(n))
        problem = SearchProblem(dims, 0,
                                BoxSpec(tuple(rng.randint(1, 3) for _ in range(n))),
                                rng.choice(("all_axis_permutations", "fixed")))
        if not _count_excludes(problem, _allowed_orientations(problem)):
            continue
        decided += 1
        try:
            want = _least_cell_reference(enumerate_placements(problem),
                                         problem.volume, 20_000)
        except _OverBudget:
            continue
        assert want[0] is None, problem
        checked += 1
        # the whole volume would have passed: only a slice's count decides
        sliced += problem.volume % prod(problem.h_spec.extents) == 0
    assert decided >= 120 and checked >= 110 and sliced >= 15


def test_search_result_json_shape():
    found = exact_cover_search(SearchProblem((5, 5), 1, BoxSpec((1, 1))))
    blob = found.to_json()
    assert blob["outcome"] == "found"
    assert blob["nodes_explored"] == 5
    assert isinstance(blob["wall_time_ms"], int)
    assert blob["stats"]["decided_by"] == "search"
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
    blob = json.loads(json.dumps(result.to_json(), indent=2))
    assert blob == result.to_json()
    assert (blob["outcome"], blob["nodes_explored"], blob["wall_time_ms"]) == (
        result.outcome, result.nodes_explored, result.wall_time_ms)
    if result.instance is None:
        assert blob["instance"] is None
    else:
        assert PDDSInstance.from_json(blob["instance"]) == result.instance


def test_allowed_orientations_are_the_boxes_on_the_torus():
    # lattice.is_box keeps an extent below its axis, or 1 on an axis of
    # length 1; at t = 0 no neighbourhood drops an orientation
    for n in (1, 2, 3):
        for dims in itertools.product(range(1, 5), repeat=n):
            for extents in itertools.product(range(1, 6), repeat=n):
                problem = SearchProblem(dims, 0, BoxSpec(extents))
                want = {exts for exts in itertools.permutations(extents)
                        if all(e < d or e == d == 1 for e, d in zip(exts, dims))}
                assert set(_allowed_orientations(problem)) == want, problem
    # a box larger than the torus is dropped without being built
    assert _allowed_orientations(SearchProblem((3, 3), 1, BoxSpec((10**9, 1)))) == {}
