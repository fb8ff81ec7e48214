import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pdds import cli
from pdds.abelian import (AbelianGroup, Homomorphism, check_bijection,
                          syndrome_columns, syndrome_rank, torus_periods)
from pdds.constructions import (
    FAMILIES,
    Construction,
    Tile,
    minkowski_p2,
    nonlattice_p2_example,
    pdds1_path,
    pdds1_q3,
    pdds1_square,
    pdds_t_box2xk_2d,
    pdds_t_path_2d,
    plc_n1,
)
from pdds.lattice import (BoxSpec, Shape, _offset_ball, ball_size, box_shape, is_box,
                          translate)
from pdds.verifier import instantiate_on_torus, verify_pdds
from group_oracle import phi_eval
from lattice_oracle import lattice_like_by_shift_search
from test_acceptance import (CATALOG, VERIFY_CAP, corrupt_tile, period_volume,
                             tile_is_pdds_on_zn)


def test_family_registry_is_complete():
    assert sorted(FAMILIES) == [
        "box2xk", "minkowski", "nonlattice", "path",
        "path2d", "plc1", "q3", "square",
    ]


def test_plc_n1_basics():
    c = plc_n1(2)
    assert c.t == 1
    assert c.hom.group.moduli == (5,)
    assert c.hom.generators == ((1,), (2,))
    assert len(c.tile.shape) == 5
    assert c.lattice_like
    # explicit group override of the right order
    c2 = plc_n1(4, AbelianGroup((3, 3)))
    assert c2.hom.group.moduli == (3, 3)
    assert len(c2.tile.shape) == 9
    with pytest.raises(ValueError):
        plc_n1(4, AbelianGroup((8,)))
    with pytest.raises(ValueError):
        plc_n1(0)
    # the 1-dimensional code exists too: balls of three tile the line
    assert plc_n1(1).hom.group.moduli == (3,)


def test_path_family_pin():
    c = pdds1_path(2, 3)
    assert c.hom.group.moduli == (11,)
    assert c.hom.generators == ((1,), (4,))
    assert c.h_spec == BoxSpec((3, 1))
    assert c.t == 1


def test_path2d_two_copy_pin():
    c = pdds_t_path_2d(2, 3, "two_copy")
    assert c.hom.group.moduli == (46,)
    assert c.hom.generators == ((9,), (1,))
    assert c.lattice_like
    comps = list(c.tile.components_by_id().values())
    assert len(comps) == 2
    # the second copy sits at offset (t, t+k) from the first
    assert comps[1].vertices[0] == tuple(
        a + b for a, b in zip(comps[0].vertices[0], (2, 5)))


def test_path2d_single_copy_resolved_generators():
    for t in range(1, 5):
        for k in range(1, 5):
            c = pdds_t_path_2d(t, k, "single_copy")
            assert c.hom.group.moduli == (2 * t * t + 2 * t * k + k,)
            assert c.hom.generators == ((1,), (2 * t + 1,)), (t, k)
            assert c.lattice_like
            assert len(c.tile.components_by_id()) == 1


def test_box2xk_two_copy_pin():
    c = pdds_t_box2xk_2d(2, 1, "two_copy")
    assert c.hom.group.moduli == (6, 6)
    assert c.hom.generators == ((0, 1), (1, 0))
    assert c.lattice_like
    assert len(c.tile.components_by_id()) == 2


def test_box2xk_single_copy_resolved_generators():
    # Frozen resolution table: group moduli and generator images per (t, k).
    expected = {
        (1, 1): ((2, 4), ((1, 1), (0, 1))),
        (1, 2): ((12,), ((2,), (3,))),
        (1, 3): ((2, 8), ((1, 2), (0, 1))),
        (1, 4): ((20,), ((5,), (2,))),
        (2, 1): ((3, 6), ((1, 1), (0, 1))),
        (2, 2): ((24,), ((3,), (4,))),
        (2, 3): ((30,), ((5,), (3,))),
        (2, 4): ((3, 12), ((1, 2), (0, 1))),
        (3, 1): ((4, 8), ((1, 1), (0, 1))),
        (3, 2): ((40,), ((4,), (5,))),
        (3, 3): ((2, 24), ((1, 3), (1, 2))),
        (3, 4): ((56,), ((7,), (4,))),
        (4, 1): ((5, 10), ((1, 1), (0, 1))),
        (4, 2): ((60,), ((5,), (6,))),
        (4, 3): ((70,), ((7,), (5,))),
        (4, 4): ((80,), ((8,), (5,))),
    }
    for (t, k), (moduli, gens) in expected.items():
        c = pdds_t_box2xk_2d(t, k, "single_copy")
        assert c.hom.group.moduli == moduli, (t, k)
        assert c.hom.generators == gens, (t, k)
        assert c.hom.group.order == 2 * (t + 1) * (t + k)
        assert c.lattice_like


def test_box2xk_spec_case_examples():
    c22 = pdds_t_box2xk_2d(2, 2, "single_copy")
    assert c22.hom.group.moduli == (24,)
    assert c22.hom.generators == ((3,), (4,))
    c24 = pdds_t_box2xk_2d(2, 4, "single_copy")
    assert c24.hom.group.moduli == (3, 12)


def test_square_family():
    c0 = pdds1_square(0)
    assert c0.hom.group.moduli == (12,)
    assert c0.hom.generators == ((2,), (3,))
    assert c0.h_spec == BoxSpec((2, 2))
    c1 = pdds1_square(1)
    assert c1.hom.group.moduli == (36,)
    assert c1.hom.generators == ((6,), (9,), (7,), (5,), (17,))
    assert len(c1.tile.shape) == 36
    c2 = pdds1_square(2)
    assert c2.hom.group.moduli == (60,)
    assert c2.hom.generators == ((10,), (15,), (11,), (12,), (9,), (8,), (28,), (29,))


def test_square_rejected_candidate_stays_rejected():
    # The discarded assignment for the k=1 fifth axis (image 18) collides:
    # 18 has even order, so some +/- pair of tile vertices maps together.
    c1 = pdds1_square(1)
    wrong = tuple((g,) for g in (6, 9, 7, 5, 18))
    from pdds.abelian import Homomorphism
    bad = Homomorphism(c1.hom.group, wrong)
    assert not check_bijection(bad, c1.tile.shape.vertices).ok


def test_q3_pins():
    c = pdds1_q3()
    assert c.hom.group.moduli == (2, 4, 4)
    assert phi_eval(c.hom, (1, 1, 1)) == (1, 0, 0)
    assert phi_eval(c.hom, (-1, 0, 0)) == (1, 1, 1)
    assert phi_eval(c.hom, (1, 1, 2)) == (1, 0, 1)
    assert phi_eval(c.hom, (2, 0, 0)) == (0, 2, 2)
    assert c.h_spec == BoxSpec((2, 2, 2))
    assert len(c.tile.shape) == 32


def test_minkowski_pins():
    c = minkowski_p2()
    assert c.t == 2
    assert c.hom.group.moduli == (38,)
    assert c.hom.generators == ((1,), (11,), (7,))
    assert c.h_spec == BoxSpec((2, 1, 1))
    assert torus_periods(c.hom) == (38, 38, 38)


def test_nonlattice_example_structure():
    c = nonlattice_p2_example()
    assert not c.lattice_like
    comps = list(c.tile.components_by_id().values())
    assert len(comps) == 4
    extents = sorted(is_box(comp).extents for comp in comps)
    assert extents == [(1, 2), (1, 2), (2, 1), (2, 1)]
    assert torus_periods(c.hom) == (8, 8)
    assert len(c.tile.shape) == 32


def test_tile_labels_cover_shape_with_valid_devices():
    for c in (plc_n1(3), pdds1_q3(), pdds_t_path_2d(1, 2, "two_copy"),
              pdds_t_box2xk_2d(1, 2, "single_copy"), nonlattice_p2_example()):
        tile = c.tile
        assert set(tile.labels) == set(tile.shape)
        comps = list(tile.components_by_id().values())
        for v, (cid, device) in tile.labels.items():
            assert 0 <= cid < len(comps)
            assert device in comps[cid].vertices


def test_all_tiles_map_bijectively():
    for c in (plc_n1(2), plc_n1(3), pdds1_path(3, 2),
              pdds_t_path_2d(2, 2, "single_copy"),
              pdds_t_path_2d(2, 2, "two_copy"),
              pdds_t_box2xk_2d(3, 2, "single_copy"),
              pdds_t_box2xk_2d(3, 2, "two_copy"),
              pdds1_square(0), pdds1_q3(), minkowski_p2(),
              nonlattice_p2_example()):
        assert check_bijection(c.hom, c.tile.shape.vertices).ok
        assert len(c.tile.shape) == c.hom.group.order


def test_tile_contains_origin_and_units():
    # every tile component is also an h box, up to axis order
    for name, c in CATALOG:
        n = c.hom.dim
        assert (0,) * n in c.tile.shape, name
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            assert e in c.tile.shape, (name, e)
        want = sorted(c.h_spec.extents)
        for comp in c.tile.components_by_id().values():
            spec = is_box(comp)
            assert spec is not None and sorted(spec.extents) == want, (name, comp)


def test_construction_json_round_trip():
    for c in (plc_n1(2), pdds_t_path_2d(2, 3, "two_copy"),
              pdds_t_box2xk_2d(3, 3, "single_copy"), pdds1_q3(),
              nonlattice_p2_example()):
        again = Construction.from_json(json.loads(c.dumps()))
        assert again.t == c.t
        assert again.h_spec == c.h_spec
        assert again.hom == c.hom
        assert again.lattice_like == c.lattice_like
        assert again.tile.shape == c.tile.shape
        assert again.tile.labels == c.tile.labels
        # serialization is deterministic
        assert again.dumps() == c.dumps()


def test_variant_and_parameter_validation():
    with pytest.raises(ValueError):
        pdds_t_path_2d(2, 3, "both")
    with pytest.raises(ValueError):
        pdds_t_path_2d(0, 3, "two_copy")
    with pytest.raises(ValueError):
        pdds1_path(2, 0)
    with pytest.raises(ValueError):
        pdds1_square(-1)


def test_tile_from_json_validates_labels():
    c = plc_n1(2)
    blob = c.tile.to_json()
    blob["labels"] = blob["labels"][:-1]
    with pytest.raises(ValueError):
        Tile.from_json(blob)


@pytest.mark.parametrize("field, value", [
    ("component", 0.7), ("component", True), ("component", "0"),
    ("device", [0.5, "x"]), ("device", [0.0, 0]), ("v", [0.0, 0.0]),
])
def test_tile_from_json_rejects_non_integer_labels(field, value):
    # component 0.7 used to become 0 and device [0.5, "x"] was taken as is
    blob = plc_n1(2).tile.to_json()
    blob["labels"][0][field] = value
    with pytest.raises(ValueError, match="must be (an )?integers?"):
        Tile.from_json(blob)


def test_a_vertex_labelled_twice_is_rejected(capsys, tmp_path):
    # plc1(n=2) with a contradicting label of (1, 0) before its real one
    # used to load with the later label: 5 labels from 6 entries
    blob = plc_n1(2).to_json()
    labels = blob["tile"]["labels"]
    at = next(i for i, entry in enumerate(labels) if entry["v"] == [1, 0])
    labels.insert(at, {"v": [1, 0], "component": 5, "device": [9, 9]})
    with pytest.raises(ValueError, match=r"tile vertex \(1, 0\) is labelled twice"):
        Construction.from_json(blob)
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(blob))
    assert cli.run(["verify", str(path)]) == 1
    assert "is labelled twice" in capsys.readouterr().err


def test_construction_json_checks_the_generator_count(capsys, tmp_path):
    # used to load; only ranking a vertex later found the mismatch
    blob = plc_n1(2).to_json()
    gens = blob["hom"]["generators"]
    for wrong, count in ((gens[:1], 1), (gens + [[3]], 3)):
        bad = dict(blob, hom=dict(blob["hom"], generators=wrong))
        with pytest.raises(ValueError, match=f"homomorphism has {count} generators for 2 axes"):
            Construction.from_json(bad)
        path = tmp_path / f"gens{count}.json"
        path.write_text(json.dumps(bad))
        assert cli.run(["verify", str(path)]) == 1
        assert f"has {count} generators" in capsys.readouterr().err


def test_lattice_like_is_derived_from_the_tile():
    # The tile decides, whatever the JSON claims.
    blob = nonlattice_p2_example().to_json()
    assert blob["lattice_like"] is False
    assert not Construction.from_json(dict(blob, lattice_like=True)).lattice_like
    two = pdds_t_path_2d(2, 3, "two_copy").to_json()
    assert two["lattice_like"] is True
    assert Construction.from_json(dict(two, lattice_like=False)).lattice_like


def _tile_of(components):
    """The t = 0 tile whose components are the given shapes, in order."""
    labels = {v: (cid, v) for cid, comp in enumerate(components) for v in comp}
    return Tile(Shape.of(labels), labels)


def _stacked_dominoes():
    """Three 2 x 1 dominoes stacked along axis 2 over Z_6 with generator
    images 3 and 1: their images {0, 3}, {1, 4}, {2, 5} partition Z_6, but
    the shifts' images 0, 1, 2 are no subgroup."""
    domino = box_shape(BoxSpec((2, 1)))
    return Construction(0, BoxSpec((2, 1)),
                        _tile_of([translate(domino, (0, y)) for y in range(3)]),
                        Homomorphism(AbelianGroup((6,)), ((3,), (1,))))


def test_stacked_dominoes_are_a_pdds_but_not_lattice_like():
    con = _stacked_dominoes()
    assert not con.lattice_like
    for torus in [(4, 6), (4, 12), (8, 6)]:
        inst = instantiate_on_torus(con, torus)
        assert verify_pdds(inst).passed, torus
        assert not lattice_like_by_shift_search(inst), torus


@st.composite
def t0_constructions(draw):
    """A t = 0 construction over a group of order at most 12: box
    translates, with axes permuted or not, picked greedily in a drawn order
    while their images stay disjoint, until they partition the group.
    Draws where the greedy pick fails are discarded."""
    n = draw(st.integers(1, 3))
    moduli = [draw(st.integers(2, 12))]
    if moduli[0] <= 6 and draw(st.booleans()):
        moduli.append(draw(st.integers(2, 12 // moduli[0])))
    group = AbelianGroup(tuple(moduli))
    hom = Homomorphism(group, tuple(tuple(draw(st.integers(0, m - 1)) for m in moduli)
                                    for _ in range(n)))
    extents, rest = [], group.order
    for _ in range(n):
        extents.append(draw(st.sampled_from([e for e in (1, 2, 3) if rest % e == 0])))
        rest //= extents[-1]
    boxes = [box_shape(BoxSpec(e)) for e in sorted(set(itertools.permutations(extents)))]
    picks = [(box, s) for box in boxes
             for s in itertools.product(*map(range, torus_periods(hom)))]
    draw(st.randoms()).shuffle(picks)
    columns = syndrome_columns(hom)
    covered, components = set(), []
    for box, s in picks:
        comp = translate(box, s)
        ranks = {syndrome_rank(columns, v) for v in comp}
        if len(ranks) == len(comp) and not ranks & covered:
            covered |= ranks
            components.append(comp)
    assume(len(covered) == group.order)
    return Construction(0, BoxSpec(tuple(extents)), _tile_of(components), hom)


def _comparison_torus(con):
    """The least period multiple whose every axis exceeds every tile
    component's extent along it: on it no box component is its own
    translate, and two are translates only when they are on Z^n."""
    comps = con.tile.components_by_id().values()
    reach = [max(max(v[i] for v in c.vertices) - min(v[i] for v in c.vertices) + 1
                 for c in comps) for i in range(con.tile.shape.dim)]
    return tuple(p * (e // p + 1) for p, e in zip(torus_periods(con.hom), reach))


@settings(max_examples=200, deadline=None)
@given(t0_constructions())
@example(_stacked_dominoes())
@example(pdds_t_box2xk_2d(1, 1, "two_copy"))
@example(nonlattice_p2_example())
def test_lattice_like_matches_the_instance_oracle(con):
    inst = instantiate_on_torus(con, _comparison_torus(con))
    assert con.lattice_like == lattice_like_by_shift_search(inst)


def test_construction_json_accepts_every_catalog_tile():
    assert len(CATALOG) == 100
    for name, c in CATALOG:
        assert Construction.from_json(json.loads(c.dumps())).tile.labels == c.tile.labels, name


def _relabel(blob, v, device):
    for entry in blob["tile"]["labels"]:
        if entry["v"] == list(v):
            entry["device"] = list(device)
    return blob


def test_construction_json_rejects_untrusted_device_labels():
    # plc1(n=2) with the device of (1, 0) moved to (2, 2) used to load and
    # decode (1, 0) to (2, 2), at distance 3 > t
    plc = plc_n1(2)
    with pytest.raises(ValueError, match=r"device \(2, 2\) of component 0, which is "
                       "not a tile vertex labelled as a device"):
        Construction.from_json(_relabel(plc.to_json(), (1, 0), (2, 2)))
    # the device is a component vertex, but not the nearest one to u
    c = pdds_t_path_2d(2, 3, "two_copy")
    u, (cid, dev) = next((u, lab) for u, lab in sorted(c.tile.labels.items())
                         if u != lab[1])
    far = max(c.tile.components_by_id()[cid].vertices,
              key=lambda w: sum(abs(a - b) for a, b in zip(u, w)))
    with pytest.raises(ValueError, match="not the unique nearest vertex"):
        Construction.from_json(_relabel(c.to_json(), u, far))
    # the device of another component, under this component's id
    other = next(d for _, (k, d) in c.tile.labels.items() if k != cid)
    with pytest.raises(ValueError, match="not a tile vertex labelled"):
        Construction.from_json(_relabel(c.to_json(), u, other))
    # the nearest vertex, but farther than t
    with pytest.raises(ValueError, match="within distance 0"):
        Construction.from_json(dict(plc.to_json(), t=0))


def _relabel_all(blob, changes):
    """Give each tile vertex v in changes the label changes[v] = (cid, device)."""
    for entry in blob["tile"]["labels"]:
        old = (entry["component"], entry["device"])
        cid, device = changes.get(tuple(entry["v"]), old)
        entry["component"], entry["device"] = cid, list(device)
    return blob


def test_construction_json_rejects_labels_its_components_do_not_give():
    plc = plc_n1(2)
    # (1, 0) as a component of its own: its neighbourhood overlaps the origin's
    with pytest.raises(ValueError, match="t-neighborhoods overlap"):
        Construction.from_json(_relabel_all(plc.to_json(), {(1, 0): (1, (1, 0))}))
    # devices (-1, 0) and (1, 0) in one component: (0, 0) is between them
    ends = {v: (0, (1, 0)) for v in [(0, 0), (0, 1), (0, -1), (1, 0)]}
    ends[(-1, 0)] = (0, (-1, 0))
    with pytest.raises(ValueError, match=r"vertex \(0, 0\) has no unique nearest"):
        Construction.from_json(_relabel_all(plc.to_json(), ends))
    # a neighbourhood vertex missing from the tile
    blob = pdds1_q3().to_json()
    blob["tile"]["vertices"].remove([2, 0, 0])
    blob["tile"]["labels"] = [e for e in blob["tile"]["labels"] if e["v"] != [2, 0, 0]]
    with pytest.raises(ValueError, match=r"vertex \(2, 0, 0\) is within distance 1 "
                       "of component 0 but is not a tile vertex"):
        Construction.from_json(blob)


def test_ball_size_formula_matches_offset_ball():
    for n in range(5):
        for t in range(7):
            assert ball_size(n, t) == len(_offset_ball(n, t, None)), (n, t)


def test_construction_json_rejects_huge_t_before_the_walk():
    # plc1(n=2) with t = 10**6 used to load: its labels are nearest within t
    started = time.perf_counter()
    with pytest.raises(ValueError, match="t = 1000000 is too large"):
        Construction.from_json(dict(plc_n1(2).to_json(), t=10**6))
    assert time.perf_counter() - started < 0.1


@pytest.mark.parametrize("build, args", [
    (pdds_t_path_2d, (10**6, 1)),                 # about 2*10**12 vertices
    (pdds_t_path_2d, (2047, 1, "two_copy")),      # one copy fitted 2**24 coordinates
    (pdds_t_box2xk_2d, (10**6, 1, "single_copy")),
    (pdds1_path, (2, 10**9)),
    (pdds1_square, (10**6,)),
    (plc_n1, (10**7,)),
    (pdds_t_path_2d, (1, 10**9, "single_copy")),  # k long: no path is built
    (pdds_t_box2xk_2d, (10**6, 1)),
    (pdds_t_path_2d, (256, 1, "two_copy")),       # one copy fits the limit, two do not
    (pdds_t_path_2d, (1447, 1, "two_copy")),      # 8.4 M vertices, under 2**24 coordinates
    (plc_n1, (600,)),                             # 1,201 vertices, 720,600 coordinates
])
def test_builders_reject_tiles_over_max_volume_before_building(build, args):
    # path2d with t = 200 used to take 5 s and 348 MB; path with
    # k = 3000000 ran for minutes
    started = time.perf_counter()
    with pytest.raises(ValueError, match="coordinates, more than the limit"):
        build(*args)
    assert time.perf_counter() - started < 0.1


@pytest.mark.parametrize("build", [pdds_t_path_2d, pdds_t_box2xk_2d])
def test_unknown_variant_is_named_before_the_size(build):
    with pytest.raises(ValueError, match="variant must be"):
        build(10**6, 1, "three_copy")


def test_catalog_dumps_are_pinned():
    # sha256 over the 100 catalog dumps() in catalog order; a change here
    # changes every file `pdds construct` writes.  The digest last changed
    # when lattice_like became exact: the 32 two-copy entries turned true,
    # and every dump is otherwise byte-identical.
    digest = hashlib.sha256()
    for _, con in CATALOG:
        digest.update(con.dumps().encode())
    assert digest.hexdigest() == \
        "9fcbe08899dd541bff4d0792d90d037759e3d9a6a2fe8bc166418a816ead6995"


@pytest.mark.parametrize("seed", [3, 7])
def test_load_check_matches_zn_oracle_and_torus_verify_on_corruptions(seed):
    # The per-label check this load check replaced accepted 3 of the 500
    # seed-3 corruptions that are not PDDSs: plc1(n=9, Z19), path(n=3, k=1)
    # and box2xk(t=1, k=1, single_copy); at seed 7 it accepted 5.
    rng = random.Random(seed)
    on_torus = 0
    for name, con in CATALOG:
        for _ in range(5):
            bent = Construction(con.t, con.h_spec, corrupt_tile(con.tile, rng), con.hom)
            try:
                Construction.from_json(bent.to_json())
                loads = True
            except ValueError:
                loads = False
            bijective = check_bijection(con.hom, bent.tile.shape.vertices).ok
            accepted = loads and bijective
            assert accepted == tile_is_pdds_on_zn(bent.tile, con.hom, con.t), name
            if bijective and period_volume(con) <= VERIFY_CAP:
                inst = instantiate_on_torus(bent)
                assert accepted == verify_pdds(inst, strict_box=False).passed, name
                on_torus += 1
    assert on_torus >= 9
