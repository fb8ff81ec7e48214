import itertools
import json
import random
import time
import tracemalloc
from math import gcd, prod
from operator import add

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pdds.abelian import (Homomorphism, AbelianGroup, check_bijection,
                          syndrome_columns, syndrome_ranks, torus_periods)
from pdds.constructions import (
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
from pdds import verifier
from pdds.lattice import (MAX_VOLUME, BoxSpec, Shape, _offset_ball, box_shape,
                          check_radius, is_box, lee_distance, nearest_within,
                          strides, translate)
from pdds.verifier import (
    PDDSInstance,
    VerificationReport,
    Violation,
    _box_violations,
    _kernel_elements,
    _translation_classes,
    coverage,
    instantiate_on_torus,
    verify_partition,
    verify_pdds,
)
from group_oracle import phi_eval
from lattice_oracle import lattice_like_by_shift_search
from test_acceptance import (CATALOG, VERIFY_CAP, corrupt_tile, partition_by_vertex,
                             period_instance, period_volume)

SMALL_CATALOG = [
    plc_n1(2),
    plc_n1(3),
    pdds1_path(2, 3),
    pdds_t_path_2d(2, 3, "two_copy"),
    pdds_t_path_2d(2, 2, "single_copy"),
    pdds_t_box2xk_2d(2, 1, "two_copy"),
    pdds_t_box2xk_2d(2, 2, "single_copy"),
    pdds1_square(0),
    pdds1_q3(),
    nonlattice_p2_example(),
]


# --------------------------------------------------------------------------
# The brute-force scan, verify_pdds's oracle: the same input checks and box
# check, with coverage found over every (vertex, component) pair.
# --------------------------------------------------------------------------

def _coverage_scan(inst):
    """Distances by brute force over (vertex, component) pairs.

    Yields (vertex, covering) where covering lists
    (component_id, min_distance, minimizer_count, device) for every
    component within distance t, in component order.
    """
    dims = inst.torus
    for x in itertools.product(*(range(d) for d in dims)):
        covering = []
        for cid, comp in enumerate(inst.components):
            best = None
            count = 0
            dev = None
            for w in comp.vertices:
                d = lee_distance(x, w, dims)
                if best is None or d < best:
                    best, count, dev = d, 1, w
                elif d == best:
                    count += 1
            if best is not None and best <= inst.t:
                covering.append((cid, best, count, dev))
        yield x, covering


def _verify_by_scan(inst, *, strict_box=True):
    """verify_pdds with coverage read off :func:`_coverage_scan`."""
    check_radius(inst.t)
    classes = _translation_classes(inst)
    violations = []
    for x, covering in _coverage_scan(inst):
        if not covering:
            violations.append(Violation(
                x, "uncovered", f"no component within distance {inst.t}"))
        elif len(covering) > 1:
            ids = ", ".join(str(c[0]) for c in covering)
            violations.append(Violation(
                x, "multi_component", f"components {ids} all within distance {inst.t}"))
        else:
            cid, d, count, _ = covering[0]
            if count > 1:
                violations.append(Violation(
                    x, "ambiguous_nearest",
                    f"{count} nearest vertices in component {cid} at distance {d}"))
    if strict_box:
        violations.extend(_box_violations(inst, classes))
    violations.sort(key=lambda v: (v.vertex, v.kind))
    return VerificationReport(not violations, violations)


def test_kernel_elements_match_brute_force():
    for c in (plc_n1(2), pdds1_square(0), pdds1_q3()):
        inst = instantiate_on_torus(c)
        got = list(_kernel_elements(c.hom, inst.torus))
        want = [v for v in itertools.product(*(range(d) for d in inst.torus))
                if phi_eval(c.hom, v) == c.hom.group.identity()]
        assert got == want
        assert len(got) == inst.volume // c.hom.group.order


@st.composite
def kernel_cases(draw):
    """A homomorphism from Z^1..3 into 1-3 cyclic factors of modulus <= 7,
    on a torus whose axes are 1-3 times its periods; the last generator
    is 0 in about half of them."""
    moduli = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    gens = [tuple(draw(st.integers(0, m - 1)) for m in moduli)
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens[-1] = (0,) * len(moduli)
    hom = Homomorphism(AbelianGroup(moduli), tuple(gens))
    dims = tuple(p * draw(st.integers(1, 3)) for p in torus_periods(hom))
    assume(prod(dims) <= 6000)
    return hom, dims


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((Homomorphism(AbelianGroup((6,)), ((2,),)), (6,)))              # one axis
@example((Homomorphism(AbelianGroup((5,)), ((1,), (0,))), (5, 2)))       # last gen 0
@example((Homomorphism(AbelianGroup((2, 3)), ((1, 1), (0, 2))), (2, 6)))
def test_kernel_walk_matches_brute_force_in_order(case):
    hom, dims = case
    want = [v for v in itertools.product(*(range(d) for d in dims))
            if phi_eval(hom, v) == hom.group.identity()]
    assert list(_kernel_elements(hom, dims)) == want


def test_instantiate_q3_default_torus():
    inst = instantiate_on_torus(pdds1_q3())
    assert inst.torus == (4, 4, 4)
    assert inst.t == 1
    assert len(inst.components) == 2
    assert all(len(comp) == 8 for comp in inst.components)


def test_instantiate_respects_explicit_torus():
    c = plc_n1(2)
    inst = instantiate_on_torus(c, (10, 10))
    assert inst.torus == (10, 10)
    assert len(inst.components) == 20
    assert verify_pdds(inst).passed
    with pytest.raises(ValueError):
        instantiate_on_torus(c, (7, 5))


def test_catalog_instances_verify():
    for c in SMALL_CATALOG:
        inst = instantiate_on_torus(c)
        report = verify_pdds(inst)
        assert report.passed, (c.h_spec, report.to_json()["violations"][:3])
        assert report.to_json()["pass"] is True


def test_methods_agree_on_valid_and_broken_instances():
    for c in (plc_n1(2), pdds1_square(0), pdds1_q3(),
              nonlattice_p2_example(), pdds_t_path_2d(2, 3, "two_copy")):
        inst = instantiate_on_torus(c)
        by_scan = _verify_by_scan(inst)
        by_exp = verify_pdds(inst)
        assert by_scan.to_json() == by_exp.to_json()
        # drop one component: both methods must see identical violations
        broken = PDDSInstance(inst.torus, inst.t, inst.h_spec,
                              list(inst.components[1:]))
        s = _verify_by_scan(broken)
        e = verify_pdds(broken)
        assert not s.passed
        assert s.to_json() == e.to_json()


def test_uncovered_and_multi_component_violations():
    # a lone singleton on a big torus leaves distant vertices unserved
    lone = PDDSInstance((7, 7), 1, BoxSpec((1, 1)), [Shape.of([(0, 0)])])
    report = verify_pdds(lone)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"uncovered"}
    # two adjacent singletons double-serve their shared neighborhood
    crowd = PDDSInstance((7, 7), 1, BoxSpec((1, 1)),
                         [Shape.of([(0, 0)]), Shape.of([(1, 0)])])
    report = verify_pdds(crowd)
    assert "multi_component" in {v.kind for v in report.violations}


def test_ambiguous_nearest_violation():
    # on a width-3 ring the vertex opposite a domino ties between its ends
    inst = PDDSInstance((3, 3), 1, BoxSpec((2, 1)),
                        [Shape.of([(0, 0), (1, 0)]),
                         Shape.of([(0, 1), (1, 1)]),
                         Shape.of([(0, 2), (1, 2)])])
    report = verify_pdds(inst)
    amb = [v for v in report.violations if v.kind == "ambiguous_nearest"]
    assert amb
    assert any(v.vertex == (2, 0) for v in amb)
    assert "2 nearest vertices" in amb[0].detail


def test_strict_box_flag_controls_shape_check():
    # singletons verified against a declared 2x1 box: coverage is perfect,
    # the component shapes are not
    c = plc_n1(2)
    inst = instantiate_on_torus(c)
    mislabeled = PDDSInstance(inst.torus, inst.t, BoxSpec((2, 1)),
                              list(inst.components))
    strict = verify_pdds(mislabeled, strict_box=True)
    assert not strict.passed
    assert {v.kind for v in strict.violations} == {"component_not_box"}
    relaxed = verify_pdds(mislabeled, strict_box=False)
    assert relaxed.passed


def test_component_wrapping_whole_axis_is_not_a_box():
    # a full ring is a cycle, not a path, once it wraps the torus
    ring = Shape.of([(i, 0) for i in range(5)])
    inst = PDDSInstance((5, 3), 1, BoxSpec((5, 1)), [ring])
    report = verify_pdds(inst)
    assert any(v.kind == "component_not_box" for v in report.violations)


def test_component_repeating_a_torus_vertex_is_not_a_box():
    # (4, 0) is (0, 0) on the torus: four vertices with 2x2 runs, three cells
    inst = PDDSInstance.from_json(json.loads(
        '{"torus": [4, 6], "t": 0, "h": {"extents": [2, 2]},'
        ' "components": [[[0, 0], [4, 0], [1, 1], [0, 1]]]}'))
    report = verify_pdds(inst)
    at_corner = {v.kind: v.detail for v in report.violations if v.vertex == (0, 0)}
    assert at_corner.keys() == {"ambiguous_nearest", "component_not_box"}
    assert at_corner["component_not_box"].startswith("component 0 (4 vertices)")


def test_instance_json_round_trip_and_component_order():
    inst = instantiate_on_torus(pdds1_square(0))
    again = PDDSInstance.from_json(json.loads(inst.dumps()))
    assert again.torus == inst.torus
    assert again.t == inst.t
    assert again.h_spec == inst.h_spec
    assert [c.vertices for c in again.components] == \
        [c.vertices for c in inst.components]
    # shuffled component order parses back to canonical order
    blob = inst.to_json()
    blob["components"].reverse()
    re_sorted = PDDSInstance.from_json(blob)
    assert [c.vertices for c in re_sorted.components] == \
        [c.vertices for c in inst.components]


def test_verify_partition_matches_bijection_on_catalog():
    for c in SMALL_CATALOG:
        inst = instantiate_on_torus(c)
        assert verify_partition(inst, c.tile, c.hom)


def test_verify_partition_detects_corruption():
    c = pdds1_q3()
    inst = instantiate_on_torus(c)
    verts = list(c.tile.shape)
    # move one tile vertex onto another: collision, no longer a transversal
    broken_verts = verts[:-1] + [verts[0]]
    cid, dev = c.tile.labels[verts[-1]]
    labels = dict(c.tile.labels)
    del labels[verts[-1]]
    broken = Tile(Shape.of(broken_verts), labels)
    assert not check_bijection(c.hom, broken.shape.vertices).ok
    assert not verify_partition(inst, broken, c.hom)


def test_partition_bijection_equivalence_random_moves():
    rng = random.Random(1105)
    c = pdds1_square(0)
    inst = instantiate_on_torus(c)
    for _ in range(40):
        verts = list(c.tile.shape)
        i = rng.randrange(len(verts))
        v = verts[i]
        verts[i] = tuple(a + rng.randint(-2, 2) for a in v)
        shape = Shape.of(verts)
        if len(shape) < len(verts):
            continue  # merged two vertices; tile no longer well-formed
        labels = {u: c.tile.labels.get(u, (0, next(iter(shape)))) for u in shape}
        moved = Tile(shape, labels)
        assert (verify_partition(inst, moved, c.hom)
                == check_bijection(c.hom, shape.vertices).ok
                == partition_by_vertex(inst, moved, c.hom))


def test_is_lattice_like_two_copy_instances_are_geometrically_lattice():
    # the two-copy tiles are built from two interleaved component orbits,
    # and on the torus those orbits merge into a single translation lattice
    con = pdds_t_path_2d(2, 3, "two_copy")
    assert con.lattice_like
    assert lattice_like_by_shift_search(instantiate_on_torus(con))


def test_is_lattice_like_requires_offsets_to_form_subgroup():
    base = Shape.of([(0, 0), (1, 0)])
    def at(*offsets):
        return [translate(base, o, (4, 4)) for o in offsets]
    good = PDDSInstance((4, 4), 0, BoxSpec((2, 1)),
                        at((0, 0), (2, 0), (0, 2), (2, 2)))
    assert lattice_like_by_shift_search(good)
    bad = PDDSInstance((4, 4), 0, BoxSpec((2, 1)),
                       at((0, 0), (1, 2), (2, 0)))
    assert not lattice_like_by_shift_search(bad)
    mixed = PDDSInstance((4, 4), 0, BoxSpec((2, 1)),
                         [Shape.of([(0, 0), (1, 0)]), Shape.of([(0, 2), (0, 3)])])
    assert not lattice_like_by_shift_search(mixed)
    empty = PDDSInstance((4, 4), 0, BoxSpec((2, 1)), [])
    assert lattice_like_by_shift_search(empty)


def _cyclic_order(g, dims):
    """The order of g in the torus group."""
    order = 1
    for c, d in zip(g, dims):
        q = d // gcd(c, d)
        order = order * q // gcd(order, q)
    return order


@st.composite
def box_translate_sets(draw, any_shape=False):
    """Translates of one box on a torus of 1-3 axes of 2-7, reduced mod
    the torus, so some wrap the seam.

    With ``any_shape`` the box may span whole axes (so it is its own
    translate along them), and in half the cases an arbitrary set of up to
    8 vertices takes its place; the rest is drawn the same way.

    The box's extents are below the axes (and at most 3), so no translate
    but the zero one maps it to itself.  In about half of them the
    translates are a coset of a subgroup generated by one or two elements
    of order at most 6, else up to 6 drawn translates, repeats allowed.
    In about a third one component that is not a translate is added: an
    arbitrary vertex set of about the box's size.
    """
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(2, 7)) for _ in range(n))
    spec = BoxSpec(tuple(draw(st.integers(1, d if any_shape else min(d - 1, 3)))
                         for d in dims))
    box = box_shape(spec)
    vertex = st.tuples(*(st.integers(0, d - 1) for d in dims))
    if any_shape and draw(st.booleans()):
        box = Shape.of(sorted(set(draw(st.lists(vertex, min_size=1, max_size=8)))))
    if draw(st.booleans()):
        gens = []
        for g in draw(st.lists(vertex, min_size=1, max_size=2)):
            order = _cyclic_order(g, dims)
            q = draw(st.sampled_from([q for q in range(1, 7) if order % q == 0]))
            gens.append(tuple(c * (order // q) % d for c, d in zip(g, dims)))
        subgroup = {(0,) * n}
        frontier = list(subgroup)
        while frontier:
            h = frontier.pop()
            for g in gens:
                x = tuple((a + b) % d for a, b, d in zip(h, g, dims))
                if x not in subgroup:
                    subgroup.add(x)
                    frontier.append(x)
        a0 = draw(vertex)
        shifts = [tuple(map(add, a0, h)) for h in sorted(subgroup)]
    else:
        shifts = draw(st.lists(vertex, min_size=1, max_size=6))
    comps = [translate(box, a, dims) for a in shifts]
    if draw(st.integers(0, 2)) == 0:
        comps.append(Shape.of(draw(st.lists(vertex, min_size=1,
                                            max_size=len(box) + 1))))
    comps.sort(key=lambda s: s.vertices)
    return PDDSInstance(dims, draw(st.integers(0, 2)), spec, comps)


def _class_signature(comp, dims):
    """A component's translation class by brute force: its sorted vertex
    offsets, mod the torus, from whichever vertex makes them least."""
    return min(tuple(sorted(tuple((a - b) % d for a, b, d in zip(v, u, dims))
                            for v in comp.vertices))
               for u in comp.vertices)


def _coverage_from_scan(inst):
    """The :func:`coverage` arrays read off the brute-force scan, and the
    scan's count of covering components per vertex, capped at 2."""
    cover = bytearray(inst.volume)
    comp_of = [-1] * inst.volume
    count_of = bytearray(inst.volume)
    multi = {}
    for flat, (_, covering) in enumerate(_coverage_scan(inst)):
        if covering:
            cover[flat] = min(len(covering), 2)
            comp_of[flat] = covering[0][0]
            count_of[flat] = min(covering[0][2], 255)
        if len(covering) > 1:
            multi[flat] = [c[0] for c in covering]
    return (comp_of, count_of, multi), cover


def _derived_cover(comp_of, count_of, multi):
    """Per vertex 0, 1 or 2 for no, one or several components within t,
    as a reader of the :func:`coverage` arrays derives it."""
    return bytearray(2 if f in multi else int(c >= 0) for f, c in enumerate(comp_of))


def _assert_coverage_matches_scan(inst):
    want, cover = _coverage_from_scan(inst)
    got = coverage(inst)
    assert got == want
    assert _derived_cover(*got) == cover


def _translates(dims, box, t, *anchors):
    return _translates_of(dims, box_shape(BoxSpec(box)), t, *anchors)


def _translates_of(dims, shape, t, *anchors):
    """The translates of shape by the anchors, as an instance whose H is
    the shape's bounding box."""
    spec = BoxSpec(tuple(max(c) - min(c) + 1 for c in zip(*shape.vertices)))
    return PDDSInstance(dims, t, spec, sorted(
        (translate(shape, a, dims) for a in anchors), key=lambda s: s.vertices))


@settings(max_examples=200, deadline=None)
@given(box_translate_sets())
@example(_translates((5,), (2,), 1, (0,), (4,)))                 # wrap, not closed
@example(_translates((4, 4), (2, 1), 1, (3, 1), (1, 1), (3, 3), (1, 3)))  # wrapped coset
@example(_translates((6, 3), (2, 2), 0, (5, 2), (1, 2), (3, 2)))  # wraps both axes
@example(_translates((7,), (3,), 2, (5,), (5,), (1,)))           # repeat, and a wrap
def test_translation_classes_are_exact(inst):
    _assert_exact_classes(inst)
    _assert_coverage_matches_scan(inst)


@settings(max_examples=200, deadline=None)
@given(box_translate_sets(any_shape=True))
@example(_translates_of((4, 4), Shape.of([(0, 0), (1, 1), (2, 2), (3, 3)]), 1,
                        (0, 1), (2, 3), (1, 1), (0, 0)))   # diagonal: own translate
@example(_translates_of((3, 3), Shape.of([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]),
                        0, (0, 1), (1, 0), (2, 2)))        # no vertex starts both axes
@example(_translates((4, 3), (4, 2), 0, (1, 0), (2, 1), (0, 2)))  # full ring on axis 1
@example(_translates((2, 2), (2, 2), 0, (0, 0), (1, 1)))          # the whole torus
def test_translation_classes_are_exact_for_any_shape(inst):
    _assert_exact_classes(inst)
    _assert_coverage_matches_scan(inst)


def test_translation_classes_of_large_boxes_stay_linear():
    # The class pass must stay linear in a component's size: offsets kept
    # as seen from each of a box's m vertices would be m**2 points, about
    # 1 GB for one 64 x 64 box.
    dims = (128, 128)
    box, half = box_shape(BoxSpec((64, 64))), box_shape(BoxSpec((64, 32)))
    tiling = [translate(box, a, dims) for a in ((32, 96), (96, 96), (32, 32))]
    tiling += [translate(half, a, dims) for a in ((96, 32), (96, 64))]
    inst = PDDSInstance(dims, 0, BoxSpec((64, 64)), tiling)
    tracemalloc.start()
    try:
        classes = _translation_classes(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes.members == [[0, 1, 2], [3, 4]]
    assert peak < 16 * 2**20
    # A band around a whole axis is its own translate along it: its
    # candidate vertices are cut to one there, not every vertex tried.
    band = box_shape(BoxSpec((128, 32)))
    bands = [translate(band, (5, a), dims) for a in (0, 32, 64, 96)]
    started = time.perf_counter()
    classes = _translation_classes(PDDSInstance(dims, 0, BoxSpec((128, 32)), bands))
    assert classes.members == [[0, 1, 2, 3]]
    assert time.perf_counter() - started < 2
    assert verify_pdds(PDDSInstance(dims, 0, BoxSpec((64, 64)),
                                    tiling[:3] + [translate(box, (96, 32), dims)])).passed


def _assert_exact_classes(inst):
    """The classes are the brute-force translation classes, numbered in
    order of first member, their members ascending, and each key plus
    anchor is its member."""
    dims = inst.torus
    classes = _translation_classes(inst)
    # the members partition the component ids, each class ascending
    class_of = {cid: k for k, ids in enumerate(classes.members) for cid in ids}
    assert sorted(class_of) == list(range(len(inst.components)))
    assert sum(map(len, classes.members)) == len(inst.components)
    assert all(ids == sorted(ids) for ids in classes.members)
    class_of = [class_of[cid] for cid in range(len(inst.components))]
    sigs = [_class_signature(comp, dims) for comp in inst.components]
    # one class per translation class, numbered in order of first member
    assert len({*zip(class_of, sigs)}) == len(set(sigs)) == len(classes.keys)
    assert list(dict.fromkeys(class_of)) == list(range(len(classes.keys)))
    # each key shifted by the member's anchor is the member, mod the torus
    for key, anchors, ids in zip(classes.keys, classes.anchors, classes.members):
        assert len(anchors) == len(ids)
        for a, cid in zip(anchors, ids):
            assert sorted(tuple((o + c) % d for o, c, d in zip(off, a, dims))
                          for off in key) == \
                sorted(tuple(c % d for c, d in zip(v, dims))
                       for v in inst.components[cid].vertices)


def test_verify_pdds_rejects_malformed_instances():
    with pytest.raises(ValueError):
        verify_pdds(PDDSInstance((5, 5), 1, BoxSpec((1, 1)),
                                 [Shape.of([(0, 0, 0)])]))
    report = verify_pdds(PDDSInstance((3, 3), 1, BoxSpec((1, 1)), []))
    assert not report.passed
    assert all(v.kind == "uncovered" for v in report.violations)
    assert len(report.violations) == 9


def test_minkowski_verifies_on_small_multiple_torus():
    # periods are (38, 38, 38); the code also lives on any multiple torus,
    # but the full default instance is exercised by the acceptance suite
    c = minkowski_p2()
    inst = instantiate_on_torus(c)
    assert inst.torus == (38, 38, 38)
    assert len(inst.components) == inst.volume // 38


@pytest.mark.parametrize("t", [None, "1", 1.5, True, -1])
def test_instance_and_construction_json_reject_bad_t(t):
    blob = instantiate_on_torus(plc_n1(2)).to_json()
    with pytest.raises(ValueError, match="nonnegative integer"):
        PDDSInstance.from_json(dict(blob, t=t))
    blob = plc_n1(2).to_json()
    with pytest.raises(ValueError, match="nonnegative integer"):
        Construction.from_json(dict(blob, t=t))


def test_json_without_t_is_rejected():
    blob = instantiate_on_torus(plc_n1(2)).to_json()
    del blob["t"]
    with pytest.raises(ValueError, match="nonnegative integer"):
        PDDSInstance.from_json(blob)
    blob = plc_n1(2).to_json()
    del blob["t"]
    with pytest.raises(ValueError, match="nonnegative integer"):
        Construction.from_json(blob)


@pytest.mark.parametrize("torus", [[5.9, 5.2], [5, 5.0], [True, 5]])
def test_instance_json_rejects_non_integer_torus(torus):
    # [5.9, 5.2] used to load as (5, 5) and verify as passing
    blob = instantiate_on_torus(plc_n1(2)).to_json()
    with pytest.raises(ValueError, match="positive integers"):
        PDDSInstance.from_json(dict(blob, torus=torus))


@pytest.mark.parametrize("vertex", [[0.5, 0.5], [0.0, 0.0], [False, 0]])
def test_instance_json_rejects_non_integer_coordinates(vertex):
    # [[0.5, 0.5]] used to load as (0, 0) and verify as passing
    blob = instantiate_on_torus(plc_n1(2)).to_json()
    blob["components"][0] = [vertex]
    with pytest.raises(ValueError, match="coordinates must be integers"):
        PDDSInstance.from_json(blob)


def test_verify_pdds_rejects_negative_t():
    # t is outside the instance's invariant: the instance is made, as the
    # benchmark's negative-t input needs, and verification refuses it.
    inst = instantiate_on_torus(plc_n1(2))
    negative = PDDSInstance(inst.torus, -1, inst.h_spec, list(inst.components))
    assert negative.t == -1
    for verify in (_verify_by_scan, verify_pdds):
        with pytest.raises(ValueError, match="nonnegative integer"):
            verify(negative)


@pytest.mark.parametrize("torus, t", [((600, 1), 300), ((512,), 256)])
def test_distances_of_256_and_more_verify(torus, t):
    inst = PDDSInstance(torus, t, BoxSpec((1,) * len(torus)),
                        [Shape.of([(0,) * len(torus)])])
    for verify in (_verify_by_scan, verify_pdds):
        assert verify(inst).passed, verify.__name__


@pytest.mark.parametrize("dims, t", [
    ((5,), 0), ((5,), 2), ((5,), 3), ((6,), 3), ((2,), 1), ((1,), 4),
    ((1, 7), 3), ((2, 2), 1), ((2, 2), 2), ((4, 3), 2), ((3, 1, 2), 5),
    ((6, 6), 4), ((3, 4, 5), 1), ((600, 1), 300),
])
def test_circular_offsets_match_every_torus_vertex(dims, t):
    want = []
    for x in itertools.product(*(range(d) for d in dims)):
        dist = sum(min(c, d - c) for c, d in zip(x, dims))
        if dist <= t:
            want.append((x, dist))
    # the offset ball coverage's local maps are built from, on a torus
    assert _offset_ball(len(dims), t, dims) == tuple(want)


@st.composite
def small_instances(draw):
    """Random component sets on tori of at most 36 vertices.

    Mixes box translates of one extent, which often pass, with arbitrary
    vertex sets, which exercise every violation kind.
    """
    n = draw(st.integers(1, 2))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n))
    t = draw(st.integers(0, 3))
    spec = BoxSpec(tuple(draw(st.integers(1, 2)) for _ in range(n)))
    vertex = st.tuples(*(st.integers(0, d - 1) for d in dims))
    comps = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            comps.append(translate(box_shape(spec), draw(vertex), dims))
        else:
            comps.append(Shape.of(draw(st.lists(vertex, min_size=1, max_size=4))))
    comps.sort(key=lambda s: s.vertices)
    return PDDSInstance(dims, t, spec, comps)


@settings(max_examples=200, deadline=None)
@given(small_instances())
# Four writes on a torus of four, but (1,) is covered twice and (3,) never:
# the count of covered cells must still fail it.
@example(PDDSInstance((4,), 0, BoxSpec((2,)),
                      [Shape.of([(0,), (1,)]), Shape.of([(1,), (2,)])]))
# Covered once everywhere; (2,) is one step from both vertices of the box,
# so only its nearest-vertex count fails.
@example(PDDSInstance((3,), 1, BoxSpec((2,)), [Shape.of([(0,), (1,)])]))
def test_scan_equals_expansion_on_random_instances(inst):
    by_scan = _verify_by_scan(inst)
    by_exp = verify_pdds(inst)
    assert by_scan.to_json() == by_exp.to_json()


def test_one_vertex_with_a_half_torus_radius_stays_small():
    # Every one of the 1024 cells shifts the one anchor: a table per
    # (axis, coordinate) would hold about 40 MB.
    inst = PDDSInstance((1024,), 512, BoxSpec((1,)), [Shape.of([(0,)])])
    tracemalloc.start()
    try:
        passed = verify_pdds(inst).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 4 * 2**20


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_instance_json_round_trip(inst):
    assert PDDSInstance.from_json(json.loads(inst.dumps())) == inst


def _box_extents_by_brute_force(verts, dims):
    """Extents e such that the set is the box of extents e translated to
    one of its own vertices, else None.

    On a torus (each e_i < d_i, or 1 on an axis of length 1) the set is
    reduced mod the torus first, and two vertices equal mod the torus give
    None.  On the grid (dims None) e ranges over the factorizations of the
    set's size, the only extents a box of that size can have.
    """
    if dims is None:
        target = Shape.of(verts)
        size = len(target)
        divisors = [e for e in range(1, size + 1) if size % e == 0]
        choices = [exts for exts in itertools.product(divisors, repeat=target.dim)
                   if prod(exts) == size]
    else:
        target = Shape.of(tuple(c % d for c, d in zip(v, dims)) for v in verts)
        if len(target) != len(verts):
            return None
        choices = itertools.product(*(range(1, d) if d > 1 else (1,) for d in dims))
    for exts in choices:
        for anchor in target.vertices:
            if translate(box_shape(BoxSpec(exts)), anchor, dims) == target:
                return exts
    return None


@st.composite
def torus_vertex_sets(draw):
    """Boxes (full-axis rings included), holed boxes, unions of two boxes
    (often disconnected) and arbitrary sets, on tori of 1-3 axes of 1-5;
    in half of them each coordinate is moved by -d, 0 or +d, as JSON input
    may give it unreduced.  About a quarter are then asked on the grid
    (dims None), where a box that wraps the seam is split in two."""
    dims = tuple(draw(st.integers(1, 5)) for _ in range(draw(st.integers(1, 3))))
    vertex = st.tuples(*(st.integers(0, d - 1) for d in dims))

    def box():
        exts = tuple(draw(st.integers(1, d)) for d in dims)
        return set(translate(box_shape(BoxSpec(exts)), draw(vertex), dims).vertices)

    kind = draw(st.sampled_from(["box", "holed", "two_boxes", "any"]))
    if kind == "any":
        return dims, set(draw(st.lists(vertex, min_size=1, max_size=12)))
    verts = box()
    if kind == "holed" and len(verts) > 1:
        verts.discard(draw(st.sampled_from(sorted(verts))))
    elif kind == "two_boxes":
        verts |= box()
    if draw(st.booleans()):
        verts = {tuple(c + d * draw(st.integers(-1, 1)) for c, d in zip(v, dims))
                 for v in sorted(verts)}
    return (None if draw(st.integers(0, 3)) == 0 else dims), verts


@settings(max_examples=400, deadline=None)
@given(torus_vertex_sets())
@example(((3,), {(0,), (1,), (2,)}))                  # full ring
@example(((2, 1), {(0, 0), (1, 0)}))                  # ring of two
@example(((1, 4), {(0, 3), (0, 0)}))                  # across the seam
@example(((3,), {(0,), (1,), (5,)}))                  # full ring, unreduced
@example(((5,), {(-1,), (0,)}))                       # seam domino, unreduced
@example(((3,), {(0,), (3,)}))                        # one vertex twice mod 3
@example((None, {(0, 3), (0, 0)}))                    # gap on the grid
@example((None, {(-1, 2), (0, 2), (-1, 3), (0, 3)}))  # grid box, negative corner
@example((None, {(0, 0), (1, 1)}))                    # diagonal on the grid
def test_box_extents_match_brute_force(case):
    dims, verts = case
    spec = is_box(Shape.of(verts), dims)
    assert (spec and spec.extents) == _box_extents_by_brute_force(verts, dims)


# --------------------------------------------------------------------------
# The shift-based coverage, instantiate and partition paths against the
# per-vertex loops they replaced, kept here as references.
# --------------------------------------------------------------------------

def _coverage_by_component(inst):
    """Reference: each component's local map built from its own vertices,
    written in component order."""
    dims = inst.torus
    row_strides = strides(dims)
    offsets = _offset_ball(len(dims), inst.t, dims)
    comp_of = [-1] * inst.volume
    count_of = bytearray(inst.volume)
    multi = {}
    for cid, comp in enumerate(inst.components):
        local = {}
        for w in comp.vertices:
            for delta, d in offsets:
                flat = 0
                for a, b, dim, s in zip(w, delta, dims, row_strides):
                    flat += ((a + b) % dim) * s
                entry = local.get(flat)
                if entry is None:
                    local[flat] = [d, 1]
                elif d < entry[0]:
                    entry[0] = d
                    entry[1] = 1
                elif d == entry[0]:
                    entry[1] += 1
        for flat, (_, cnt) in local.items():
            if comp_of[flat] < 0:
                comp_of[flat] = cid
                count_of[flat] = min(cnt, 255)
            else:
                multi.setdefault(flat, [comp_of[flat]]).append(cid)
    return comp_of, count_of, multi


@st.composite
def translate_instances(draw):
    """Translates of one or two base shapes, in drawn (not canonical) order.

    Coordinates are left unreduced (in [-14, 14] on axes of 1-6), so
    translates straddle the seam and a base may hold one vertex twice mod
    the torus; a component may be repeated, and t reaches past d/2.
    """
    n = draw(st.integers(1, 2))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(n))
    point = st.tuples(*(st.integers(-7, 7) for _ in dims))
    bases = draw(st.lists(st.lists(point, min_size=1, max_size=3),
                          min_size=1, max_size=2))
    comps = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(point)
        comps.append(Shape.of(tuple(map(add, v, a)) for v in draw(st.sampled_from(bases))))
    if draw(st.booleans()):
        comps.insert(draw(st.integers(0, len(comps))), draw(st.sampled_from(comps)))
    t = draw(st.integers(0, max(dims)))
    return PDDSInstance(dims, t, BoxSpec((1,) * n), comps)


def _instance(dims, t, *comps):
    return PDDSInstance(dims, t, BoxSpec((1,) * len(dims)), [Shape.of(c) for c in comps])


def _coverage_examples(test):
    """The explicit instances the class-sharing tests always run."""
    for inst in (
        _instance((5, 4), 1, [(6, -1), (7, -1)], [(1, 3), (2, 3)]),   # unreduced
        _instance((5,), 1, [(0,), (1,)], [(3,)], [(0,), (1,)]),       # repeated
        _instance((3,), 1, [(0,), (3,)], [(1,), (4,)]),               # twice mod 3
        _instance((4, 3), 1, [(3, 0), (0, 0)], [(3, 2), (0, 2)]),     # across seam
        _instance((4, 4), 3, [(0, 0)], [(2, 1)], [(1, 3)]),           # t >= d/2
        _instance((6,), 1, [(0,), (1,)], [(2,)], [(3,), (4,)]),       # classes interleave
    ):
        test = example(inst)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(st.one_of(small_instances(), translate_instances()))
@_coverage_examples
def test_coverage_matches_per_component_reference(inst):
    assert coverage(inst) == _coverage_by_component(inst)


def _box_violations_by_component(inst):
    """Reference: the box check run on every component on its own."""
    want = tuple(sorted(inst.h_spec.extents))
    out = []
    for cid, comp in enumerate(inst.components):
        spec = is_box(comp, inst.torus)
        if spec is None:
            out.append(Violation(
                comp.vertices[0], "component_not_box",
                f"component {cid} ({len(comp)} vertices) does not induce an "
                f"axis-aligned box on the torus"))
        elif tuple(sorted(spec.extents)) != want:
            out.append(Violation(
                comp.vertices[0], "component_not_box",
                f"component {cid} is a box of extents {spec.extents}, not an "
                f"axis permutation of {inst.h_spec.extents}"))
    return out


@settings(max_examples=400, deadline=None)
@given(translate_instances())
@_coverage_examples
@example(_instance((5, 5), 1, [(0, 0), (1, 1)], [(0, 1)], [(2, 0), (3, 1)],
                   [(6, 2), (7, 3)]))                                  # non-box class of 3
# components 1 and 2 both start at (1, 1), but class 0 holds 0 and 2
@example(_instance((5, 5), 1, [(0, 0), (2, 2)], [(1, 1), (2, 2)], [(1, 1), (3, 3)]))
def test_box_check_per_class_matches_per_component_reference(inst):
    got = _box_violations(inst, _translation_classes(inst))
    assert got == _box_violations_by_component(inst)


def _instantiate_by_frozenset(con, dims):
    """Reference: every kernel translate of every component, deduplicated."""
    placed = set()
    for z in _kernel_elements(con.hom, dims):
        for comp in con.tile.components_by_id().values():
            placed.add(frozenset(
                tuple((a + b) % d for a, b, d in zip(v, z, dims)) for v in comp.vertices))
    return sorted((Shape.of(c, dim=len(dims)) for c in placed), key=lambda s: s.vertices)


SMALL_TORUS_CATALOG = [(name, con) for name, con in CATALOG
                       if period_volume(con) <= 20_000]


def test_instantiate_matches_frozenset_reference():
    assert len(SMALL_TORUS_CATALOG) >= 80
    for name, con in SMALL_TORUS_CATALOG:
        periods = torus_periods(con.hom)
        for m in (1, 2, 3):
            dims = tuple(d * m for d in periods)
            inst = instantiate_on_torus(con, dims)
            assert inst.components == _instantiate_by_frozenset(con, dims), (name, m)


def test_verify_partition_matches_per_vertex_reference():
    rng = random.Random(6006)
    verdicts = set()
    for name, con in SMALL_TORUS_CATALOG:
        inst = instantiate_on_torus(con)
        verts = con.tile.shape.vertices[:-1]
        short = Tile(Shape.of(verts, dim=inst.dim), {v: con.tile.labels[v] for v in verts})
        for tile in (con.tile, short, *(corrupt_tile(con.tile, rng) for _ in range(3))):
            got = verify_partition(inst, tile, con.hom)
            assert got == partition_by_vertex(inst, tile, con.hom), name
            verdicts.add(got)
    assert verdicts == {True, False}


def _bare_tile(verts):
    """A tile on verts, all labelled with one component: the partition
    checks read only the vertices."""
    shape = Shape.of(verts)
    return Tile(shape, {v: (0, shape.vertices[0]) for v in shape})


@pytest.mark.parametrize("name, extra", [("q3", (0,)), ("q3", (5,)), ("q3", (0, 0)),
                                         ("plc1(n=2, Z5)", (0,))])
def test_verify_partition_rejects_tile_of_other_dimension(name, extra):
    # Every vertex gets extra coordinates; the partition check used to
    # ignore them and answer True on the period torus.
    con = dict(CATALOG)[name]
    inst = period_instance(name)
    lifted = _bare_tile(v + extra for v in con.tile.shape.vertices)
    with pytest.raises(ValueError, match=f"vertex dim {inst.dim + len(extra)} != "
                                         f"homomorphism dim {inst.dim}"):
        verify_partition(inst, lifted, con.hom)
    with pytest.raises(ValueError):
        partition_by_vertex(inst, lifted, con.hom)


@st.composite
def partition_cases(draw):
    """A :func:`kernel_cases` homomorphism and torus, a tile of one torus
    vertex per syndrome the torus reaches, with one vertex moved by
    ``corrupt_tile`` in about half the cases, and whether the homomorphism
    is onto its group."""
    hom, dims = draw(kernel_cases())
    by_rank: dict[int, list] = {}
    vertices = itertools.product(*map(range, dims))
    for v, r in zip(vertices, syndrome_ranks(syndrome_columns(hom), dims)):
        by_rank.setdefault(r, []).append(v)
    tile = _bare_tile(draw(st.sampled_from(vs)) for _, vs in sorted(by_rank.items()))
    if draw(st.booleans()):
        tile = corrupt_tile(tile, draw(st.randoms(use_true_random=False)))
    return hom, dims, tile, len(by_rank) == hom.group.order


_Z5 = Homomorphism(AbelianGroup((5,)), ((1,), (2,)))
_Z6_EVEN = Homomorphism(AbelianGroup((6,)), ((2,),))


@settings(max_examples=200, deadline=None)
@given(partition_cases())
@example((_Z5, (5, 5), _bare_tile([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]), True))
@example((_Z5, (5, 5), _bare_tile([(0, 0), (2, 0), (0, 1), (1, 1), (2, 2)]), True))
@example((_Z6_EVEN, (6,), _bare_tile([(0,), (1,), (2,)]), False))   # not onto
def test_verify_partition_walk_and_bijection_agree_on_random_codes(case):
    # The translates of a transversal of a smaller image still partition
    # the torus, but no tile maps onto the group: verify_partition and
    # check_bijection answer the bijection, so both say False there.
    hom, dims, tile, onto = case
    inst = PDDSInstance(dims, 0, BoxSpec((1,) * len(dims)), [])
    got = verify_partition(inst, tile, hom)
    assert got == check_bijection(hom, tile.shape.vertices).ok
    assert got == (onto and partition_by_vertex(inst, tile, hom))


def test_wrong_dimension_component_raises_on_both_paths():
    # Neither verify path nor coverage can be handed such an instance:
    # making it raises.
    with pytest.raises(ValueError, match="component dimension differs"):
        PDDSInstance((5, 5), 1, BoxSpec((1, 1)), [Shape.of([(0, 0, 0)])])


_GOOD = [Shape.of([(0, 0)])]


@pytest.mark.parametrize("torus, h, components, match", [
    ((True, 5), (1, 1), _GOOD, "positive integers"),
    ((0, 5), (1, 1), _GOOD, "positive integers"),
    ((5.0, 5), (1, 1), _GOOD, "positive integers"),
    ((1_000_000, 1_000_000), (1, 1), _GOOD, "more than the verifier's limit"),
    ((5, 5), (1,), _GOOD, "box spec h has 1 axes, torus has 2"),
    ((5, 5), (1, 1), [Shape.of([], dim=2)], "empty component"),
    ((5, 5), (1, 1), [Shape.of([(0, 0, 0)])], "component dimension differs"),
])
def test_malformed_instance_is_refused_when_it_is_made(torus, h, components, match):
    with pytest.raises(ValueError, match=match):
        PDDSInstance(torus, 1, BoxSpec(h), components)
    blob = {"torus": list(torus), "t": 1, "h": {"extents": list(h)},
            "components": [[list(v) for v in c.vertices] for c in components]}
    with pytest.raises(ValueError):
        PDDSInstance.from_json(blob)


def test_instance_torus_is_a_tuple_and_the_instance_is_frozen():
    inst = PDDSInstance([4, 4], 1, BoxSpec((1, 1)), [Shape.of([(0, 0)])])
    assert inst.torus == (4, 4)
    with pytest.raises(AttributeError):
        inst.t = 2


@pytest.mark.parametrize("extents", [[1], [1, 1, 1]])
def test_instance_json_rejects_box_spec_of_other_dimension(extents):
    # [1] on plc1(n=2)'s 2-D torus used to load and fail with 5
    # component_not_box violations
    blob = instantiate_on_torus(plc_n1(2)).to_json()
    with pytest.raises(ValueError, match=f"box spec h has {len(extents)} axes, torus has 2"):
        PDDSInstance.from_json(dict(blob, h={"extents": extents}))


@pytest.mark.parametrize("extents", [[1], [1, 1, 1]])
def test_construction_json_rejects_box_spec_of_other_dimension(extents):
    # [1, 1, 1] on plc1(n=2)'s 2-D tile used to load, instantiate and fail
    # verification with component_not_box violations
    blob = plc_n1(2).to_json()
    with pytest.raises(ValueError, match=f"box spec h has {len(extents)} axes, tile has 2"):
        Construction.from_json(dict(blob, h={"extents": extents}))


def test_oversized_torus_is_rejected_before_allocating():
    # (10^6, 10^6) used to raise MemoryError out of coverage
    assert VERIFY_CAP < MAX_VOLUME
    # No over-cap instance can be made, so verify_pdds, coverage and
    # verify_partition never see one; instantiate_on_torus refuses the
    # torus before it builds a copy.
    huge = (1_000_000, 1_000_000)
    with pytest.raises(ValueError, match="more than the verifier's limit"):
        PDDSInstance(huge, 1, BoxSpec((1, 1)), [Shape.of([(0, 0)])])
    with pytest.raises(ValueError, match="more than the verifier's limit"):
        instantiate_on_torus(plc_n1(2), huge)


@st.composite
def ball_instances(draw):
    """One or two components on tori of up to four axes, where the Lee
    ball over the axes above 1 is smaller than 2t + 1 residues per axis."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    vertex = st.tuples(*(st.integers(0, d - 1) for d in dims))
    comps = [Shape.of(draw(st.lists(vertex, min_size=1, max_size=3)))
             for _ in range(draw(st.integers(1, 2)))]
    return PDDSInstance(dims, draw(st.integers(0, 4)), BoxSpec((1,) * len(dims)), comps)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_instances(), translate_instances(), ball_instances()))
def test_class_cell_bound_is_at_least_every_class_map(inst):
    # With the cap one below the largest class map, the bound checked
    # before any map is built must refuse the instance.
    largest = max(len(nearest_within(key, inst.t, inst.torus))
                  for key in _translation_classes(inst).keys)
    saved = verifier.MAX_CLASS_CELLS
    verifier.MAX_CLASS_CELLS = largest - 1
    try:
        with pytest.raises(ValueError, match="more than the verifier's limit"):
            _translation_classes(inst)
    finally:
        verifier.MAX_CLASS_CELLS = saved


def test_class_cell_cap_refuses_every_verify_path(monkeypatch):
    # One vertex on a ring reaches min(d, 2t + 1) cells within t.
    monkeypatch.setattr(verifier, "MAX_CLASS_CELLS", 512)
    one = [Shape.of([(0,)])]
    assert verify_pdds(PDDSInstance((512,), 256, BoxSpec((1,)), one)).passed
    inst = PDDSInstance((1024,), 256, BoxSpec((1,)), one)
    for call in (verify_pdds, coverage, _verify_by_scan):
        with pytest.raises(ValueError, match="may reach 513 torus cells"):
            call(inst)
