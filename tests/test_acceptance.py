"""Acceptance suite: one test per published criterion, numbered 01-09.

Criterion 10 (lattice-quotient pins) is retired together with
``abelian.smith_quotient``, which no package code called.

Heavy sweeps honor explicit feasibility caps.  Some catalog codes live on
period tori far larger than any desk-scale budget (the worst is ~3*10^11
vertices), so full-torus work — instantiation, verification, decoding,
partition checks — runs only when the torus volume fits the cap for that
criterion; every skipped instance is reported through the warning system so
the run records exactly what was exercised.  Formula checks, bijection
checks, and generator-resolution pins never need a torus and always run in
full.
"""

import itertools
import random
import time
import warnings
from collections import Counter
from functools import lru_cache
from math import prod

from pdds.abelian import (
    check_bijection,
    enumerate_abelian_groups,
    syndrome_columns,
    syndrome_rank,
    torus_periods,
)
from pdds.constructions import (
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
from pdds.decoder import build_syndrome_table, decode
from pdds.lattice import (BoxSpec, Shape, _offset_ball, box_shape, is_box,
                          strides, t_neighborhood)
from pdds.search import SearchProblem, exact_cover_search

from group_oracle import phi_eval
from lattice_oracle import lattice_like_by_shift_search
from pdds.verifier import (
    _kernel_elements,
    _translation_classes,
    instantiate_on_torus,
    verify_partition,
    verify_pdds,
)

# Full-torus work caps, in torus vertices.  Instances over the cap are
# reported, not silently dropped.
VERIFY_CAP = 2_000_000
DECODE_CAP = 300_000
PARTITION_CAP = 100_000


def build_catalog():
    """The full published catalog: exactly the swept parameter ranges."""
    entries = []
    for n in range(2, 11):
        for group in enumerate_abelian_groups(2 * n + 1):
            entries.append((f"plc1(n={n}, {group})", plc_n1(n, group)))
    for n in range(2, 6):
        for k in range(1, 6):
            entries.append((f"path(n={n}, k={k})", pdds1_path(n, k)))
    for t in range(1, 5):
        for k in range(1, 5):
            for variant in ("single_copy", "two_copy"):
                entries.append((f"path2d(t={t}, k={k}, {variant})",
                                pdds_t_path_2d(t, k, variant)))
                entries.append((f"box2xk(t={t}, k={k}, {variant})",
                                pdds_t_box2xk_2d(t, k, variant)))
    for k in range(0, 3):
        entries.append((f"square(k={k})", pdds1_square(k)))
    entries.append(("q3", pdds1_q3()))
    entries.append(("minkowski", minkowski_p2()))
    entries.append(("nonlattice", nonlattice_p2_example()))
    return entries


CATALOG = build_catalog()


@lru_cache(maxsize=None)
def period_instance(name):
    """The catalog entry ``name`` on its period torus, instantiated once for
    every criterion that reads it (callers must not change it)."""
    return instantiate_on_torus(dict(CATALOG)[name])


def period_volume(construction):
    return prod(torus_periods(construction.hom))


def report_skips(criterion, skipped):
    if skipped:
        warnings.warn(
            f"{criterion}: torus work skipped for {len(skipped)} catalog "
            f"entries over the cap: {', '.join(skipped)}")


def tile_is_pdds_on_zn(tile, hom, t):
    """Oracle: do the tile's labels describe a t-PDDS on Z^n?

    The syndrome-class Lee-ball walk.  With the tile mapping bijectively
    onto the group, every grid vertex y is u + z for the tile vertex u of
    y's syndrome and a kernel element z.  For each tile vertex x, the
    translates (component of u, z) met in x's grid ball, for u a tile
    vertex labelled as its own device, must be exactly one, with a unique
    nearest vertex, and equal to x's label with z = 0.  The kernel
    translates of the tile cover Z^n, so the property then holds on all
    of Z^n.
    """
    verts = tile.shape.vertices
    if not check_bijection(hom, verts).ok:
        return False
    columns = syndrome_columns(hom)
    entry = {syndrome_rank(columns, v): v for v in verts}
    ball = _offset_ball(tile.shape.dim, t, None)
    for x, label in tile.labels.items():
        near = {}       # (component, z) -> [distance, count, nearest vertex]
        for delta, d in ball:
            y = tuple(a + b for a, b in zip(x, delta))
            u = entry[syndrome_rank(columns, y)]
            cid, dev = tile.labels[u]
            if dev != u:
                continue
            key = (cid, tuple(a - b for a, b in zip(y, u)))
            best = near.get(key)
            if best is None or d < best[0]:
                near[key] = [d, 1, u]
            elif d == best[0]:
                best[1] += 1
        if len(near) != 1:
            return False
        [((cid, z), (_, count, u))] = near.items()
        if count != 1 or any(z) or (cid, u) != label:
            return False
    return True


def test_criterion_01_catalog_validity_sweep():
    started = time.perf_counter()
    assert len(CATALOG) == 100
    skipped = []
    verified = 0
    on_zn = 0
    for name, con in CATALOG:
        res = check_bijection(con.hom, con.tile.shape.vertices)
        assert res.ok, (name, res)
        # The paper's claim, on Z^n (the load check runs on every entry in
        # test_construction_json_accepts_every_catalog_tile).
        assert tile_is_pdds_on_zn(con.tile, con.hom, con.t), name
        on_zn += 1
        if period_volume(con) > VERIFY_CAP:
            skipped.append(name)
            continue
        inst = period_instance(name)
        report = verify_pdds(inst)
        assert report.passed, (name, report.to_json()["violations"][:3])
        verified += 1
    report_skips("criterion 1", skipped)
    warnings.warn(f"criterion 1: {on_zn} of {len(CATALOG)} entries checked on Z^n")
    elapsed = time.perf_counter() - started
    warnings.warn(f"criterion 1: {verified} instances verified, "
                  f"{len(skipped)} skipped, {elapsed:.1f}s")
    assert verified + len(skipped) == 100


def test_criterion_02_published_value_pins():
    q3 = pdds1_q3()
    assert phi_eval(q3.hom, (2, 0, 0)) == (0, 2, 2)
    assert phi_eval(q3.hom, (1, 1, 1)) == (1, 0, 0)
    path23 = pdds1_path(2, 3)
    assert path23.hom.group.order == 11
    assert path23.hom.generators == ((1,), (4,))
    square0 = pdds1_square(0)
    assert square0.hom.group.order == 12
    assert square0.hom.generators == ((2,), (3,))
    two = pdds_t_path_2d(2, 3, "two_copy")
    assert two.hom.group.order == 46
    assert two.hom.generators == ((9,), (1,))
    box21 = pdds_t_box2xk_2d(2, 1, "two_copy")
    assert box21.hom.group.moduli == (6, 6)
    mink = minkowski_p2()
    assert mink.hom.group.moduli == (38,)
    assert mink.hom.generators == ((1,), (11,), (7,))


def test_criterion_03_neighborhood_size_formulas():
    for t in range(1, 6):
        for k in range(1, 6):
            path = box_shape(BoxSpec((k, 1)))
            assert len(t_neighborhood(path, t)) == 2 * t * t + 2 * t * k + k
            box = box_shape(BoxSpec((2, k)))
            assert len(t_neighborhood(box, t)) == (
                2 * t * t + 2 * t * k + 2 * t + 2 * k)
    for n in range(2, 9):
        point = box_shape(BoxSpec((1,) * n))
        assert len(t_neighborhood(point, 1)) == 2 * n + 1
    for k in range(0, 3):
        n = 3 * k + 2
        sq = box_shape(BoxSpec((2, 2) + (1,) * (n - 2)))
        assert len(t_neighborhood(sq, 1)) == 24 * k + 12
    cube = box_shape(BoxSpec((2, 2, 2)))
    assert len(t_neighborhood(cube, 1)) == 32
    edge = box_shape(BoxSpec((2, 1, 1)))
    assert len(t_neighborhood(edge, 2)) == 38


def test_criterion_04_lattice_likeness():
    # Every entry but nonlattice is a lattice of translates of one component,
    # the two-copy tiles included: decided from the tile for all 100 entries.
    # On each period torus under the cap the instance oracle agrees, and so
    # does "exactly one translation class", however translates wrap the seam.
    skipped = []
    compared = 0
    for name, con in CATALOG:
        assert con.lattice_like == (name != "nonlattice"), name
        if period_volume(con) > VERIFY_CAP:
            skipped.append(name)
            continue
        inst = period_instance(name)
        assert lattice_like_by_shift_search(inst) == con.lattice_like, name
        assert (len(_translation_classes(inst).keys) == 1) == con.lattice_like, name
        compared += 1
    warnings.warn(f"criterion 4: {len(CATALOG)} entries decided from the tile, "
                  f"{compared} compared with the instance oracle on their period "
                  f"tori, {len(skipped)} skipped over the cap: {', '.join(skipped)}")
    assert len(CATALOG) == 100 and compared >= 90
    inst = period_instance("nonlattice")
    assert inst.torus == (8, 8)
    extents = {is_box(comp).extents
               for comp in nonlattice_p2_example().tile.components_by_id().values()}
    assert (2, 1) in extents and (1, 2) in extents


def test_criterion_05_decoder_matches_brute_scan():
    started = time.perf_counter()
    skipped = []
    decoded = 0
    for name, con in CATALOG:
        if period_volume(con) > DECODE_CAP:
            skipped.append(name)
            continue
        inst = period_instance(name)
        dims = inst.torus
        table = build_syndrome_table(con.tile, con.hom)
        strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        serving = [-1] * inst.volume
        for ci, comp in enumerate(inst.components):
            for u in t_neighborhood(comp, inst.t, dims):
                flat = sum(c * s for c, s in zip(u, strides))
                assert serving[flat] == -1, name
                serving[flat] = ci
        flat = 0
        for x in itertools.product(*(range(d) for d in dims)):
            ci = serving[flat]
            flat += 1
            assert ci >= 0, name
            comp = inst.components[ci]
            best, device, ties = None, None, 0
            for u in comp.vertices:
                d = sum(min((a - b) % m, (b - a) % m) for a, b, m in zip(x, u, dims))
                if best is None or d < best:
                    best, device, ties = d, u, 1
                elif d == best:
                    ties += 1
            assert ties == 1, name
            got = decode(table, x)
            assert got.distance == best, (name, x)
            assert got.device == device, (name, x)
            assert got.component_anchor == comp.vertices[0], (name, x)
        decoded += 1
    report_skips("criterion 5", skipped)
    elapsed = time.perf_counter() - started
    warnings.warn(f"criterion 5: {decoded} instances decoded in full, "
                  f"{len(skipped)} skipped, {elapsed:.1f}s")
    assert decoded >= 85


def corrupt_tile(tile, rng):
    """Move one random tile vertex by a random nonzero small offset."""
    verts = list(tile.shape)
    i = rng.randrange(len(verts))
    while True:
        offset = tuple(rng.randint(-2, 2) for _ in verts[i])
        if any(offset):
            break
    verts[i] = tuple(a + b for a, b in zip(verts[i], offset))
    shape = Shape.of(verts)
    anchor = shape.vertices[0]
    labels = {u: tile.labels.get(u, (0, anchor)) for u in shape}
    return Tile(shape, labels)


def partition_by_vertex(inst, tile, hom):
    """Oracle: do the tile's kernel-translates partition the torus?

    Walks every translate one vertex at a time over a per-torus-vertex
    array.  A tile vertex of another dimension than the torus raises
    ValueError.
    """
    dims = inst.torus
    tile_verts = tile.shape.vertices
    if not tile_verts or inst.volume % len(tile_verts):
        return False
    row_strides = strides(dims)
    covered = bytearray(inst.volume)
    total = 0
    for z in _kernel_elements(hom, dims):
        for v in tile_verts:
            flat = 0
            for a, b, dim, s in zip(v, z, dims, row_strides, strict=True):
                flat += ((a + b) % dim) * s
            if covered[flat]:
                return False
            covered[flat] = 1
            total += 1
    return total == inst.volume


def test_criterion_06_partition_iff_bijection():
    rng = random.Random(20260819)
    corruptions = 0
    skipped = []
    for name, con in CATALOG:
        if period_volume(con) > PARTITION_CAP:
            skipped.append(name)
            continue
        inst = period_instance(name)
        assert partition_by_vertex(inst, con.tile, con.hom), name
        assert check_bijection(con.hom, con.tile.shape.vertices).ok, name
        assert verify_partition(inst, con.tile, con.hom), name
        for _ in range(2):
            bent = corrupt_tile(con.tile, rng)
            agrees = (partition_by_vertex(inst, bent, con.hom)
                      == check_bijection(con.hom, bent.shape.vertices).ok
                      == verify_partition(inst, bent, con.hom))
            assert agrees, name
            corruptions += 1
    report_skips("criterion 6", skipped)
    warnings.warn(f"criterion 6: {corruptions} randomized corruptions checked")
    assert corruptions >= 100


def test_criterion_07_search_nonexistence_sweep():
    started = time.perf_counter()
    decided_by = Counter()
    for a in range(5, 11):
        for b in range(5, 11):
            result = exact_cover_search(
                SearchProblem((a, b), 1, BoxSpec((3, 3))))
            assert result.outcome == "exhausted", (a, b)
            decided_by[result.stats["decided_by"]] += 1
    found = exact_cover_search(SearchProblem((5, 5), 1, BoxSpec((1, 1))))
    assert found.outcome == "found"
    assert verify_pdds(found.instance).passed
    elapsed = time.perf_counter() - started
    # 21 does not divide the volume of 32 of the 36 tori
    assert decided_by == {"divisibility": 32, "search": 4}
    warnings.warn(
        f"criterion 7: 36 tori exhausted ({decided_by['divisibility']} by the "
        f"divisibility shortcut, {decided_by['search']} by search) + 1 found, "
        f"{elapsed:.1f}s")


def test_criterion_08_group_count_and_distinct_periods():
    groups = enumerate_abelian_groups(9)
    assert len(groups) == 2
    codes = [plc_n1(4, g) for g in groups]
    periods = [torus_periods(c.hom) for c in codes]
    assert periods[0] != periods[1]
    for code in codes:
        assert verify_pdds(instantiate_on_torus(code)).passed


def test_criterion_09_generator_resolution_regression():
    for t in range(1, 5):
        for k in range(1, 5):
            single = pdds_t_path_2d(t, k, "single_copy")
            assert single.hom.generators == ((1,), (2 * t + 1,)), (t, k)
            assert check_bijection(single.hom,
                                   single.tile.shape.vertices).ok, (t, k)
    frozen = {
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
    for (t, k), (moduli, gens) in frozen.items():
        c = pdds_t_box2xk_2d(t, k, "single_copy")
        assert c.hom.group.moduli == moduli, (t, k)
        assert c.hom.generators == gens, (t, k)
        assert check_bijection(c.hom, c.tile.shape.vertices).ok, (t, k)
