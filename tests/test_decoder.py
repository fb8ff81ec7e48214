import itertools
import random
from math import gcd, lcm
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from pdds.abelian import AbelianGroup, Homomorphism, torus_periods
from pdds.constructions import (
    Construction,
    Tile,
    nonlattice_p2_example,
    pdds1_path,
    pdds1_q3,
    pdds1_square,
    plc_n1,
)
from pdds.decoder import build_syndrome_table, decode
from pdds.lattice import Shape, lee_distance
from pdds.verifier import _kernel_elements, instantiate_on_torus
from group_oracle import phi_eval
from test_acceptance import CATALOG


def brute_nearest(inst, x):
    """(distance, device, component index) by scanning every set vertex."""
    best = None
    for ci, comp in enumerate(inst.components):
        for u in comp:
            d = lee_distance(x, u, inst.torus)
            key = (d, u, ci)
            if best is None or key < best:
                best = key
    return best


def test_table_size_and_build_validation():
    c = pdds1_q3()
    table = build_syndrome_table(c.tile, c.hom)
    assert len(table.entries) == 32
    bad_hom = Homomorphism(AbelianGroup((2, 4, 4)),
                           ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        build_syndrome_table(c.tile, bad_hom)


@pytest.mark.parametrize("ids", [(0, 1, 2, 7), (0, -1, 2, 3)])
def test_decode_reads_component_ids_as_ids_not_positions(ids):
    # Loaded nonlattice files with these valid ids used to decode (3, 0)
    # with an IndexError, and (1, 1) to the anchor (6, 0) instead of (0, 1).
    original = nonlattice_p2_example()
    blob = original.to_json()
    for entry in blob["tile"]["labels"]:
        entry["component"] = ids[entry["component"]]
    renumbered = Construction.from_json(blob)
    want = build_syndrome_table(original.tile, original.hom)
    got = build_syndrome_table(renumbered.tile, renumbered.hom)
    torus = itertools.product(*map(range, want.periods))
    for x in [*original.tile.shape.vertices, *torus]:
        assert decode(got, x) == decode(want, x), x


def test_trivial_group_single_vertex_tile():
    group = AbelianGroup(())
    hom = Homomorphism(group, ((), ()))
    tile = Tile(Shape.of([(0, 0)]), {(0, 0): (0, (0, 0))})
    table = build_syndrome_table(tile, hom)
    assert len(table.entries) == 1
    result = decode(table, (2, 1), torus=(3, 3))
    assert result.device == (2, 1)
    assert result.distance == 0


def test_q3_known_answers():
    c = pdds1_q3()
    table = build_syndrome_table(c.tile, c.hom)
    r = decode(table, (2, 0, 0))
    assert r.device == (1, 0, 0)
    assert r.distance == 1
    # a set vertex decodes to itself
    inst = instantiate_on_torus(c)
    for comp in inst.components:
        for u in comp:
            r = decode(table, u)
            assert r.device == u and r.distance == 0


def test_decode_matches_brute_force_exhaustively():
    for c in (pdds1_q3(), pdds1_square(0), nonlattice_p2_example(),
              pdds1_path(2, 3)):
        inst = instantiate_on_torus(c)
        table = build_syndrome_table(c.tile, c.hom)
        for x in itertools.product(*(range(d) for d in inst.torus)):
            r = decode(table, x)
            d, u, ci = brute_nearest(inst, x)
            assert r.distance == d, (c.h_spec, x)
            assert r.device == u, (c.h_spec, x)
            serving = inst.components[ci]
            assert r.component_anchor == serving.vertices[0], (c.h_spec, x)
            assert r.distance <= c.t


def test_decode_on_multiple_of_period_torus():
    c = plc_n1(2)
    table = build_syndrome_table(c.tile, c.hom)
    inst = instantiate_on_torus(c, (10, 10))
    for x in itertools.product(range(10), range(10)):
        r = decode(table, x, (10, 10))
        d, u, ci = brute_nearest(inst, x)
        assert (r.distance, r.device) == (d, u)


def test_translation_equivariance_under_kernel():
    c = pdds1_square(0)
    inst = instantiate_on_torus(c)
    table = build_syndrome_table(c.tile, c.hom)
    kernel = list(_kernel_elements(c.hom, inst.torus))
    assert len(kernel) == 2
    for x in itertools.product(*(range(d) for d in inst.torus)):
        base = decode(table, x)
        for z in kernel:
            shifted = decode(table, tuple(a + b for a, b in zip(x, z)))
            expect = tuple((a + b) % d
                           for a, b, d in zip(base.device, z, inst.torus))
            assert shifted.device == expect
            assert shifted.distance == base.distance


def test_decode_accepts_out_of_range_coordinates():
    c = plc_n1(2)
    table = build_syndrome_table(c.tile, c.hom)
    r1 = decode(table, (100, -63))
    r2 = decode(table, (100 % 5, -63 % 5))
    assert r1 == r2


def test_decode_validates_torus_and_vertex():
    c = pdds1_q3()
    table = build_syndrome_table(c.tile, c.hom)
    with pytest.raises(ValueError):
        decode(table, (0, 0, 0), (3, 4, 4))
    with pytest.raises(ValueError):
        decode(table, (0, 0))


def period_one_table():
    """A 1 x 5 column over Z5 with periods (1, 5), so (1, 5) is a valid
    torus and a check that took True for 1 would pass (True, 5)."""
    verts = [(0, y) for y in range(5)]
    tile = Tile(Shape.of(verts), {v: (0, v) for v in verts})
    return build_syndrome_table(tile, Homomorphism(AbelianGroup((5,)), ((0,), (1,))))


@pytest.mark.parametrize("torus", [(5.5, 5), (5, 10.0), (True, 5), (0, 5), (-5, 5)])
def test_decode_rejects_non_integer_torus(torus):
    # (5.5, 5) used to be truncated to the period torus and answered.  Each
    # bad torus comes after the same table has decoded a valid int torus,
    # the one equal to it where there is one, so nothing remembered from
    # that query may let it through; 0 and -5 leave no remainder.
    table = period_one_table()
    same = tuple(map(int, torus)) if min(torus) > 0 else (5, 5)
    row = 1 % same[0]
    assert decode(table, (1, 2), same) == ((row, 2), (row, 0), 0)
    with pytest.raises(ValueError, match="positive integers"):
        decode(table, (1, 2), torus)


def test_decode_on_a_torus_axis_of_10_to_the_30_periods():
    c = plc_n1(2)
    table = build_syndrome_table(c.tile, c.hom)
    torus = (5 * 10**30, 5)
    x = (10**30 + 7, -3)
    want, _ = LeeBallDecoder(c).decode(x, torus)
    assert tuple(decode(table, x, torus)) == want


@pytest.mark.parametrize("x", [(1.5, 2), (1, 2.0), (True, 2), ("1", 2)])
def test_decode_rejects_non_integer_vertex(x):
    # (1.5, 2) used to be answered as (1, 2)
    c = plc_n1(2)
    table = build_syndrome_table(c.tile, c.hom)
    with pytest.raises(ValueError, match="coordinates must be integers"):
        decode(table, x)


def test_decode_result_json():
    c = pdds1_q3()
    table = build_syndrome_table(c.tile, c.hom)
    blob = decode(table, (2, 0, 0)).to_json()
    assert blob == {"device": [1, 0, 0], "component_anchor": [0, 0, 0],
                    "distance": 1}


class LeeBallDecoder:
    """Nearest device found by scanning the Lee ball of radius t around x.

    Independent of the syndrome table: a torus vertex is in the dominating
    set exactly when the tile vertex with the same syndrome is its own
    device, and syndromes are recomputed here from the raw moduli and
    generator residues.  The serving component is grown from the device over
    set vertices adjacent on the torus.
    """

    def __init__(self, construction):
        self.moduli = construction.hom.group.moduli
        self.gens = construction.hom.generators
        self.t = construction.t
        self.periods = tuple(lcm(*(m // gcd(gj, m) for gj, m in zip(g, self.moduli)))
                             for g in self.gens)
        self.set_syndromes = {self.syndrome(v) for v, (_, dev)
                              in construction.tile.labels.items() if dev == v}
        n = len(self.gens)
        ball = [()]
        for _ in range(n):
            ball = [p + (c,) for p in ball
                    for c in range(-self.t + sum(map(abs, p)),
                                   self.t - sum(map(abs, p)) + 1)]
        self.ball = ball

    def syndrome(self, x):
        return tuple(sum(c * g[j] for c, g in zip(x, self.gens)) % m
                     for j, m in enumerate(self.moduli))

    def in_set(self, y):
        return self.syndrome(y) in self.set_syndromes

    def decode(self, x, dims):
        """((device, component_anchor, distance), component wraps an axis)."""
        xr = tuple(a % d for a, d in zip(x, dims))
        near = {tuple((a + b) % d for a, b, d in zip(xr, off, dims))
                for off in self.ball}
        hits = sorted((lee_distance(xr, y, dims), y) for y in near if self.in_set(y))
        assert hits, "no set vertex within distance t"
        assert len(hits) == 1 or hits[0][0] < hits[1][0], "nearest vertex is not unique"
        distance, device = hits[0]
        comp, frontier = {device}, [device]
        while frontier:
            v = frontier.pop()
            for i, d in enumerate(dims):
                for step in (1, -1):
                    w = v[:i] + ((v[i] + step) % d,) + v[i + 1:]
                    if w not in comp and self.in_set(w):
                        comp.add(w)
                        frontier.append(w)
        wraps = any(len({v[i] for v in comp}) < max(v[i] for v in comp)
                    - min(v[i] for v in comp) + 1 for i in range(len(dims)))
        return (device, min(comp), distance), wraps


def straddle_points(construction, brute, dims):
    """Set vertices whose component straddles the seam of some torus axis.

    For a tile vertex a whose right neighbour along axis i is in the same
    component, find a kernel element z with (a + z)_i = -1 mod d_i: then
    a + z reduces to d_i - 1 and its neighbour to 0.  z is c * e_i plus a
    combination w of the other axes with phi(w) = -c * g_i, found by a
    breadth-first walk over the group.
    """
    out = []
    for comp in construction.tile.components_by_id().values():
        members = set(comp.vertices)
        for a in comp.vertices:
            for i, d in enumerate(dims):
                if a[:i] + (a[i] + 1,) + a[i + 1:] not in members:
                    continue
                c = (-1 - a[i]) % d
                target = brute.syndrome(tuple(-c if j == i else 0
                                              for j in range(len(dims))))
                zero = (0,) * len(dims)
                reached = {brute.syndrome(zero): zero}
                frontier = [zero]
                while frontier and target not in reached:
                    nxt = []
                    for w in frontier:
                        for j in range(len(dims)):
                            if j == i:
                                continue
                            for step in (1, -1):
                                u = w[:j] + (w[j] + step,) + w[j + 1:]
                                if brute.syndrome(u) not in reached:
                                    reached[brute.syndrome(u)] = u
                                    nxt.append(u)
                    frontier = nxt
                if target in reached:
                    w = reached[target]
                    out.append(tuple(b + (c if j == i else 0) + aj
                                     for j, (aj, b) in enumerate(zip(a, w))))
                    break
            else:
                continue
            break
    return out


def test_decode_matches_lee_ball_on_every_catalog_entry():
    rng = random.Random(2012)
    straddled = set()
    for name, c in CATALOG:
        table = build_syndrome_table(c.tile, c.hom)
        brute = LeeBallDecoder(c)
        for mult in (1, 2, 3):
            torus = tuple(p * mult for p in brute.periods)
            for x in [tuple(rng.randint(-10**4, 10**4) for _ in torus)
                      for _ in range(8)]:
                want, _ = brute.decode(x, torus)
                got = decode(table, x, None if mult == 1 else torus)
                assert tuple(got) == want, (name, x, torus)
            for x in straddle_points(c, brute, torus):
                want, wraps = brute.decode(x, torus)
                assert wraps, (name, x, torus)
                got = decode(table, x, None if mult == 1 else torus)
                assert tuple(got) == want, (name, x, torus)
                straddled.add(name)
    assert len(CATALOG) == 100
    # A serving component that straddles the seam must be reduced before its
    # anchor is taken.  Aligned tilings such as box2xk never straddle; the
    # other entries with multi-vertex components do.
    assert len(straddled) >= 40, sorted(straddled)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_equals_lee_ball_property(data):
    name, c = data.draw(st.sampled_from(CATALOG))
    table = build_syndrome_table(c.tile, c.hom)
    brute = LeeBallDecoder(c)
    mults = data.draw(st.lists(st.integers(1, 3), min_size=c.hom.dim,
                               max_size=c.hom.dim))
    torus = tuple(p * k for p, k in zip(brute.periods, mults))
    x = tuple(data.draw(st.integers(-10**6, 10**6)) for _ in torus)
    want, _ = brute.decode(x, torus)
    assert tuple(decode(table, x, torus)) == want, (name, x, torus)


def test_non_bijective_tile_reports_witness():
    c = pdds1_q3()
    verts = list(c.tile.shape.vertices)
    # A copy of the first vertex shifted by a period shares its syndrome; the
    # last vertex is dropped so the tile still has |G| vertices.
    moved = tuple(verts[0][0] + 4 if i == 0 else a for i, a in enumerate(verts[0]))
    labels = {v: (0, v) for v in verts[1:]}
    labels[verts[0]] = labels[moved] = (0, verts[0])
    del labels[verts[-1]]
    collide = Tile(Shape.of(labels), labels)
    with pytest.raises(ValueError, match=r"collision=\(\(.*\)\)") as err:
        build_syndrome_table(collide, c.hom)
    assert str(verts[0]) in str(err.value) and str(moved) in str(err.value)
    short = {v: (0, v) for v in verts[:-1]}
    with pytest.raises(ValueError, match="not_surjective") as err:
        build_syndrome_table(Tile(Shape.of(short), short), c.hom)
    assert "missing=(" in str(err.value)


def test_distance_is_measured_on_the_given_torus():
    # A device three steps from its tile vertex on a period of 2: the
    # offset's length is 1 on the period torus but 3 on a torus of 6.
    tile = Tile(Shape.of([(0,), (3,)]), {(0,): (0, (0,)), (3,): (0, (0,))})
    table = build_syndrome_table(tile, Homomorphism(AbelianGroup((2,)), ((1,),)))
    assert decode(table, (3,)) == ((0,), (0,), 1)
    assert decode(table, (3,), (6,)) == ((0,), (0,), 3)


def test_every_table_entry_decodes_its_kernel_translates():
    # Each tile vertex v plus kernel elements z found without the table
    # (z = w - u, u the tile vertex with w's image under the reference
    # homomorphism) must decode to v's label shifted by z, on the period
    # torus and with the first axis doubled.  So every entry of all 100
    # tables is read, where whole-torus decoding reaches fewer entries.
    rng = random.Random(2020)
    checked = wrapped = 0
    for name, c in CATALOG:
        table = build_syndrome_table(c.tile, c.hom)
        periods = torus_periods(c.hom)
        preimage = {phi_eval(c.hom, u): u for u in c.tile.shape.vertices}
        kernel = []
        for _ in range(3):
            w = tuple(rng.randint(-3 * p, 3 * p) for p in periods)
            kernel.append(tuple(map(sub, w, preimage[phi_eval(c.hom, w)])))
        members = {cid: comp.vertices for cid, comp in c.tile.components_by_id().items()}
        for dims in (periods, (2 * periods[0],) + periods[1:]):
            for v in c.tile.shape.vertices:
                cid, device = c.tile.labels[v]
                distance = sum(min((a - b) % d, (b - a) % d)
                               for a, b, d in zip(device, v, dims))
                for z in kernel:
                    moved = [tuple((a + b) % d for a, b, d in zip(u, z, dims))
                             for u in members[cid]]
                    want = (moved[members[cid].index(device)], min(moved), distance)
                    got = decode(table, tuple(map(add, v, z)),
                                 None if dims == periods else dims)
                    assert got == want, (name, v, z, dims)
                    checked += 1
                    wrapped += min(moved) != moved[0]
    assert checked == 6 * sum(len(c.tile.shape) for _, c in CATALOG)
    # Translates that straddle a seam, whose anchor is not the moved corner
    # (641 with this seed).
    assert wrapped >= 500, wrapped


def t0_construction(vertices, moduli, generators):
    """A loaded t = 0 construction whose tile is one component."""
    dim = len(vertices[0])
    return Construction.from_json({
        "t": 0, "h": {"extents": [1] * dim},
        "hom": {"moduli": moduli, "generators": generators},
        "tile": {"dim": dim, "vertices": vertices,
                 "labels": [{"v": v, "component": 0, "device": v} for v in vertices]}})


@pytest.mark.parametrize("vertices, moduli, generators, tori", [
    # An L-shaped component: its runs give a 2 x 2 box it does not fill.
    ([[0, 0], [1, 0], [0, 1]], [3], [[1], [2]], [(3, 3), (6, 3), (3, 9)]),
    # A box whose extent equals its torus axis: a full ring on (2,).
    ([[0], [1]], [2], [[1]], [(2,), (4,)]),
])
def test_decode_anchor_is_the_least_reduced_vertex_of_the_component(
        vertices, moduli, generators, tori):
    c = t0_construction(vertices, moduli, generators)
    table = build_syndrome_table(c.tile, c.hom)
    preimage = {phi_eval(c.hom, u): u for u in c.tile.shape.vertices}
    for dims in tori:
        for x in itertools.product(*map(range, dims)):
            z = tuple(map(sub, x, preimage[phi_eval(c.hom, x)]))
            anchor = min(tuple((a + b) % d for a, b, d in zip(u, z, dims))
                         for u in c.tile.shape.vertices)
            got = decode(table, x, None if dims == table.periods else dims)
            assert got == (x, anchor, 0), (dims, x)
