import itertools
import random
import time
import tracemalloc
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from pdds.abelian import (
    AbelianGroup,
    BijectionResult,
    Homomorphism,
    check_bijection,
    enumerate_abelian_groups,
    molnar_k_set,
    syndrome_columns,
    syndrome_rank,
    syndrome_ranks,
    torus_periods,
)
from pdds.constructions import pdds1_q3
from pdds.lattice import MAX_VOLUME, strides, unflatten

from group_oracle import add, invariant_factors, phi_eval, prime_exponents, scale


def _rank(group, a):
    """Mixed-radix rank of a group element: its residues dotted with the
    row-major strides of the moduli."""
    return sum(map(mul, a, strides(group.moduli)))


def test_group_arithmetic_exhaustive_z2xz4():
    g = AbelianGroup((2, 4))
    assert g.order == 8
    els = list(g.elements())
    assert len(els) == 8 and len(set(els)) == 8
    for a in els:
        assert add(g, a, g.neg(a)) == g.identity()
        assert unflatten(_rank(g, a), g.moduli) == a
        for b in els:
            assert add(g, a, b) == add(g, b, a)
    # ranks enumerate 0..7 in the same order as elements()
    assert [_rank(g, a) for a in els] == list(range(8))


@pytest.mark.parametrize("moduli", [(5.7,), (5.0,), (True,), (3, "4")])
def test_group_rejects_non_integer_moduli(moduli):
    # (5.7,) used to become Z5
    with pytest.raises(ValueError, match="positive integers"):
        AbelianGroup(moduli)


def test_scale_matches_repeated_addition():
    g = AbelianGroup((6,))
    x = (5,)
    acc = g.identity()
    for k in range(1, 20):
        acc = add(g, acc, x)
        assert scale(g, k, x) == acc
    assert scale(g, -1, x) == g.neg(x)
    assert scale(g, 0, x) == g.identity()


def test_element_order():
    g = AbelianGroup((12,))
    assert g.element_order((1,)) == 12
    assert g.element_order((8,)) == 3
    assert g.element_order((0,)) == 1
    h = AbelianGroup((2, 4))
    assert h.element_order((1, 2)) == 2
    assert h.element_order((1, 1)) == 4


def test_canonical_invariant_factors():
    assert invariant_factors((6, 4)) == (2, 12)
    assert invariant_factors((3, 2)) == (6,)
    assert invariant_factors((1, 5, 1)) == (5,)
    # same multiset of primary components, different presentations
    assert invariant_factors((8, 9, 5)) == invariant_factors((5, 9, 8)) == (360,)


def test_str_form():
    assert str(AbelianGroup((2, 4))) == "Z2 x Z4"
    assert str(AbelianGroup((38,))) == "Z38"


def test_enumerate_abelian_groups():
    assert [g.moduli for g in enumerate_abelian_groups(9)] == [(9,), (3, 3)]
    assert [g.moduli for g in enumerate_abelian_groups(12)] == [(12,), (2, 6)]
    assert len(enumerate_abelian_groups(5)) == 1
    assert len(enumerate_abelian_groups(16)) == 5
    # counts are multiplicative over prime powers
    assert len(enumerate_abelian_groups(72)) == 6   # 8 -> 3 partitions, 9 -> 2
    for g in enumerate_abelian_groups(72):
        assert g.order == 72


def _partitions_largest_first(n, most):
    """Partitions of n into parts of at most ``most``, as non-increasing
    tuples, the largest first part first."""
    if n == 0:
        yield ()
    for first in range(min(n, most), 0, -1):
        for rest in _partitions_largest_first(n - first, first):
            yield (first,) + rest


def _groups_by_oracle(m):
    """enumerate_abelian_groups(m)'s moduli: per prime p^a, the prime
    powers of each partition of a, combined across primes in product
    order and rewritten by the invariant-factor oracle."""
    per_prime = [[tuple(p ** e for e in part) for part in _partitions_largest_first(a, a)]
                 for p, a in sorted(prime_exponents(m).items())]
    return [invariant_factors(itertools.chain.from_iterable(choice))
            for choice in itertools.product(*per_prime)]


def test_enumerate_abelian_groups_matches_the_invariant_factor_oracle():
    for m in [*range(1, 2001), 2 ** 24, 3 ** 12, 2 ** 8 * 3 ** 5 * 5 ** 2]:
        got = [g.moduli for g in enumerate_abelian_groups(m)]
        assert got == _groups_by_oracle(m), m


def test_enumerate_abelian_groups_up_to_the_volume_cap_at_once():
    # the 1,575 partitions of the exponent 24 took 5.6 s unmemoised; no
    # verifiable tile has a group above MAX_VOLUME
    started = time.perf_counter()
    groups = enumerate_abelian_groups(MAX_VOLUME)
    assert time.perf_counter() - started < 1
    assert len(groups) == 1575
    assert groups[0].moduli == (MAX_VOLUME,) and groups[-1].moduli == (2,) * 24
    for m in (0, MAX_VOLUME + 1):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_VOLUME}"):
            enumerate_abelian_groups(m)


def test_homomorphism_eval_and_kernel():
    g = AbelianGroup((13,))
    hom = Homomorphism(g, ((1,), (5,)))
    assert phi_eval(hom, (0, 0)) == (0,)
    assert phi_eval(hom, (3, 2)) == (0,)
    assert phi_eval(hom, (-2, 3)) == (0,)
    assert phi_eval(hom, (1, 1)) == (6,)


def test_syndrome_rank_is_the_rank_of_phi():
    rng = random.Random(3011)
    for _ in range(200):
        group = AbelianGroup(tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 3))))
        n = rng.randint(1, 3)
        hom = Homomorphism(group, tuple(
            tuple(rng.randrange(m) for m in group.moduli) for _ in range(n)))
        columns = syndrome_columns(hom)
        for _ in range(5):
            x = tuple(rng.randint(-50, 50) for _ in range(n))
            assert syndrome_rank(columns, x) == _rank(group, phi_eval(hom, x))
        dims = tuple(rng.randint(1, 5) for _ in range(n))
        assert syndrome_ranks(columns, dims) == [
            syndrome_rank(columns, v) for v in itertools.product(*map(range, dims))]


def test_homomorphism_json_round_trip():
    hom = Homomorphism(AbelianGroup((2, 4, 4)), ((1, 3, 3), (0, 1, 0), (0, 0, 1)))
    again = Homomorphism.from_json(hom.to_json())
    assert again == hom


@pytest.mark.parametrize("residue", [1.9, 2.0, True, "1"])
def test_homomorphism_rejects_non_integer_residues(residue):
    # [1.9] used to become 1, and the construction then verified
    with pytest.raises(ValueError, match="residues must be integers"):
        Homomorphism.from_json({"moduli": [5], "generators": [[1], [residue]]})


def test_check_bijection_ok_on_lee_ball():
    # radius-2 Lee ball (13 cells) against Z13 with generator images 1, 5
    ball = sorted({(x, y) for x in range(-2, 3) for y in range(-2, 3)
                   if abs(x) + abs(y) <= 2})
    hom = Homomorphism(AbelianGroup((13,)), ((1,), (5,)))
    res = check_bijection(hom, ball)
    assert res.ok and res.status == "ok"


def test_check_bijection_collision_and_missing():
    hom = Homomorphism(AbelianGroup((4,)), ((1,),))
    collision = check_bijection(hom, [(0,), (4,), (1,), (2,)])
    assert not collision.ok
    assert collision.status == "collision"
    assert collision.collision == ((0,), (4,))
    short = check_bijection(hom, [(0,), (1,), (2,)])
    assert short.status == "not_surjective"
    assert short.missing == (3,)


def reference_bijection(hom, vertices):
    """check_bijection as it was first written: phi_eval images in a dict."""
    g = hom.group
    seen = {}
    for v in sorted(tuple(p) for p in vertices):
        img = phi_eval(hom, v)
        if img in seen:
            return BijectionResult("collision", collision=(seen[img], v))
        seen[img] = v
    if len(seen) == g.order:
        return BijectionResult("ok")
    return BijectionResult("not_surjective",
                           missing=next(e for e in g.elements() if e not in seen))


@st.composite
def homomorphisms_and_vertices(draw):
    """A random homomorphism with a vertex list that may or may not tile.

    Half the lists are one preimage per image (found by a walk over the
    grid), so bijections are common when the map is onto; the others are
    arbitrary small vertices.  Either kind may be cut short, and up to two
    vertices may gain a period-shifted copy, which shares their image.
    """
    moduli = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    n = draw(st.integers(1, 3))
    gens = tuple(tuple(draw(st.integers(0, m - 1)) for m in moduli) for _ in range(n))
    hom = Homomorphism(AbelianGroup(moduli), gens)
    periods = torus_periods(hom)
    if draw(st.booleans()):
        first = {phi_eval(hom, (0,) * n): (0,) * n}
        frontier = [(0,) * n]
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(n):
                    for s in (1, -1):
                        u = v[:i] + (v[i] + s,) + v[i + 1:]
                        img = phi_eval(hom, u)
                        if img not in first:
                            first[img] = u
                            nxt.append(u)
            frontier = nxt
        verts = [tuple(c + p * draw(st.integers(-1, 1)) for c, p in zip(v, periods))
                 for v in first.values()]
    else:
        verts = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n),
                              max_size=hom.group.order + 2))
    if draw(st.booleans()):
        verts = verts[:draw(st.integers(len(verts) - 2, len(verts)))]
    if verts and draw(st.booleans()):
        for v in draw(st.lists(st.sampled_from(verts), min_size=1, max_size=2)):
            i = draw(st.integers(0, n - 1))
            verts.append(v[:i] + (v[i] + periods[i] * draw(st.sampled_from((-1, 1))),)
                         + v[i + 1:])
    return hom, verts


@settings(max_examples=400, deadline=None)
@given(homomorphisms_and_vertices())
def test_check_bijection_matches_phi_eval_reference(case):
    hom, verts = case
    assert check_bijection(hom, verts) == reference_bijection(hom, verts)
    # Sorted first, so the scan reaches it before any collision.
    wrong = verts + [(-10**6,) * (hom.dim + 1)]
    with pytest.raises(ValueError, match="vertex dim"):
        check_bijection(hom, wrong)


def test_check_bijection_memory_follows_the_vertices():
    # q3's tile against its group with one modulus raised to 2**24: a list
    # per group element used to take about 1 GB to say not_surjective.
    con = pdds1_q3()
    hom = Homomorphism(AbelianGroup((2**24,) + con.hom.group.moduli[1:]),
                       con.hom.generators)
    verts = list(con.tile.shape.vertices)
    tracemalloc.start()
    try:
        res = check_bijection(hom, verts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert res.status == "not_surjective"
    assert res == reference_bijection(hom, verts)


def test_torus_periods():
    hom = Homomorphism(AbelianGroup((13,)), ((1,), (5,)))
    assert torus_periods(hom) == (13, 13)
    hom2 = Homomorphism(AbelianGroup((2, 4, 4)), ((1, 3, 3), (0, 1, 0), (0, 0, 1)))
    assert torus_periods(hom2) == (4, 4, 4)
    hom3 = Homomorphism(AbelianGroup((12,)), ((2,), (3,)))
    assert torus_periods(hom3) == (6, 4)


def test_molnar_k_set_cyclic():
    g = AbelianGroup((9,))
    k = molnar_k_set(g)
    assert k == ((1,), (2,), (3,), (4,))
    # one element of each +/- pair, never both
    chosen = set(k)
    for x in chosen:
        assert g.neg(x) not in chosen or g.neg(x) == x


def test_molnar_k_set_noncyclic_and_errors():
    g = AbelianGroup((3, 3))
    k = molnar_k_set(g)
    assert len(k) == 4
    seen = set(k) | {g.neg(x) for x in k}
    assert len(seen) == 8 and g.identity() not in seen
    with pytest.raises(ValueError):
        molnar_k_set(AbelianGroup((8,)))
