"""Finite abelian groups, grid homomorphisms, and integer quotients.

A finite abelian group is represented as a product of cyclic groups
``Z_{m_1} x ... x Z_{m_r}`` with elements stored as reduced residue tuples.
A homomorphism from the grid ``Z^n`` into such a group is determined by the
images of the standard basis vectors; evaluating it at a vertex is a
residue-weighted sum of those generators.

The central test this module provides is :func:`check_bijection`: whether a
homomorphism restricted to a finite vertex set hits every group element
exactly once.  When the vertex set is a candidate tile, that bijection is
exactly the algebraic condition for the tile's translates under the
homomorphism's kernel to partition the grid.

:func:`enumerate_abelian_groups` lists the isomorphism classes of a given
order in invariant-factor canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import count, product, zip_longest
from math import gcd, lcm, prod
from operator import mod, mul
from typing import Iterator, Optional, Sequence

from .lattice import (MAX_VOLUME, Point, TorusDims, check_torus, is_int,
                      unflatten)

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroup:
    """Product of cyclic groups given by positive moduli.

    Moduli of 1 are legal (trivial factors).  :func:`enumerate_abelian_groups`
    builds its groups in invariant-factor form ``d_1 | d_2 | ... | d_r``.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(self.moduli))
        if not all(is_int(m) and m >= 1 for m in self.moduli):
            raise ValueError(f"moduli must be positive integers, got {self.moduli}")

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def identity(self) -> GroupElement:
        return (0,) * len(self.moduli)

    def reduce(self, a: Sequence[int]) -> GroupElement:
        if len(a) != len(self.moduli):
            raise ValueError(f"element has {len(a)} residues, group rank is {len(self.moduli)}")
        if not all(map(is_int, a)):
            raise ValueError(f"residues must be integers, got {tuple(a)!r}")
        return tuple(x % m for x, m in zip(a, self.moduli))

    def neg(self, a: GroupElement) -> GroupElement:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def elements(self) -> Iterator[GroupElement]:
        """All elements in lexicographic residue order."""
        return product(*map(range, self.moduli))

    def element_order(self, a: GroupElement) -> int:
        return lcm(1, *(m // gcd(x, m) for x, m in zip(a, self.moduli)))

    def __str__(self) -> str:
        if not self.moduli:
            return "Z1"
        return " x ".join(f"Z{m}" for m in self.moduli)


@dataclass(frozen=True)
class Homomorphism:
    """Grid homomorphism Z^n -> G fixed by the images of e_1 ... e_n."""

    group: AbelianGroup
    generators: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "generators",
            tuple(self.group.reduce(g) for g in self.generators))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def to_json(self) -> dict:
        return {"moduli": list(self.group.moduli),
                "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, obj: dict) -> "Homomorphism":
        return cls(AbelianGroup(tuple(obj["moduli"])),
                   tuple(tuple(g) for g in obj["generators"]))


SyndromeColumns = tuple[tuple[int, tuple[int, ...]], ...]


def syndrome_columns(hom: Homomorphism) -> SyndromeColumns:
    """Each cyclic factor's modulus with the generators' residues in it.

    Factor j's residue of phi(x) is ``dot(x, column_j) % modulus_j``, which
    is what lets :func:`syndrome_rank` rank a vertex with one dot product
    per factor.
    """
    return tuple((m, tuple(g[j] for g in hom.generators))
                 for j, m in enumerate(hom.group.moduli))


def syndrome_rank(columns: SyndromeColumns, x: Sequence[int]) -> int:
    """Mixed-radix rank of phi(x), the residue-weighted sum of the
    generators at x: its residues dotted with ``lattice.strides`` of the
    moduli, so ``lattice.unflatten`` inverts it.

    ``columns`` is :func:`syndrome_columns` of the homomorphism and x must
    have one coordinate per generator.

    >>> h = Homomorphism(AbelianGroup((2, 3)), ((1, 1), (0, 2)))
    >>> syndrome_rank(syndrome_columns(h), (1, 1))
    3
    """
    rank = 0
    for m, col in columns:
        rank = rank * m + sum(map(mul, x, col)) % m
    return rank


def syndrome_ranks(columns: SyndromeColumns, dims: Sequence[int]) -> list[int]:
    """:func:`syndrome_rank` of every vertex of a torus, in row-major order.

    Built per cyclic factor, one axis at a time: each residue over the
    first i axes is extended by every value of axis i, so a pass is one
    list comprehension and no vertex tuple is built.

    >>> h = Homomorphism(AbelianGroup((2, 3)), ((1, 1), (0, 2)))
    >>> syndrome_ranks(syndrome_columns(h), (2, 2))
    [0, 2, 4, 3]
    """
    ranks = [0] * prod(dims)
    for m, col in columns:
        residues = [0]
        for c, d in zip(col, dims):
            steps = [x * c % m for x in range(d)]
            residues = [(r + s) % m for r in residues for s in steps]
        ranks = [rank * m + r for rank, r in zip(ranks, residues)]
    return ranks


@dataclass(frozen=True)
class BijectionResult:
    """Outcome of check_bijection.

    status is "ok", "collision" (with the first colliding vertex pair in
    canonical scan order), or "not_surjective" (with the first missing group
    element in lexicographic residue order).  ``vertex_of_rank`` maps each
    rank the scan met to its vertex, so it holds every rank of the group
    when the result is ok; it is left out of repr and equality.
    """

    status: str
    collision: Optional[tuple[Point, Point]] = None
    missing: Optional[GroupElement] = None
    vertex_of_rank: dict[int, Point] = field(default_factory=dict, repr=False,
                                             compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check_bijection(hom: Homomorphism, vertices: Sequence[Point]) -> BijectionResult:
    """Test whether the homomorphism restricted to a vertex set is a bijection onto the group.

    The scan runs in canonical (lexicographically sorted) vertex order, so
    the collision witness is deterministic: the reported pair is the earlier
    preimage together with the first vertex that repeats an image.  Each
    vertex is placed by its :func:`syndrome_rank`; the first rank left empty
    is the missing element.  A vertex of the wrong dimension raises
    ValueError.

    >>> G = AbelianGroup((5,))
    >>> h = Homomorphism(G, ((1,), (2,)))
    >>> check_bijection(h, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]).ok
    True
    >>> check_bijection(h, [(0, 0), (2, 0), (0, 1), (1, 1), (2, 2)]).status
    'collision'
    """
    columns = syndrome_columns(hom)
    # Ranks met so far, so memory follows the vertices, not the group order
    # a file may give; the least rank missing is at most their number.
    seen: dict[int, Point] = {}
    dim = hom.dim
    for v in sorted(map(tuple, vertices)):
        if len(v) != dim:
            raise ValueError(f"vertex dim {len(v)} != homomorphism dim {dim}")
        r = syndrome_rank(columns, v)
        if r in seen:
            return BijectionResult("collision", collision=(seen[r], v),
                                   vertex_of_rank=seen)
        seen[r] = v
    if len(seen) < hom.group.order:
        missing = next(r for r in count() if r not in seen)
        return BijectionResult("not_surjective",
                               missing=unflatten(missing, hom.group.moduli),
                               vertex_of_rank=seen)
    return BijectionResult("ok", vertex_of_rank=seen)


def torus_periods(hom: Homomorphism) -> TorusDims:
    """Per-axis element orders: the smallest torus the homomorphism descends to.

    Axis i of the returned tuple is the order of the image of e_i, i.e. the
    least positive d with d * g_i = 0.  The homomorphism is well defined on
    any torus whose dims are positive multiples of these.
    """
    return tuple(hom.group.element_order(g) for g in hom.generators)


def check_periods(periods: TorusDims, dims: Sequence[int]) -> TorusDims:
    """Torus dims (checked by ``check_torus``) that are multiples of the periods.

    ``periods`` is :func:`torus_periods` of a homomorphism.  Axis i
    satisfies d_i * g_i = 0 exactly when the order of g_i divides d_i, so
    this is the condition for the homomorphism to descend to the torus.
    Raises ValueError naming the first failing axis and the periods.

    >>> check_periods((4, 2), (8, 2))
    (8, 2)
    """
    dims = tuple(dims)
    # One set of types, a positive least axis and no remainder pass the
    # usual valid torus (decode's hot path); any other takes the full check
    # below, which gives the error.  Nothing is memoised: 8.0 == 8 and
    # True == 1 would find a valid torus's entry.
    if ({*map(type, dims)} == {int} and len(dims) == len(periods)
            and min(dims) > 0 and not any(map(mod, dims, periods))):
        return dims
    dims = check_torus(len(periods), dims)
    for i, (d, p) in enumerate(zip(dims, periods)):
        if d % p:
            raise ValueError(
                f"torus axis {i + 1} ({d}) is not a period of the homomorphism; "
                f"periods are {periods}")
    return dims


def molnar_k_set(group: AbelianGroup) -> tuple[GroupElement, ...]:
    """One representative from each {g, -g} pair of nonidentity elements.

    Requires odd group order (an element equal to its own negative would
    leave a pair unrepresentable).  Scanning in lexicographic residue order,
    an element is taken exactly when its negative has not been taken, which
    makes the choice deterministic.  Returns (order - 1) / 2 elements.

    >>> molnar_k_set(AbelianGroup((5,)))
    ((1,), (2,))
    """
    if group.order % 2 == 0:
        raise ValueError(f"group order must be odd, got {group.order}")
    chosen: list[GroupElement] = []
    taken: set[GroupElement] = set()
    for elem in group.elements():
        if elem == group.identity():
            continue
        if group.neg(elem) in taken:
            continue
        chosen.append(elem)
        taken.add(elem)
    return tuple(chosen)


def _factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division (orders here are small)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@cache
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n as non-increasing tuples, largest-first order.

    Memoised, so each n below the exponent is split once (unmemoised, the
    walk took 5.6 s for 2^24) and no caller can change a shared result.

    >>> _partitions(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(n, 0, -1)
                 for rest in _partitions(n - first) if not rest or rest[0] <= first)


def enumerate_abelian_groups(m: int) -> list[AbelianGroup]:
    """All isomorphism classes of abelian groups of order m <= MAX_VOLUME.

    One group per class, in invariant-factor form and in a deterministic
    order with the cyclic group first: per prime p^a dividing m the
    partitions of a are taken largest-part-first, and classes are combined
    across primes in product order.  The j-th largest prime powers across
    the primes multiply to the j-th largest invariant factor.

    >>> [g.moduli for g in enumerate_abelian_groups(9)]
    [(9,), (3, 3)]
    >>> [g.moduli for g in enumerate_abelian_groups(12)]
    [(12,), (2, 6)]
    """
    if not 1 <= m <= MAX_VOLUME:
        raise ValueError(f"order must be between 1 and {MAX_VOLUME}, got {m}")
    per_prime = [[tuple(p ** e for e in part) for part in _partitions(a)]
                 for p, a in sorted(_factorize(m).items())]
    return [AbelianGroup(tuple(map(prod, zip_longest(*choice, fillvalue=1)))[::-1])
            for choice in product(*per_prime)]
