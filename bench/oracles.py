"""Independent answers the benchmark checks the program's outputs against.

Nothing here calls into ``pdds``: syndromes, torus periods, Lee balls and
group counts are recomputed from the raw moduli and generator tuples, so a
defect in the program cannot also hide in its own oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import gcd, prod

Point = tuple[int, ...]


def syndrome(moduli: tuple[int, ...], gens: tuple[tuple[int, ...], ...],
             x: Point) -> tuple[int, ...]:
    """phi(x) = sum_i x_i * g_i, reduced componentwise by the moduli."""
    return tuple(sum(c * g[j] for c, g in zip(x, gens)) % m
                 for j, m in enumerate(moduli))


def periods(moduli: tuple[int, ...], gens: tuple[tuple[int, ...], ...]) -> Point:
    """Per-axis order of each generator image: the period torus."""
    out = []
    for g in gens:
        order = 1
        for gj, m in zip(g, moduli):
            k = m // gcd(gj, m)
            order = order * k // gcd(order, k)
        out.append(order)
    return tuple(out)


def torus_lee(u: Point, v: Point, dims: Point) -> int:
    return sum(min((a - b) % d, (b - a) % d) for a, b, d in zip(u, v, dims))


@lru_cache(maxsize=None)
def grid_ball(n: int, t: int) -> tuple[Point, ...]:
    """All offsets of Lee norm at most t in Z^n."""
    out = [()]
    for _ in range(n):
        nxt = []
        for p in out:
            used = sum(abs(c) for c in p)
            for c in range(-(t - used), t - used + 1):
                nxt.append(p + (c,))
        out = nxt
    return tuple(out)


def torus_ball(x: Point, t: int, dims: Point) -> set[Point]:
    """Torus vertices within Lee distance t of x."""
    return {tuple((a + b) % d for a, b, d in zip(x, off, dims))
            for off in grid_ball(len(dims), t)}


class DecodeOracle:
    """Brute-force nearest device for one construction, on any of its tori.

    A torus vertex y belongs to the dominating set exactly when the tile
    vertex sharing its syndrome is a device of itself.  On a valid code the
    set vertex nearest to x is unique and lies within distance t, so a scan
    of x's Lee ball finds it without instantiating the torus.
    """

    def __init__(self, construction) -> None:
        hom = construction.hom
        self.moduli = tuple(hom.group.moduli)
        self.gens = tuple(tuple(g) for g in hom.generators)
        self.t = construction.t
        self.box_span = sum(k - 1 for k in construction.h_spec.extents)
        self.period = periods(self.moduli, self.gens)
        self.set_syndromes = {
            syndrome(self.moduli, self.gens, v)
            for v, (_, dev) in construction.tile.labels.items() if tuple(dev) == tuple(v)}

    def in_set(self, y: Point) -> bool:
        return syndrome(self.moduli, self.gens, y) in self.set_syndromes

    def problem(self, x: Point, torus, got) -> str | None:
        """None when the decode result ``got`` is right, else what is wrong."""
        dims = self.period if torus is None else tuple(torus)
        if got.distance > self.t:
            return f"distance {got.distance} > t={self.t}"
        xr = tuple(a % d for a, d in zip(x, dims))
        best, hits = None, []
        for y in torus_ball(xr, self.t, dims):
            if not self.in_set(y):
                continue
            d = torus_lee(xr, y, dims)
            if best is None or d < best:
                best, hits = d, [y]
            elif d == best:
                hits.append(y)
        if len(hits) != 1:
            return f"{len(hits)} set vertices at the least distance {best}"
        if tuple(got.device) != hits[0] or got.distance != best:
            return f"decoded {tuple(got.device)} at {got.distance}, nearest is {hits[0]} at {best}"
        anchor = tuple(got.component_anchor)
        if not (self.in_set(anchor) and anchor <= hits[0]
                and torus_lee(anchor, hits[0], dims) <= self.box_span):
            return f"anchor {anchor} is not a set vertex of the device's component"
        return None


def corruption_keeps_bijection(moduli, gens, tile_vertices, old: Point, new: Point) -> bool:
    """Would moving tile vertex ``old`` to ``new`` keep the tile a bijection?

    It does exactly when the move does not change the syndrome and lands on
    a vertex not already in the tile.
    """
    return (syndrome(moduli, gens, tuple(a - b for a, b in zip(new, old)))
            == (0,) * len(moduli) and new not in tile_vertices)


def pdds_problems(torus: Point, t: int, extents: Point, components) -> list[str]:
    """Check an instance by exact cover of torus Lee balls; [] when it is a t-PDDS.

    Every component must be a translate of an axis permutation of the box,
    the radius-t balls of the components must partition the torus, and each
    vertex must have a unique nearest vertex in the component serving it.
    """
    problems = []
    boxes = {tuple(product(*(range(k) for k in perm))) for perm in set(permutations(extents))}
    owner: dict[Point, int] = {}
    for ci, comp in enumerate(components):
        verts = [tuple(v) for v in comp]
        members = set(verts)
        if not any({tuple((a + b) % d for a, b, d in zip(anchor, off, torus)) for off in box}
                   == members for box in boxes for anchor in verts):
            problems.append(f"component {ci} is not a {extents} box")
        ball = set()
        for v in verts:
            ball |= torus_ball(v, t, torus)
        for x in ball:
            if x in owner:
                problems.append(f"{x} is within {t} of components {owner[x]} and {ci}")
                return problems
            owner[x] = ci
            dists = sorted(torus_lee(x, v, torus) for v in verts)
            if len(dists) > 1 and dists[0] == dists[1]:
                problems.append(f"{x} has two nearest vertices in component {ci}")
    if len(owner) != prod(torus):
        problems.append(f"{prod(torus) - len(owner)} vertices are uncovered")
    return problems


def partitions_count(n: int) -> int:
    """Number of integer partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def abelian_group_count(order: int) -> int:
    """Abelian groups of the order, up to isomorphism: prod of p(exponent)."""
    count, p, n = 1, 2, order
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        count *= partitions_count(e)
        p += 1
    return count
