"""Lee-metric geometry on the integer grid and on finite tori.

The grid graph on Z^n connects vertices that differ by +-1 in exactly one
coordinate; its path metric is the l1 (Lee) distance.  Everything in this
package runs either on the infinite grid (``torus=None``) or on a finite
torus ``Z_{d_1} x ... x Z_{d_n}``, where each axis contributes the circular
distance ``min(|a|, d_i - |a|)``.

Vertex sets are kept in a single canonical form throughout: dimension plus a
lexicographically sorted, duplicate-free vertex tuple.  All functions that
return sets of vertices return them in this form, so equality of shapes is
plain equality of the dataclass.

A torus vertex also has a row-major flat index (:func:`strides`).
:func:`shifted_flats` gives the flat indices of a vertex list shifted to
many anchors, one column over all anchors per vertex (cell-major), built
from the per-axis columns of :func:`axis_columns` without a Python step
per anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian
from itertools import repeat
from math import comb, prod
from operator import add, itemgetter, mod, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

Point = tuple[int, ...]
TorusDims = tuple[int, ...]

# The largest torus the verifier allocates per-vertex arrays for (about 10
# bytes a vertex).
MAX_VOLUME = 1 << 24


def check_torus(dim: int, torus: Optional[TorusDims]) -> Optional[TorusDims]:
    """Validate torus dimensions against a vertex dimension.

    Returns the dims as a tuple, or None for the infinite grid.  Raises
    ValueError on a length mismatch or a modulus that is not a positive int
    (bools and fractions included).
    """
    if torus is None:
        return None
    dims = tuple(torus)
    if len(dims) != dim:
        raise ValueError(f"torus has {len(dims)} axes, vertices have {dim}")
    if not all(is_int(d) and d >= 1 for d in dims):
        raise ValueError(f"torus dimensions must be positive integers, got {dims}")
    return dims


def check_volume(dims: Sequence[int]) -> None:
    """ValueError for a torus above MAX_VOLUME, before anything is allocated."""
    if prod(dims) > MAX_VOLUME:
        raise ValueError(f"torus {tuple(dims)} has {prod(dims)} vertices, more than "
                         f"the verifier's limit of {MAX_VOLUME}")


def is_int(x: object) -> bool:
    """Is x an int and not a bool (so not 1.5, True or None)?"""
    return isinstance(x, int) and not isinstance(x, bool)


def check_point(p: Iterable[object]) -> Point:
    """A vertex from outside the program as a tuple of ints; ValueError if
    a coordinate is not an int (bools, fractions and strings included)."""
    v = tuple(p)
    # One set of types passes the usual all-int vertex (decode's hot path).
    if {*map(type, v)} != {int} and not all(map(is_int, v)):
        raise ValueError(f"vertex coordinates must be integers, got {v!r}")
    return v


def check_radius(t: object) -> int:
    """A domination radius from outside the program: a nonnegative int.

    Raises ValueError for anything else, including a missing (None),
    boolean, fractional or negative value.
    """
    if not is_int(t) or t < 0:
        raise ValueError(f"t must be a nonnegative integer, got {t!r}")
    return t


def strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides of a torus: flat order equals lexicographic order.

    The flat index of vertex x is ``sum(x_i * s_i)``.

    >>> strides((4, 3, 2))
    (6, 2, 1)
    """
    out = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        out[i] = out[i + 1] * dims[i + 1]
    return tuple(out)


def axis_columns(anchors: Iterable[Sequence[int]], dims: Sequence[int],
                 scales: Sequence[int]) -> list[Callable[[int], Sequence[int]]]:
    """Per axis i, the map c -> ``[(c + a_i) mod d_i * scale_i for a in anchors]``.

    Each axis reads one table of the 2 d_i values ``x mod d_i * scale_i``.
    With many anchors a column is an ``itemgetter`` of the anchors'
    residues over the table slice that starts at ``c mod d_i``: one slice
    of length d_i, then no Python step per anchor.  With at most d_i / 32
    anchors, where the slice was measured to cost more than it saves, the
    residues index the table directly.  Anchor coordinates need not be
    reduced.

    >>> [list(f(1)) for f in axis_columns([(0, 2), (2, 1), (5, 0)], (3, 3), (3, 1))]
    [[3, 0, 0], [0, 2, 1]]
    """
    anchors = list(anchors)
    return [_axis_column(list(map(itemgetter(i), anchors)), d, s)
            for i, (d, s) in enumerate(zip(dims, scales))]


def _axis_column(coords: Sequence[int], d: int, s: int) -> Callable[[int], Sequence[int]]:
    """One axis of :func:`axis_columns`."""
    table = [x % d * s for x in range(2 * d)]
    residues = [a % d for a in coords]
    if len(residues) <= max(1, d // 32):
        return lambda c: [table[c % d + r] for r in residues]
    pick = itemgetter(*residues)
    return lambda c: pick(table[c % d:c % d + d])


def shifted_flats(verts: Iterable[Sequence[int]], anchors: Iterable[Sequence[int]],
                  dims: Sequence[int]) -> Iterator[Sequence[int]]:
    """Per vertex v, the flat indices of ``(v + a) mod dims`` over the anchors a.

    One column per vertex, in verts order; each column follows the order
    of the anchors.  Coordinates need not be reduced.  This is cell-major
    order: a column is built over all anchors at once from the per-axis
    columns of :func:`axis_columns`, summed with ``map(add)``.  An axis's
    column is built once per coordinate value (it holds one reference
    into the axis's table per anchor).  The sum over the leading axes is
    kept while consecutive vertices agree on them, so at most one partial
    column per axis is alive and vertices in lexicographic order cost
    about one sum each.  Columns may be shared between vertices: read
    them, do not modify them.

    >>> [list(col) for col in shifted_flats([(0, 0), (0, 1)], [(0, 1), (2, 2)], (3, 3))]
    [[1, 8], [2, 6]]
    """
    columns = axis_columns(anchors, dims, strides(dims))
    cache: list[dict[int, Sequence[int]]] = [{} for _ in dims]
    partial: list[Sequence[int]] = [()] * len(dims)
    prev: Sequence[int] = ()
    for v in verts:
        i = 0
        while i < len(prev) and v[i] == prev[i]:
            i += 1
        for i in range(i, len(dims)):
            col = cache[i].get(v[i])
            if col is None:
                col = cache[i][v[i]] = columns[i](v[i])
            partial[i] = list(map(add, partial[i - 1], col)) if i else col
        prev = v
        yield partial[-1]


def unflatten(flat: int, dims: Sequence[int]) -> Point:
    """The torus vertex at a row-major flat index (inverse of the strides).

    >>> unflatten(7, (4, 3, 2))
    (1, 0, 1)
    """
    out = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        flat, out[i] = divmod(flat, dims[i])
    return tuple(out)


def lee_distance(u: Sequence[int], v: Sequence[int],
                 torus: Optional[TorusDims] = None) -> int:
    """Lee (l1) distance between two vertices.

    On a torus each axis contributes the circular distance
    ``min(|a|, d - |a|)``; on the infinite grid it is plain l1.

    >>> lee_distance((0, 0), (2, -1))
    3
    >>> lee_distance((0, 0), (5, 0), torus=(6, 6))
    1
    """
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    dims = check_torus(len(u), torus)
    if dims is None:
        return sum(abs(a - b) for a, b in zip(u, v))
    return torus_norm(map(sub, u, v), dims)


def torus_norm(offset: Iterable[int], dims: Sequence[int]) -> int:
    """Lee distance from the origin to offset on a torus of checked dims.

    >>> torus_norm((5, -2), (6, 6))
    3
    """
    return sum(min(o % d, -o % d) for o, d in zip(offset, dims))


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned box given by per-axis extents (k_1, ..., k_n).

    The box anchored at the origin is {0..k_1-1} x ... x {0..k_n-1}; it
    induces a Cartesian product of paths P_{k_1} x ... x P_{k_n} in the grid
    graph.  Extents must be positive ints.
    """

    extents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple(self.extents))
        if not self.extents or not all(is_int(k) and k >= 1 for k in self.extents):
            raise ValueError(f"box extents must be positive integers, got {self.extents}")

    @property
    def dim(self) -> int:
        return len(self.extents)

    def to_json(self) -> dict:
        return {"extents": list(self.extents)}

    @classmethod
    def from_json(cls, obj: dict) -> "BoxSpec":
        return cls(tuple(obj["extents"]))


@dataclass(frozen=True)
class Shape:
    """A finite set of grid vertices in canonical form.

    ``vertices`` is lexicographically sorted and duplicate-free, so two
    shapes are equal exactly when they contain the same vertices of the same
    dimension.  Build instances with :meth:`of`, which canonicalizes and
    rejects non-integer coordinates.
    """

    dim: int
    vertices: tuple[Point, ...]

    @classmethod
    def of(cls, vertices: Iterable[Sequence[int]], dim: Optional[int] = None) -> "Shape":
        verts = sorted({check_point(v) for v in vertices})
        if verts:
            d = len(verts[0])
            if any(len(v) != d for v in verts):
                raise ValueError("vertices of mixed dimension")
            if dim is not None and dim != d:
                raise ValueError(f"declared dim {dim} != vertex dim {d}")
            dim = d
        elif dim is None:
            raise ValueError("empty shape needs an explicit dim")
        return cls(dim, tuple(verts))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.vertices)


def box_shape(spec: BoxSpec) -> Shape:
    """All lattice points of the origin-anchored box, canonically ordered.

    >>> box_shape(BoxSpec((2, 2))).vertices
    ((0, 0), (0, 1), (1, 0), (1, 1))
    """
    return Shape.of(_cartesian(*(range(k) for k in spec.extents)), dim=spec.dim)


def translate(shape: Shape, z: Sequence[int],
              torus: Optional[TorusDims] = None) -> Shape:
    """Translate every vertex by z (reducing modulo the torus if given)."""
    if len(z) != shape.dim:
        raise ValueError(f"offset dim {len(z)} != shape dim {shape.dim}")
    dims = check_torus(shape.dim, torus)
    moved = (tuple(map(add, v, z)) for v in shape.vertices)
    if dims is not None:
        moved = (tuple(map(mod, v, dims)) for v in moved)
    return Shape.of(moved, dim=shape.dim)


def ball_size(dim: int, t: int) -> int:
    """Vertices of Z^dim within Lee distance t of a point: choose the k
    nonzero axes, their signs, and k positive parts summing to at most t.

    >>> ball_size(2, 2)
    13
    """
    return sum(2 ** k * comb(dim, k) * comb(t, k) for k in range(min(dim, t) + 1))


@lru_cache(maxsize=64)
def _offset_ball(dim: int, t: int,
                 dims: Optional[TorusDims]) -> tuple[tuple[Point, int], ...]:
    """Distinct offsets within Lee distance t, with their distance.

    On the grid each axis offers -t..t; on a torus each axis offers the
    residues r whose circular distance min(r, d - r) is at most t, so the
    ball never outgrows the torus.  Built axis by axis, in lexicographic
    order, keeping only offsets that fit in the budget the earlier axes
    left, so each offset appears once.  Memoised, so the ball is a tuple
    that no caller can change under another.
    """
    out: list[tuple[Point, int]] = [((), 0)]
    for i in range(dim):
        if dims is None:
            axis = [(r, abs(r)) for r in range(-t, t + 1)]
        else:
            d = dims[i]
            reach = min(t, d // 2)
            axis = sorted({(r % d, abs(r)) for r in range(-reach, reach + 1)})
        out = [(delta + (r,), dist + c) for delta, dist in out
               for r, c in axis if dist + c <= t]
    return tuple(out)


def nearest_within(verts: Sequence[Sequence[int]], t: int,
                   torus: Optional[TorusDims] = None
                   ) -> dict[Point, tuple[int, int, Point]]:
    """Every vertex within Lee distance t of verts, with its nearest ones.

    Maps each such vertex (reduced mod the torus, if one is given) to
    ``(least distance, number of nearest vertices, first nearest vertex in
    verts order)``.  The walk is one offset ball per vertex of verts, so a
    torus bounds the work however large t is.

    >>> nearest_within([(0,), (2,)], 1)[(1,)]
    (1, 2, (0,))
    >>> nearest_within([(0,), (1,)], 5, (4,))[(3,)]
    (1, 1, (0,))
    """
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    if not verts:
        return {}
    dims = check_torus(len(verts[0]), torus)
    ball = _offset_ball(len(verts[0]), t, dims)
    out: dict[Point, tuple[int, int, Point]] = {}
    for w in verts:
        for delta, d in ball:
            x = tuple(map(add, w, delta))
            if dims is not None:
                x = tuple(map(mod, x, dims))
            best = out.get(x)
            if best is None or d < best[0]:
                out[x] = (d, 1, w)
            elif d == best[0]:
                out[x] = (d, best[1] + 1, best[2])
    return out


def t_neighborhood(shape: Shape, t: int,
                   torus: Optional[TorusDims] = None) -> Shape:
    """All vertices within Lee distance t of the shape (a set union).

    The keys of :func:`nearest_within`, so each vertex appears once however
    many vertices of the shape reach it.  ``t = 0`` returns the
    (torus-reduced) shape itself.

    >>> len(t_neighborhood(Shape.of([(0, 0)]), 2))
    13
    """
    return Shape(shape.dim, tuple(sorted(nearest_within(shape.vertices, t, torus))))


def is_box(shape: Shape, torus: Optional[TorusDims] = None) -> Optional[BoxSpec]:
    """Extents of the shape if it is exactly an axis-aligned box, else None.

    The shape must fill the box of its per-axis runs (:func:`box_runs`,
    which reduces mod the torus if one is given; on a torus axis of length
    d > 1 a run may wrap the seam), and full rings are rejected.

    >>> is_box(Shape.of([(3, 1), (4, 1)]))
    BoxSpec(extents=(2, 1))
    >>> is_box(Shape.of([(0, 0), (1, 1)])) is None
    True
    >>> is_box(Shape.of([(0, 0), (4, 0)]), (5, 3))
    BoxSpec(extents=(2, 1))
    """
    dims = check_torus(shape.dim, torus)
    runs = box_runs(shape.vertices, dims)
    if runs is None or (dims is not None and any(e == d > 1 for e, d in zip(runs[1], dims))):
        return None
    return BoxSpec(runs[1])


def box_runs(verts: Sequence[Sequence[int]], dims: Optional[TorusDims]
             ) -> Optional[tuple[Point, tuple[int, ...]]]:
    """``(corner, extents)`` of the box that verts fill, else None.

    Per axis, the coordinates of verts (reduced mod dims if given) must
    have exactly one start, a c with c - 1 absent (mod d on a torus), and
    the run has that start and the number of coordinates as its size; on
    a torus a whole axis has no start and counts as a run from 0.  The
    box of these runs holds verts, and verts fill it exactly when they
    are distinct (after reduction) and as many as the box's volume.  None
    when an axis has a gap, when verts repeat a vertex or fall short of
    the box, or when verts is empty.

    >>> box_runs([(4, 1), (0, 1)], (5, 3))
    ((4, 1), (2, 1))
    >>> box_runs([(0, 0), (4, 0), (1, 1), (0, 1)], (4, 6)) is None
    True
    """
    if not verts:
        return None
    cols = list(zip(*verts))
    if dims is not None:
        cols = [tuple(map(mod, col, repeat(d))) for col, d in zip(cols, dims)]
    corner, extents = [], []
    for col, d in zip(cols, dims or repeat(None)):
        present = set(col)
        starts = [c for c in present if (c - 1 if d is None else (c - 1) % d) not in present]
        if len(starts) > 1:
            return None
        corner.append(starts[0] if starts else 0)
        extents.append(len(present))
    if prod(extents) != len(verts) or len(set(zip(*cols))) != len(verts):
        return None
    return tuple(corner), tuple(extents)
