"""Catalog of group-homomorphism constructions of perfect distance-dominating sets.

Each builder in this module produces a :class:`Construction`: a labeled tile
(one fundamental domain of vertices), a homomorphism from the grid into a
finite abelian group that is a bijection when restricted to the tile, and
the box shape of the components.  By the tiling correspondence, translating
the tile by the homomorphism's kernel then partitions the grid — or any
torus the homomorphism descends to — into copies of the tile, and the
component copies inside it form a t-perfect distance-dominating set.

Every builder ends in one call of :func:`_build`: the tile is the union of
the component copies' t-neighbourhoods, labelled by :func:`_tile_labels`,
and the homomorphism takes the first generator tuple from a short, fixed
candidate list that maps the tile bijectively onto the group.  Families
with fixed generator images pass a one-element list; where source formulas
were ambiguous or failed the bijection test, the list holds the
alternatives in a documented order.  The chosen assignments are pinned by
regression tests.  The bijection is checked once per candidate at build
time, and a builder whose candidates all fail raises ValueError, so a
silently wrong assignment cannot escape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd
from operator import add, sub
from typing import Callable, Optional, Sequence

from .abelian import (AbelianGroup, GroupElement, Homomorphism,
                      check_bijection, molnar_k_set, syndrome_columns,
                      syndrome_rank)
from .lattice import (BoxSpec, Point, Shape, ball_size, box_shape, check_point,
                      check_radius, is_int, nearest_within, translate)


@dataclass
class Tile:
    """A fundamental domain: vertex set plus per-vertex component labels.

    ``labels`` maps each tile vertex to ``(component_id, device)`` where the
    device is the unique nearest vertex of that component.  Component ids
    start at 0 for the copy anchored at (or nearest) the origin.
    """

    shape: Shape
    labels: dict[Point, tuple[int, Point]] = field(repr=False)

    def components_by_id(self) -> dict[int, Shape]:
        """Each component id, in order, with its vertices (the devices
        labeled with it), from one pass over the labels."""
        devices: dict[int, set[Point]] = {}
        for cid, dev in self.labels.values():
            devices.setdefault(cid, set()).add(dev)
        return {cid: Shape.of(devices[cid], dim=self.shape.dim) for cid in sorted(devices)}

    def to_json(self) -> dict:
        return {
            "dim": self.shape.dim,
            "vertices": [list(v) for v in self.shape.vertices],
            "labels": [
                {"v": list(v), "component": self.labels[v][0],
                 "device": list(self.labels[v][1])}
                for v in self.shape.vertices
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Tile":
        shape = Shape.of((tuple(v) for v in obj["vertices"]), dim=obj["dim"])
        labels = {}
        for entry in obj["labels"]:
            cid = entry["component"]
            if not is_int(cid):
                raise ValueError(f"component id must be an integer, got {cid!r}")
            if (v := check_point(entry["v"])) in labels:
                raise ValueError(f"tile vertex {v} is labelled twice")
            labels[v] = (cid, check_point(entry["device"]))
        if set(labels) != set(shape.vertices):
            raise ValueError("tile labels do not cover exactly the tile vertices")
        return cls(shape, labels)


@dataclass
class Construction:
    """A tile, its homomorphism, and the component box it tiles with."""

    t: int
    h_spec: BoxSpec
    tile: Tile
    hom: Homomorphism

    @property
    def lattice_like(self) -> bool:
        """Is the produced set a lattice of translates of one component?

        Exactly when each tile component is the first moved by a shift s_c
        and each phi(s_a + s_b) is some phi(s_c): the images then form a
        subgroup, whose preimage {s_c} + ker phi is the anchor lattice.
        On a period torus Z^n / L, L in the kernel, the anchors are that set
        mod L, a subgroup exactly when the set is one.  C components cost C^2
        ranks; builders make at most four.
        """
        comps = [c.vertices for c in self.tile.components_by_id().values()]
        shifts = [tuple(map(sub, c[0], comps[0][0])) for c in comps]
        if not comps or any(tuple(tuple(map(sub, v, s)) for v in c) != comps[0]
                            for c, s in zip(comps, shifts)):
            return False
        columns = syndrome_columns(self.hom)
        ranks = {syndrome_rank(columns, s) for s in shifts}
        return all(syndrome_rank(columns, tuple(map(add, a, b))) in ranks
                   for a in shifts for b in shifts)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "h": self.h_spec.to_json(),
            "hom": self.hom.to_json(),
            "tile": self.tile.to_json(),
            "lattice_like": self.lattice_like,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Construction":
        h_spec = BoxSpec.from_json(obj["h"])
        tile = Tile.from_json(obj["tile"])
        if h_spec.dim != tile.shape.dim:
            raise ValueError(f"box spec h has {h_spec.dim} axes, tile has {tile.shape.dim}")
        t = check_radius(obj.get("t"))
        _check_labels(tile, t)
        hom = Homomorphism.from_json(obj["hom"])
        if hom.dim != tile.shape.dim:
            raise ValueError(f"homomorphism has {hom.dim} generators for {tile.shape.dim} axes")
        if hom.group.order != len(tile.shape):
            raise ValueError(f"group of order {hom.group.order} cannot be a bijective "
                             f"image of a tile of {len(tile.shape)} vertices")
        return cls(t=t, h_spec=h_spec, tile=tile, hom=hom)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _check_labels(tile: Tile, t: int) -> None:
    """ValueError unless the tile's labels are the ones its components give.

    The components are the devices; each must be a tile vertex labelled as
    a device of its own component.  The labels must then equal
    :func:`_tile_labels` of the components, so the tile is exactly the
    disjoint union of the components' t-neighbourhoods, each vertex
    labelled with its unique nearest device.  Each neighbourhood holds a
    grid Lee ball of radius t, so a t whose ball outgrows the tile is
    rejected first: the walk then costs at most |component| * |tile|.
    """
    labels = tile.labels
    comps: dict[int, list[Point]] = {}
    for u, (cid, dev) in labels.items():
        if labels.get(dev) != (cid, dev):
            raise ValueError(f"tile label of {u} names device {dev} of component "
                             f"{cid}, which is not a tile vertex labelled as a "
                             f"device of component {cid}")
        if dev == u:
            comps.setdefault(cid, []).append(u)
    n = tile.shape.dim
    if ball_size(n, t) > len(labels):
        raise ValueError(f"t = {t} is too large: a Lee ball of radius {t} in Z^{n} "
                         f"has more vertices than the tile's {len(labels)}")
    derived = _tile_labels(comps, t)
    if derived != labels:
        u = min(u for u in labels.keys() | derived.keys()
                if labels.get(u) != derived.get(u))
        if u not in labels:
            raise ValueError(f"vertex {u} is within distance {t} of component "
                             f"{derived[u][0]} but is not a tile vertex")
        cid, dev = labels[u]
        raise ValueError(f"tile label of {u} names device {dev}, which is not the "
                         f"unique nearest vertex of component {cid} within distance {t}")


def _tile_labels(components: dict[int, Sequence[Point]],
                 t: int) -> dict[Point, tuple[int, Point]]:
    """Every vertex within distance t of a component, with its nearest device.

    Maps each vertex of Z^n within Lee distance t of component cid to
    ``(cid, device)``, the device being its unique nearest vertex of that
    component.  Raises ValueError when a vertex is within t of two
    components or has two nearest vertices in one.  Builders label their
    tiles with this walk, and ``Construction.from_json`` re-derives a
    loaded tile's labels with it, so both agree on what a label is.
    """
    labels: dict[Point, tuple[int, Point]] = {}
    for cid, verts in components.items():
        for v, (_, count, device) in nearest_within(verts, t).items():
            if v in labels:
                raise ValueError(f"t-neighborhoods overlap at {v} "
                                 f"(components {labels[v][0]} and {cid})")
            if count != 1:
                raise ValueError(f"vertex {v} has no unique nearest vertex "
                                 f"in component {cid}")
            labels[v] = (cid, device)
    return labels


# The most coordinates (vertices times n) a builder assembles.  Time,
# memory and JSON all grow with the coordinate count, not the vertex count:
# a whole `pdds construct` took 2-9 us and 0.3-1.3 KB per coordinate on 2-D
# and high-dimensional families (2-core host, Python 3.11), so 2^18
# vertices of Z^2 is about 5 s and 0.6 GB.
MAX_TILE_COORDINATES = 1 << 19


def _check_size(order: int, n: int) -> None:
    """ValueError for a tile of ``order`` vertices in Z^n over the limit."""
    if order * n > MAX_TILE_COORDINATES:
        raise ValueError(
            f"a tile of {order} vertices in Z^{n} has {order * n} coordinates, "
            f"more than the limit of {MAX_TILE_COORDINATES} (2^18 vertices of "
            f"Z^2, about 5 s and 0.6 GB to build)")


def _build(t: int, spec: BoxSpec, copies: Sequence[Shape], group: AbelianGroup,
           candidates: Sequence[tuple[GroupElement, ...]], what: str) -> Construction:
    """The construction whose tile is the union of the copies' t-neighbourhoods.

    Component ids are the copies' positions, copies[0] being the origin
    copy.  The homomorphism takes the first candidate generator tuple that
    maps the tile bijectively onto ``group``.  The candidate order is part
    of the construction's definition: it is fixed by the caller and pinned
    by regression tests, so rebuilds always resolve identically.
    """
    labels = _tile_labels(dict(enumerate(c.vertices for c in copies)), t)
    tile = Tile(Shape.of(labels.keys()), labels)
    for gens in candidates:
        hom = Homomorphism(group, gens)
        if check_bijection(hom, tile.shape.vertices).ok:
            return Construction(t, spec, tile, hom)
    raise ValueError(f"unsupported parameters for {what}: "
                     f"no candidate generator assignment is a bijection")


# --------------------------------------------------------------------------
# The catalog.
# --------------------------------------------------------------------------

def plc_n1(n: int, group: Optional[AbelianGroup] = None) -> Construction:
    """Perfect Lee code of radius 1 in Z^n from any abelian group of order 2n+1.

    Components are single vertices; the tile is the Lee ball of radius 1.
    The generator images are a deterministic choice of one element from each
    {g, -g} pair of nonidentity elements, so any abelian group of odd order
    2n+1 works — different groups give different tilings.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    _check_size(2 * n + 1, n)
    if group is None:
        group = AbelianGroup((2 * n + 1,))
    if group.order != 2 * n + 1:
        raise ValueError(f"group order {group.order} != 2n+1 = {2 * n + 1}")
    spec = BoxSpec((1,) * n)
    return _build(1, spec, [box_shape(spec)], group, [molnar_k_set(group)],
                  f"plc_n1(n={n}, {group})")


def pdds1_path(n: int, k: int) -> Construction:
    """1-perfect domination by paths P_k along axis 1 in Z^n.

    Group Z_{2nk-k+2} with generator images 1, k+1, 2k+1, ..., (n-1)k+1.
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if k < 1:
        raise ValueError(f"path length must be positive, got {k}")
    order = 2 * n * k - k + 2
    _check_size(order, n)
    spec = BoxSpec((k,) + (1,) * (n - 1))
    return _build(1, spec, [box_shape(spec)], AbelianGroup((order,)),
                  [tuple(((i * k + 1) % order,) for i in range(n))],
                  f"pdds1_path(n={n}, k={k})")


def pdds_t_path_2d(t: int, k: int, variant: str = "two_copy") -> Construction:
    """t-perfect domination by paths P_k along axis 2 in Z^2.

    two_copy: the tile is two disjoint path-neighborhoods, the second offset
    by (t, t+k), over Z_{4t^2+4tk+2k} with generator images (2t+2k-1, 1).

    single_copy: the tile is one neighborhood over Z_{2t^2+2tk+k}; the
    generator image of e_2 is resolved from the fixed candidate list
    [2t+1, t+1] (the first passes for every checked (t, k); the list keeps
    the resolution explicit).  Lattice-like.
    """
    if t < 1 or k < 1:
        raise ValueError(f"need t >= 1 and k >= 1, got t={t} k={k}")
    spec = BoxSpec((1, k))
    if variant == "two_copy":
        order = 4 * t * t + 4 * t * k + 2 * k
        _check_size(order, 2)
        h = box_shape(spec)
        return _build(t, spec, [h, translate(h, (t, t + k))], AbelianGroup((order,)),
                      [(((2 * t + 2 * k - 1) % order,), (1,))],
                      f"pdds_t_path_2d(t={t}, k={k}, two_copy)")
    if variant != "single_copy":
        raise ValueError(f"variant must be 'two_copy' or 'single_copy', got {variant!r}")
    order = 2 * t * t + 2 * t * k + k
    _check_size(order, 2)
    return _build(t, spec, [box_shape(spec)], AbelianGroup((order,)),
                  [((1,), ((2 * t + 1) % order,)), ((1,), ((t + 1) % order,))],
                  f"pdds_t_path_2d(t={t}, k={k}, single_copy)")


def pdds_t_box2xk_2d(t: int, k: int, variant: str = "two_copy") -> Construction:
    """t-perfect domination by 2 x k boxes in Z^2.

    two_copy: two disjoint box-neighborhoods, the second offset by
    (t+1, t+k), over Z_{2t+2k} x Z_{2t+2} with generator images (0,1) and
    (1,0).

    single_copy: one neighborhood of 2(t+1)(t+k) vertices.  With
    m = gcd(t+1, t+k) the group is cyclic when m = 1 and Z_m x Z_n with
    n = 2(t+1)(t+k)/m otherwise.  Generator images are resolved from fixed
    candidate lists:

      m = 1:  (t+1, t+k) then (t+k, t+1).  The first self-collides within a
              column whenever k >= 3 (the image of e_2 has order 2t+2, less
              than the longest column 2t+k), so the swapped assignment —
              which pairs columns x and x+t+1 into full-period intervals —
              takes over there.
      m > 1:  ((1, (t+k)/m), (0, 1)), then ((1, (t+k)/m), (1, (t+1)/m)),
              then ((1, 0), (0, 1)).  The first passes exactly when
              m = t+1; the second covers the remaining gcd patterns.

    Parameters where no candidate passes are reported as unsupported.
    """
    if t < 1 or k < 1:
        raise ValueError(f"need t >= 1 and k >= 1, got t={t} k={k}")
    spec = BoxSpec((2, k))
    if variant == "two_copy":
        group = AbelianGroup((2 * t + 2 * k, 2 * t + 2))
        _check_size(group.order, 2)
        h = box_shape(spec)
        return _build(t, spec, [h, translate(h, (t + 1, t + k))], group,
                      [((0, 1), (1, 0))], f"pdds_t_box2xk_2d(t={t}, k={k}, two_copy)")
    if variant != "single_copy":
        raise ValueError(f"variant must be 'two_copy' or 'single_copy', got {variant!r}")
    size = 2 * (t + 1) * (t + k)
    _check_size(size, 2)
    m = gcd(t + 1, t + k)
    if m == 1:
        group = AbelianGroup((size,))
        candidates = [(((t + 1) % size,), ((t + k) % size,)),
                      (((t + k) % size,), ((t + 1) % size,))]
    else:
        n2 = size // m
        group = AbelianGroup((m, n2))
        candidates = [((1, (t + k) // m % n2), (0, 1)),
                      ((1, (t + k) // m % n2), (1, (t + 1) // m % n2)),
                      ((1, 0), (0, 1))]
    return _build(t, spec, [box_shape(spec)], group, candidates,
                  f"pdds_t_box2xk_2d(t={t}, k={k}, single_copy)")


def pdds1_square(k: int) -> Construction:
    """1-perfect domination by 2 x 2 squares in Z^(3k+2).

    The squares live on axes 1 and 2; the group is Z_{24k+12}.  Generator
    images: 2+4k and 3+6k on the square axes, then 2+4k+i, 2+4k-i and
    5+11k+i for i = 1..k on the remaining three blocks of axes.  (The last
    block's value is the one the bijection forces: 6+11k+i, off by one from
    it, has even order at i = k and collides on the +-e pairs.)
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    n = 3 * k + 2
    order = 24 * k + 12
    _check_size(order, n)
    gens = [2 + 4 * k, 3 + 6 * k]
    gens += [2 + 4 * k + i for i in range(1, k + 1)]
    gens += [2 + 4 * k - i for i in range(1, k + 1)]
    gens += [5 + 11 * k + i for i in range(1, k + 1)]
    spec = BoxSpec((2, 2) + (1,) * (3 * k))
    return _build(1, spec, [box_shape(spec)], AbelianGroup((order,)),
                  [tuple((g % order,) for g in gens)], f"pdds1_square(k={k})")


def pdds1_q3() -> Construction:
    """1-perfect domination by unit cubes P_2 x P_2 x P_2 in Z^3.

    Group Z_2 x Z_4 x Z_4 with generator images (1,3,3), (0,1,0), (0,0,1);
    the tile is the cube's 32-vertex neighborhood.
    """
    spec = BoxSpec((2, 2, 2))
    return _build(1, spec, [box_shape(spec)], AbelianGroup((2, 4, 4)),
                  [((1, 3, 3), (0, 1, 0), (0, 0, 1))], "pdds1_q3()")


def minkowski_p2() -> Construction:
    """2-perfect domination by dominoes P_2 in Z^3 over Z_38.

    Generator images 1, 11, 7; the tile is the 38-vertex radius-2
    neighborhood of an axis-1 domino.
    """
    spec = BoxSpec((2, 1, 1))
    return _build(2, spec, [box_shape(spec)], AbelianGroup((38,)),
                  [((1,), (11,), (7,))], "minkowski_p2()")


def nonlattice_p2_example() -> Construction:
    """A periodic 1-perfect domination by dominoes in Z^2 that is not lattice-like.

    Four dominoes — two parallel to axis 1, two parallel to axis 2 — are
    anchored at fixed positions around the origin; their radius-1
    neighborhoods tile Z^2 under the kernel of the map onto Z_4 x Z_8 with
    generator images (0,1) and (1,1).  Because the components are not all
    translates of one another, no lattice of translations produces this set.
    """
    copies = [
        Shape.of([(0, 1), (1, 1)]),
        Shape.of([(-2, -1), (-2, 0)]),
        Shape.of([(0, -2), (1, -2)]),
        Shape.of([(3, -1), (3, 0)]),
    ]
    return _build(1, BoxSpec((2, 1)), copies, AbelianGroup((4, 8)),
                  [((0, 1), (1, 1))], "nonlattice_p2_example()")


# Family registry used by the command-line interface.
FAMILIES: dict[str, Callable[..., Construction]] = {
    "plc1": plc_n1,
    "path": pdds1_path,
    "path2d": pdds_t_path_2d,
    "box2xk": pdds_t_box2xk_2d,
    "square": pdds1_square,
    "q3": pdds1_q3,
    "minkowski": minkowski_p2,
    "nonlattice": nonlattice_p2_example,
}
