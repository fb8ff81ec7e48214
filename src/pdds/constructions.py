"""Catalog of group-homomorphism constructions of perfect distance-dominating sets.

Each builder in this module produces a :class:`Construction`: a labeled tile
(one fundamental domain of vertices), a homomorphism from the grid into a
finite abelian group that is a bijection when restricted to the tile, and
the box shape of the components.  By the tiling correspondence, translating
the tile by the homomorphism's kernel then partitions the grid — or any
torus the homomorphism descends to — into copies of the tile, and the
component copies inside it form a t-perfect distance-dominating set.

Where source formulas for generator images were ambiguous or failed the
bijection test, the builders resolve them by trying a short, fixed candidate
list in a documented order and freezing the first assignment that passes
``check_bijection``.  The chosen assignments are pinned by regression tests;
the bijection is always re-checked at build time, so a silently wrong
assignment cannot escape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, gcd
from typing import Callable, Optional, Sequence

from .abelian import (AbelianGroup, GroupElement, Homomorphism,
                      check_bijection, molnar_k_set)
from .lattice import (MAX_VOLUME, BoxSpec, Point, Shape, box_shape,
                      check_point, check_radius, is_box, is_int,
                      nearest_within, translate, unit_vector)


@dataclass
class Tile:
    """A fundamental domain: vertex set plus per-vertex component labels.

    ``labels`` maps each tile vertex to ``(component_id, device)`` where the
    device is the unique nearest vertex of that component.  Component ids
    start at 0 for the copy anchored at (or nearest) the origin.
    """

    shape: Shape
    labels: dict[Point, tuple[int, Point]] = field(repr=False)

    def component_ids(self) -> list[int]:
        return sorted({cid for cid, _ in self.labels.values()})

    def component(self, cid: int) -> Shape:
        """The vertices of component cid (the devices labeled with it)."""
        verts = {dev for c, dev in self.labels.values() if c == cid}
        return Shape.of(verts, dim=self.shape.dim)

    def components(self) -> list[Shape]:
        return [self.component(cid) for cid in self.component_ids()]

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
            labels[check_point(entry["v"])] = (cid, check_point(entry["device"]))
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
        """Is the tile a single component neighborhood (one H* copy)?

        Then the produced set is a lattice of translates of one component by
        construction.  Multi-copy tiles give False even when the
        instantiated set happens to admit a denser translation lattice; the
        geometric question about a concrete instance is answered by the
        verifier's ``is_lattice_like``.
        """
        return len(self.tile.component_ids()) == 1

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
        return cls(t=t, h_spec=h_spec, tile=tile, hom=Homomorphism.from_json(obj["hom"]))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "Construction":
        return cls.from_json(json.loads(text))


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
    if _ball_size(n, t) > len(labels):
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


def _ball_size(dim: int, t: int) -> int:
    """Vertices of Z^dim within Lee distance t of a point: choose the k
    nonzero axes, their signs, and k positive parts summing to at most t."""
    return sum(2 ** k * comb(dim, k) * comb(t, k) for k in range(min(dim, t) + 1))


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


def _assemble_tile(copies: Sequence[Shape], t: int) -> Tile:
    """Union of the copies' t-neighborhoods with nearest-device labels.

    copies[0] is the origin copy (component id 0); the remaining copies are
    numbered in canonical order of their least vertex.
    """
    rest = sorted(copies[1:], key=lambda s: s.vertices[0])
    labels = _tile_labels(dict(enumerate(c.vertices for c in [copies[0], *rest])), t)
    return Tile(Shape.of(labels.keys()), labels)


def _validate(c: Construction) -> Construction:
    """Build-time invariants every catalog construction must satisfy."""
    n = c.tile.shape.dim
    res = check_bijection(c.hom, c.tile.shape.vertices)
    if not res.ok:
        raise AssertionError(f"tile-to-group map is not a bijection: {res}")
    origin = (0,) * n
    required = [origin] + [unit_vector(n, i) for i in range(n)]
    for p in required:
        if p not in c.tile.labels:
            raise AssertionError(f"tile must contain the origin and unit vectors; missing {p}")
    want = tuple(sorted(c.h_spec.extents))
    for comp in c.tile.components():
        spec = is_box(comp)
        if spec is None or tuple(sorted(spec.extents)) != want:
            raise AssertionError(f"component {comp.vertices} is not a {c.h_spec.extents} box")
    return c


def _check_size(order: int, n: int) -> None:
    """ValueError for a tile of ``order`` vertices in Z^n above MAX_VOLUME."""
    if order * n > MAX_VOLUME:
        raise ValueError(f"a tile of {order} vertices in Z^{n} has {order * n} "
                         f"coordinates, more than the limit of {MAX_VOLUME}")


def _resolve_generators(group: AbelianGroup,
                        candidates: Sequence[tuple[GroupElement, ...]],
                        vertices: Sequence[Point],
                        what: str) -> Homomorphism:
    """First candidate generator tuple that maps the vertex set bijectively.

    The candidate order is part of the construction's definition: it is
    fixed here once and pinned by regression tests, so rebuilds always
    resolve identically.
    """
    for gens in candidates:
        hom = Homomorphism(group, gens)
        if check_bijection(hom, vertices).ok:
            return hom
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
    gens = molnar_k_set(group)
    assert len(gens) == n
    hom = Homomorphism(group, gens)
    h = box_shape(BoxSpec((1,) * n))
    tile = _assemble_tile([h], 1)
    return _validate(Construction(1, BoxSpec((1,) * n), tile, hom))


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
    group = AbelianGroup((order,))
    hom = Homomorphism(group, tuple(((i * k + 1) % order,) for i in range(n)))
    spec = BoxSpec((k,) + (1,) * (n - 1))
    tile = _assemble_tile([box_shape(spec)], 1)
    return _validate(Construction(1, spec, tile, hom))


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
        hom = Homomorphism(AbelianGroup((order,)), (((2 * t + 2 * k - 1) % order,), (1,)))
        tile = _assemble_tile([h, translate(h, (t, t + k))], t)
        return _validate(Construction(t, spec, tile, hom))
    if variant != "single_copy":
        raise ValueError(f"variant must be 'two_copy' or 'single_copy', got {variant!r}")
    order = 2 * t * t + 2 * t * k + k
    _check_size(order, 2)
    tile = _assemble_tile([box_shape(spec)], t)
    hom = _resolve_generators(
        AbelianGroup((order,)),
        [((1,), ((2 * t + 1) % order,)), ((1,), ((t + 1) % order,))],
        tile.shape.vertices, f"pdds_t_path_2d(t={t}, k={k}, single_copy)")
    return _validate(Construction(t, spec, tile, hom))


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
        tile = _assemble_tile([h, translate(h, (t + 1, t + k))], t)
        return _validate(Construction(t, spec, tile, Homomorphism(group, ((0, 1), (1, 0)))))
    if variant != "single_copy":
        raise ValueError(f"variant must be 'two_copy' or 'single_copy', got {variant!r}")
    size = 2 * (t + 1) * (t + k)
    _check_size(size, 2)
    m = gcd(t + 1, t + k)
    tile = _assemble_tile([box_shape(spec)], t)
    assert len(tile.shape) == size
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
    hom = _resolve_generators(group, candidates, tile.shape.vertices,
                              f"pdds_t_box2xk_2d(t={t}, k={k}, single_copy)")
    return _validate(Construction(t, spec, tile, hom))


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
    group = AbelianGroup((order,))
    gens = [2 + 4 * k, 3 + 6 * k]
    gens += [2 + 4 * k + i for i in range(1, k + 1)]
    gens += [2 + 4 * k - i for i in range(1, k + 1)]
    gens += [5 + 11 * k + i for i in range(1, k + 1)]
    hom = Homomorphism(group, tuple((g % order,) for g in gens))
    spec = BoxSpec((2, 2) + (1,) * (3 * k))
    tile = _assemble_tile([box_shape(spec)], 1)
    return _validate(Construction(1, spec, tile, hom))


def pdds1_q3() -> Construction:
    """1-perfect domination by unit cubes P_2 x P_2 x P_2 in Z^3.

    Group Z_2 x Z_4 x Z_4 with generator images (1,3,3), (0,1,0), (0,0,1);
    the tile is the cube's 32-vertex neighborhood.
    """
    group = AbelianGroup((2, 4, 4))
    hom = Homomorphism(group, ((1, 3, 3), (0, 1, 0), (0, 0, 1)))
    spec = BoxSpec((2, 2, 2))
    tile = _assemble_tile([box_shape(spec)], 1)
    return _validate(Construction(1, spec, tile, hom))


def minkowski_p2() -> Construction:
    """2-perfect domination by dominoes P_2 in Z^3 over Z_38.

    Generator images 1, 11, 7; the tile is the 38-vertex radius-2
    neighborhood of an axis-1 domino.
    """
    group = AbelianGroup((38,))
    hom = Homomorphism(group, ((1,), (11,), (7,)))
    spec = BoxSpec((2, 1, 1))
    tile = _assemble_tile([box_shape(spec)], 2)
    return _validate(Construction(2, spec, tile, hom))


def nonlattice_p2_example() -> Construction:
    """A periodic 1-perfect domination by dominoes in Z^2 that is not lattice-like.

    Four dominoes — two parallel to axis 1, two parallel to axis 2 — are
    anchored at fixed positions around the origin; their radius-1
    neighborhoods tile Z^2 under the kernel of the map onto Z_4 x Z_8 with
    generator images (0,1) and (1,1).  Because the components are not all
    translates of one another, no lattice of translations produces this set.
    """
    group = AbelianGroup((4, 8))
    hom = Homomorphism(group, ((0, 1), (1, 1)))
    copies = [
        Shape.of([(0, 1), (1, 1)]),
        Shape.of([(0, -2), (1, -2)]),
        Shape.of([(-2, -1), (-2, 0)]),
        Shape.of([(3, -1), (3, 0)]),
    ]
    tile = _assemble_tile(copies, 1)
    return _validate(Construction(1, BoxSpec((2, 1)), tile, hom))


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
