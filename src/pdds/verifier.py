"""Instantiating constructions on tori and verifying the domination property.

A :class:`PDDSInstance` is a concrete candidate set on a finite torus: the
torus dimensions, the domination radius t, the component box shape, and the
list of components.  :func:`instantiate_on_torus` produces one from a
construction by translating the tile's components by every kernel element of
the homomorphism; :func:`verify_pdds` checks the defining property vertex by
vertex:

  * every vertex is within distance t of exactly one component, and
  * within that component it has a unique nearest vertex (its device), and
  * every component is an axis-aligned box (a translate of one on the torus).

Both work cell-major over the copies of one vertex set: instantiation
builds each tile vertex's copies over the whole kernel as coordinate
columns, and verification shifts each cell of a translation class's local
map to all of the class's members at once.  Verification first decides
exact cover in one pass over a byte per torus vertex; only when that
fails does it expand each component's neighbourhood onto per-vertex arrays
and read the violations off them.  The arrays are public as
:func:`coverage`, the service map render draws.  :func:`verify_partition`
asks whether a tile's kernel-translates partition the torus; for a
homomorphism onto its group that is the tile-to-group bijection, so it
reads :func:`check_bijection` and walks no translate.  The test suite keeps
a brute-force scan over all (vertex, component) pairs and a per-vertex
kernel-translate walk as the oracles of these two claims.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, cycle, repeat
from itertools import product as _cartesian
from math import prod
from operator import add, itemgetter, mod, sub
from typing import Iterator, NamedTuple, Optional, Sequence

from .abelian import (Homomorphism, check_bijection, check_periods,
                      syndrome_columns, syndrome_rank, syndrome_ranks,
                      torus_periods)
from .constructions import Construction, Tile
from .lattice import (BoxSpec, Point, Shape, axis_columns, ball_size,
                      check_radius, check_torus, check_volume, is_box,
                      lee_distance, nearest_within, shifted_flats, unflatten)


@dataclass
class PDDSInstance:
    """A candidate perfect distance-dominating set on a finite torus."""

    torus: tuple[int, ...]
    t: int
    h_spec: BoxSpec
    components: list[Shape]

    @property
    def dim(self) -> int:
        return len(self.torus)

    @property
    def volume(self) -> int:
        return prod(self.torus)

    def to_json(self) -> dict:
        return {
            "torus": list(self.torus),
            "t": self.t,
            "h": self.h_spec.to_json(),
            "components": [[list(v) for v in comp.vertices] for comp in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PDDSInstance":
        torus = check_torus(len(obj["torus"]), obj["torus"])
        h_spec = BoxSpec.from_json(obj["h"])
        if h_spec.dim != len(torus):
            raise ValueError(f"box spec h has {h_spec.dim} axes, torus has {len(torus)}")
        comps = [Shape.of((tuple(v) for v in comp), dim=len(torus))
                 for comp in obj["components"]]
        comps.sort(key=lambda s: s.vertices)
        return cls(torus, check_radius(obj.get("t")), h_spec, comps)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


@dataclass
class Violation:
    vertex: Point
    kind: str
    detail: str

    def to_json(self) -> dict:
        return {"vertex": list(self.vertex), "kind": self.kind, "detail": self.detail}


@dataclass
class VerificationReport:
    passed: bool
    violations: list[Violation] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"pass": self.passed,
                "violations": [v.to_json() for v in self.violations]}


# --------------------------------------------------------------------------
# Syndrome iteration over a torus.
# --------------------------------------------------------------------------

def _kernel_elements(hom: Homomorphism, dims: tuple[int, ...]) -> Iterator[Point]:
    """All torus vertices mapping to the identity, in lexicographic order.

    Solves for the last coordinate per prefix p of the others: (p, x) is in
    the kernel exactly when phi(p, 0) = phi(0, ..., 0, -x).  One table maps
    the rank of each phi(0, ..., 0, -x), x in [0, d_n), to its x values in
    increasing order, so the walk visits volume / d_n prefixes, not every
    torus vertex.
    """
    columns = syndrome_columns(hom)
    zeros = (0,) * (len(dims) - 1)
    solve: dict[int, list[int]] = {}
    for x in range(dims[-1]):
        solve.setdefault(syndrome_rank(columns, zeros + (-x,)), []).append(x)
    # The columns without the last generator rank phi(p, 0) from p alone.
    head = tuple((m, col[:-1]) for m, col in columns)
    prefixes = _cartesian(*map(range, dims[:-1]))
    for prefix, rank in zip(prefixes, syndrome_ranks(head, dims[:-1])):
        for x in solve.get(rank, ()):
            yield prefix + (x,)


def instantiate_on_torus(construction: Construction,
                         torus: Optional[Sequence[int]] = None) -> PDDSInstance:
    """Roll a construction out onto a torus by its kernel translations.

    With no torus given, the per-axis periods of the homomorphism are used
    (the smallest torus it descends to).  Every supplied dimension must be
    annihilated by the corresponding generator image.  The instance's
    components are the kernel-translates of the tile's components, in
    canonical order.

    Precondition: every component lies inside the tile (each device is a
    tile vertex).  The tile maps bijectively onto the group (checked here)
    and the torus is a period multiple, so the tile's translates partition
    the torus; then no translate repeats and its vertices are distinct mod
    the torus, so shapes are built without a dedupe.  Builders and
    ``Construction.from_json`` both derive the labels with
    ``constructions._tile_labels``, so both keep the precondition.
    """
    hom = construction.hom
    periods = torus_periods(hom)
    dims = periods if torus is None else check_periods(periods, torus)
    check_volume(dims)

    # A tile that no longer maps bijectively cannot tile anything.
    res = check_bijection(hom, construction.tile.shape.vertices)
    if not res.ok:
        raise ValueError("construction corrupt: tile does not map bijectively "
                         f"onto the group: {res}")

    # Cell-major: each tile vertex's copies over the whole kernel as one
    # coordinate column per axis, zipped into vertices, then into copies.
    columns = axis_columns(_kernel_elements(hom, dims), dims, (1,) * len(dims))
    placed = []
    for comp in construction.tile.components_by_id().values():
        copies = [zip(*[col(c) for col, c in zip(columns, v)]) for v in comp.vertices]
        placed.extend(map(tuple, map(sorted, zip(*copies))))
    placed.sort()
    return PDDSInstance(dims, construction.t, construction.h_spec,
                        list(map(Shape, repeat(len(dims)), placed)))


# --------------------------------------------------------------------------
# Verification.
# --------------------------------------------------------------------------

class _Classes(NamedTuple):
    keys: list[tuple[Point, ...]]
    anchors: list[list[Point]]
    members: list[list[int]]


# The most cells one class map (``nearest_within`` of a key) may reach.  A
# map and the offset ball it walks took 350-650 bytes and 2-5 us per cell
# (one vertex reaching all of a ring or a square torus; 2-core host,
# Python 3.11), so 2^19 cells is about 0.3 GB and 3 s.
MAX_CLASS_CELLS = 1 << 19


def _translation_classes(inst: PDDSInstance) -> _Classes:
    """The components grouped by vertex set modulo torus translation.

    Components share a class exactly when they are torus translates,
    however they wrap the seam.  Classes are numbered by first member:
    ``keys[k]`` is their canonical offsets (:func:`_canonical`),
    ``anchors[k]`` per member in order an a with key + a equal to it mod
    the torus, ``members[k]`` the members' component ids, ascending.
    Raises ValueError for a component whose dimension is not the torus's,
    for a torus above ``MAX_VOLUME`` and for a class whose map could reach
    more than ``MAX_CLASS_CELLS`` cells: every verify path starts here.
    """
    dims = inst.torus
    dim = len(dims)
    if any(comp.dim != dim for comp in inst.components):
        raise ValueError("component dimension differs from torus dimension")
    check_volume(dims)
    # A class map holds a torus offset ball per key vertex, which fits in
    # the Lee ball over the axes above 1 and in 2t + 1 residues per axis.
    ball = min(ball_size(sum(d > 1 for d in dims), inst.t),
               prod(min(d, 2 * inst.t + 1) for d in dims))
    # Raw offsets from the first vertex w, flattened and unreduced, ->
    # (class, u) with anchor w + u (None for an anchor w): a translate that
    # wraps like one met before builds no tuple per vertex, and only a new
    # wrap pattern reduces its offsets and takes them to _canonical.
    seen: dict[tuple[int, ...], tuple[int, Optional[Point]]] = {}
    classes: dict[tuple[Point, ...], int] = {}
    anchors: list[list[Point]] = []
    members: list[list[int]] = []
    for cid, comp in enumerate(inst.components):
        verts = comp.vertices
        w = verts[0] if verts else (0,) * dim
        raw = tuple(map(sub, chain.from_iterable(verts), cycle(w)))
        hit = seen.get(raw)
        if hit is None:
            cells = min(inst.volume, len(verts) * ball)
            if cells > MAX_CLASS_CELLS:
                raise ValueError(f"component {cid} may reach {cells} torus cells, more "
                                 f"than the verifier's limit of {MAX_CLASS_CELLS}")
            offsets = tuple(zip(*[map(mod, map(sub, map(itemgetter(i), verts),
                                              repeat(w[i])), repeat(d))
                                  for i, d in enumerate(dims)]))
            canon, u = _canonical(offsets, dims)
            hit = seen[raw] = (classes.setdefault(canon, len(classes)),
                               u if any(u) else None)
            if len(classes) > len(anchors):
                anchors.append([])
                members.append([])
        k, u = hit
        anchors[k].append(w if u is None else tuple(map(mod, map(add, w, u), dims)))
        members[k].append(cid)
    return _Classes(list(classes), anchors, members)


def _canonical(offsets: tuple[Point, ...], dims: Sequence[int]
               ) -> tuple[tuple[Point, ...], Point]:
    """``(canon, u)``: a vertex set's sorted offsets from its vertex u, mod
    the torus, the same for every translate of the set.  u starts a run on
    each axis (its predecessor there is absent; on an axis along which the
    set is invariant, it has coordinate 0) or, if no vertex does, is any
    vertex; ``canon`` is the least over these.  A box has one such u, its
    corner, so its class costs one sort.
    """
    cands = pts = set(offsets)
    for i, d in enumerate(dims):
        def has_pred(p):
            return p[:i] + ((p[i] - 1) % d,) + p[i + 1:] in pts
        invariant = all(map(has_pred, pts))     # along axis i
        cands = {p for p in cands if (p[i] == 0 if invariant else not has_pred(p))}
    return min(((tuple(sorted(tuple(map(mod, map(sub, p, u), dims)) for p in offsets)), u)
                for u in cands or pts), default=((), (0,) * len(dims)))


def _box_violations(inst: PDDSInstance, classes: _Classes) -> list[Violation]:
    """component_not_box violations, in component order.

    Members of one translation class are the same vertex set moved on the
    torus, so ``lattice.is_box`` runs once per class, on its first member;
    every member of a failing class still gets its own vertex and message.
    """
    want = tuple(sorted(inst.h_spec.extents))
    failing: dict[int, str] = {}        # component id -> what is wrong
    for ids in classes.members:
        comp = inst.components[ids[0]]
        spec = is_box(comp, inst.torus)
        if spec is None:
            detail = (f"({len(comp)} vertices) does not induce an "
                      f"axis-aligned box on the torus")
        elif tuple(sorted(spec.extents)) != want:
            detail = (f"is a box of extents {spec.extents}, not an "
                      f"axis permutation of {inst.h_spec.extents}")
        else:
            continue
        failing.update(dict.fromkeys(ids, detail))
    return [Violation(inst.components[cid].vertices[0], "component_not_box",
                      f"component {cid} {failing[cid]}") for cid in sorted(failing)]


def coverage(inst: PDDSInstance) -> tuple[list[int], bytearray, dict[int, list[int]]]:
    """The service map: which components reach each torus vertex within t.

    Returns ``(comp_of, count_of, multi)``, indexed by row-major flat index
    (``lattice.strides``).  ``comp_of[f]`` is the least component within
    distance t (-1 for none) and ``count_of[f]`` its number of nearest
    vertices (capped at 255; 0 for none); ``multi[f]`` lists, in order,
    every component within t of a vertex that several reach.  Raises
    ValueError for a component whose dimension is not the torus's, a torus
    above ``MAX_VOLUME`` or a class map above ``MAX_CLASS_CELLS``.
    """
    return _coverage(inst, _translation_classes(inst))


def _coverage(inst: PDDSInstance, classes: _Classes):
    """:func:`coverage` from the instance's translation classes.

    Members of a class are translates: one local map, shifted to all
    members' anchors at once, serves the whole class.  Classes are written
    in turn, so a cell's owner is the least component id reaching it and
    its ``multi`` list is sorted at the end: the arrays a plain
    per-component loop in component order would give.  Two arrays are
    written per cell; a cell's cover (none, one or several components) is
    read off ``comp_of`` and ``multi``.
    """
    dims = inst.torus
    comp_of = [-1] * inst.volume
    count_of = bytearray(inst.volume)  # minimizer count within the covering component
    multi: dict[int, list[int]] = {}   # flat -> list of covering component ids
    for key, anchors, ids in zip(classes.keys, classes.anchors, classes.members):
        local = nearest_within(key, inst.t, dims)
        for flats, (_, cnt, _) in zip(shifted_flats(list(local), anchors, dims),
                                      local.values()):
            cnt = min(cnt, 255)
            for flat, cid in zip(flats, ids):
                owner = comp_of[flat]
                if owner < 0:
                    comp_of[flat] = cid
                    count_of[flat] = cnt
                    continue
                if flat in multi:
                    multi[flat].append(cid)
                else:
                    multi[flat] = [owner, cid]
                if cid < owner:
                    comp_of[flat] = cid
                    count_of[flat] = cnt
    for ids in multi.values():
        ids.sort()
    return comp_of, count_of, multi


def _exact_cover(inst: PDDSInstance, classes: _Classes) -> bool:
    """Is every torus vertex within t of exactly one component, with one
    nearest vertex in it?  The pass of :func:`verify_pdds`.

    Every local map must count one nearest vertex per cell, and its
    columns, written once per class into a byte per torus vertex, must
    mark every vertex with exactly as many writes as there are vertices.
    """
    dims = inst.torus
    volume = inst.volume
    hit = bytearray(volume)
    writes = 0
    for key, anchors in zip(classes.keys, classes.anchors):
        local = nearest_within(key, inst.t, dims)
        writes += len(local) * len(anchors)
        if writes > volume or any(cnt != 1 for _, cnt, _ in local.values()):
            return False
        for flats in shifted_flats(sorted(local), anchors, dims):
            for flat in flats:
                hit[flat] = 1
    return writes == volume and hit.count(1) == volume


# bytes.translate table: 1 -> 0, every other byte -> 1.
_NOT_ONE = bytes(int(b != 1) for b in range(256))


def flats_not_one(arr: bytes) -> list[int]:
    """The indices f with ``arr[f] != 1``, ascending.

    Made for the :func:`coverage` arrays, where 1 is the usual value: the
    scan is a translate to a 0/1 flag array and a ``find`` per hit, so
    the cells holding 1 never reach Python code.

    >>> flats_not_one(bytearray([1, 0, 1, 2, 1]))
    [1, 3]
    """
    flags = arr.translate(_NOT_ONE)
    out = []
    f = flags.find(1)
    while f >= 0:
        out.append(f)
        f = flags.find(1, f + 1)
    return out


def _verify_by_expansion(inst: PDDSInstance, classes: _Classes) -> list[Violation]:
    """Read the violations off the :func:`coverage` arrays.

    Only the cells that are not covered once with one nearest vertex are
    visited: those where ``count_of`` is not 1 (0 where uncovered) and
    those in ``multi``.
    """
    dims = inst.torus
    comp_of, count_of, multi = _coverage(inst, classes)
    violations = []
    for flat in sorted({*flats_not_one(count_of), *multi}):
        x = unflatten(flat, dims)
        if flat in multi:
            ids = ", ".join(str(c) for c in multi[flat])
            violations.append(Violation(
                x, "multi_component", f"components {ids} all within distance {inst.t}"))
        elif comp_of[flat] < 0:
            violations.append(Violation(
                x, "uncovered", f"no component within distance {inst.t}"))
        else:
            # No per-vertex distance array (it would cost a word per torus
            # vertex); recompute the one distance this rare message needs.
            cid = comp_of[flat]
            d = min(lee_distance(x, w, dims) for w in inst.components[cid].vertices)
            violations.append(Violation(
                x, "ambiguous_nearest",
                f"{count_of[flat]} nearest vertices in component {cid} at distance {d}"))
    return violations


def verify_pdds(inst: PDDSInstance, *, strict_box: bool = True) -> VerificationReport:
    """Check the perfect domination property vertex by vertex.

    Reports every violating vertex in canonical order, classified as
    uncovered / multi_component / ambiguous_nearest, plus (under
    ``strict_box``, the default) component_not_box for components that do
    not induce an axis-aligned box.  The report passes exactly when no
    violations are found.  The components are grouped into translation
    classes once; the exact-cover pass, the expansion (run only when that
    pass fails) and the box check all read that grouping.
    Raises ValueError past ``MAX_VOLUME`` or ``MAX_CLASS_CELLS``.
    """
    check_radius(inst.t)
    if not all(comp.vertices for comp in inst.components):
        raise ValueError("empty component")
    classes = _translation_classes(inst)
    violations = [] if _exact_cover(inst, classes) else _verify_by_expansion(inst, classes)
    if strict_box:
        violations.extend(_box_violations(inst, classes))
    violations.sort(key=lambda v: (v.vertex, v.kind))
    return VerificationReport(not violations, violations)


def verify_partition(inst: PDDSInstance, tile: Tile, hom: Homomorphism) -> bool:
    """Do the kernel-translates of the tile partition the instance's torus?

    For a homomorphism onto its group they do exactly when it maps
    ``tile.shape`` bijectively onto the group (the tiling-homomorphism
    correspondence), so once the torus is checked to be a period multiple
    under ``MAX_VOLUME`` this is :func:`check_bijection`.  A homomorphism
    not onto its group gets False, though a transversal of its image tiles
    the torus: no tile of it serves a construction.  A tile vertex of
    another dimension than the homomorphism's raises ValueError.
    """
    check_volume(check_periods(torus_periods(hom), inst.torus))
    return check_bijection(hom, tile.shape.vertices).ok

