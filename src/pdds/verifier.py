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

Verification expands each component's neighbourhood onto per-vertex
arrays and reads the violations off them; the arrays are public as
:func:`coverage`, the service map render draws.  The test suite keeps a
brute-force scan over all (vertex, component) pairs as its oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product as _cartesian
from math import prod
from operator import add, mod, sub
from typing import Iterator, NamedTuple, Optional, Sequence

from .abelian import (Homomorphism, check_bijection, check_periods,
                      syndrome_columns, syndrome_rank, syndrome_ranks,
                      torus_periods)
from .constructions import Construction, Tile
from .lattice import (MAX_VOLUME, BoxSpec, Point, Shape, check_radius,
                      check_torus, is_box, lee_distance, nearest_within,
                      shifted_flats, unflatten)


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

    @classmethod
    def loads(cls, text: str) -> "PDDSInstance":
        return cls.from_json(json.loads(text))


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

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _check_volume(dims: Sequence[int]) -> None:
    """ValueError for a torus above MAX_VOLUME, before anything is allocated."""
    if prod(dims) > MAX_VOLUME:
        raise ValueError(f"torus {tuple(dims)} has {prod(dims)} vertices, more than "
                         f"the verifier's limit of {MAX_VOLUME}")


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
    _check_volume(dims)

    # A tile that no longer maps bijectively cannot tile anything.
    res = check_bijection(hom, construction.tile.shape.vertices)
    if not res.ok:
        raise ValueError("construction corrupt: tile does not map bijectively "
                         f"onto the group: {res}")

    kernel = list(_kernel_elements(hom, dims))
    placed = sorted(tuple(sorted(tuple(map(mod, map(add, v, k), dims))
                                 for v in comp.vertices))
                    for comp in construction.tile.components() for k in kernel)
    return PDDSInstance(dims, construction.t, construction.h_spec,
                        [Shape(len(dims), verts) for verts in placed])


# --------------------------------------------------------------------------
# Verification.
# --------------------------------------------------------------------------

def _box_violations(inst: PDDSInstance, class_of: list[int]) -> list[Violation]:
    """component_not_box violations, in component order.

    Members of one translation class (``class_of``, from
    :func:`_translation_classes`) are the same vertex set moved on the
    torus, so ``lattice.is_box`` runs once per class, on its first member;
    every failing member still gets its own vertex and message.
    """
    want = tuple(sorted(inst.h_spec.extents))
    details: list[Optional[str]] = []   # per class: the failure, or None
    out = []
    for cid, k in enumerate(class_of):
        comp = inst.components[cid]
        if k == len(details):           # classes are numbered by first member
            spec = is_box(comp, inst.torus)
            if spec is None:
                details.append(f"({len(comp)} vertices) does not induce an "
                               f"axis-aligned box on the torus")
            elif tuple(sorted(spec.extents)) != want:
                details.append(f"is a box of extents {spec.extents}, not an "
                               f"axis permutation of {inst.h_spec.extents}")
            else:
                details.append(None)
        if details[k] is not None:
            out.append(Violation(comp.vertices[0], "component_not_box",
                                 f"component {cid} {details[k]}"))
    return out


class _Classes(NamedTuple):
    keys: list[tuple[Point, ...]]
    anchors: list[list[Point]]
    class_of: list[int]


def _translation_classes(inst: PDDSInstance) -> _Classes:
    """The components grouped by vertex set modulo torus translation.

    Components share a class exactly when they are torus translates,
    however they wrap the seam.  Classes are numbered by first member:
    ``keys[k]`` is their canonical offsets (:func:`_canonical`),
    ``anchors[k]`` per member in order an a with key + a equal to it mod
    the torus, ``class_of[cid]`` the class of component cid.  Raises
    ValueError for a component whose dimension is not the torus's and for
    a torus above ``MAX_VOLUME``: every verify path starts here.
    """
    dims = inst.torus
    if any(comp.dim != inst.dim for comp in inst.components):
        raise ValueError("component dimension differs from torus dimension")
    _check_volume(dims)
    # Offsets from the first vertex w, in vertex order, -> (class, u) with
    # anchor w + u: a translate that wraps like one met before needs no sort.
    seen: dict[tuple[Point, ...], tuple[int, Point]] = {}
    classes: dict[tuple[Point, ...], int] = {}
    anchors: list[list[Point]] = []
    class_of = []
    for comp in inst.components:
        w = comp.vertices[0] if comp.vertices else (0,) * len(dims)
        key = tuple(tuple(map(mod, map(sub, v, w), dims)) for v in comp.vertices)
        if key not in seen:
            canon, u = _canonical(key, dims)
            seen[key] = (classes.setdefault(canon, len(classes)), u)
            if len(classes) > len(anchors):
                anchors.append([])
        k, u = seen[key]
        anchors[k].append(tuple(map(mod, map(add, w, u), dims)) if any(u) else w)
        class_of.append(k)
    return _Classes(list(classes), anchors, class_of)


def _canonical(offsets: tuple[Point, ...], dims: Sequence[int]
               ) -> tuple[tuple[Point, ...], Point]:
    """``(canon, u)``: a vertex set's sorted offsets from its vertex u, mod
    the torus, the same for every translate of the set.  u starts a run on
    each axis (its predecessor there is absent; on an axis along which the
    set is invariant, it has coordinate 0) or, if no vertex does, is any
    vertex; ``canon`` is the least over these.  A box has one such u.
    """
    pts = set(offsets)
    cands = pts
    for i, d in enumerate(dims):
        def has_pred(p):
            return p[:i] + ((p[i] - 1) % d,) + p[i + 1:] in pts
        invariant = all(map(has_pred, pts))     # along axis i
        cands = {p for p in cands if (p[i] == 0 if invariant else not has_pred(p))}
    return min(((tuple(sorted(tuple(map(mod, map(sub, p, u), dims)) for p in offsets)), u)
                for u in cands or pts), default=((), (0,) * len(dims)))


def coverage(inst: PDDSInstance) -> tuple[bytearray, list[int], bytearray,
                                          dict[int, list[int]]]:
    """The service map: which components reach each torus vertex within t.

    Returns ``(cover, comp_of, count_of, multi)``, indexed by row-major flat
    index (``lattice.strides``).  ``cover[f]`` is 0, 1 or 2 for no, one or
    several components within distance t; at 1, ``comp_of[f]`` is that
    component and ``count_of[f]`` its number of nearest vertices (capped at
    255); at 2, ``multi[f]`` lists every such component in order.  Raises
    ValueError for a component whose dimension is not the torus's and for a
    torus of more than ``MAX_VOLUME`` vertices.
    """
    return _coverage(inst, _translation_classes(inst))


def _coverage(inst: PDDSInstance, classes: _Classes):
    """:func:`coverage` from the instance's translation classes.

    Members of a class are translates: one local map, shifted to each
    member's anchor, serves the whole class.
    """
    dims = inst.torus
    volume = inst.volume
    shifts = []
    for key, anchors in zip(classes.keys, classes.anchors):
        local = nearest_within(key, inst.t, dims)
        counts = [min(cnt, 255) for _, cnt, _ in local.values()]
        shifts.append((shifted_flats(list(local), anchors, dims), counts))

    cover = bytearray(volume)          # 0, 1, or 2 components saturating
    comp_of = [-1] * volume
    count_of = bytearray(volume)       # minimizer count within the covering component
    multi: dict[int, list[int]] = {}   # flat -> list of covering component ids

    # Components are written in order (each class's generator advanced in
    # turn), so the first component to reach a cell owns it, as in a plain
    # per-component loop.
    for cid, k in enumerate(classes.class_of):
        flats, counts = shifts[k]
        for flat, cnt in zip(next(flats), counts):
            if cover[flat] == 0:
                cover[flat] = 1
                comp_of[flat] = cid
                count_of[flat] = cnt
            else:
                if cover[flat] == 1:
                    multi[flat] = [comp_of[flat]]
                    cover[flat] = 2
                multi[flat].append(cid)
    return cover, comp_of, count_of, multi


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
    visited: those where ``cover`` or ``count_of`` is not 1.
    """
    dims = inst.torus
    cover, comp_of, count_of, multi = _coverage(inst, classes)
    violations = []
    for flat in sorted({*flats_not_one(cover), *flats_not_one(count_of)}):
        state = cover[flat]
        x = unflatten(flat, dims)
        if state == 0:
            violations.append(Violation(
                x, "uncovered", f"no component within distance {inst.t}"))
        elif state == 1:
            # No per-vertex distance array (it would cost a word per torus
            # vertex); recompute the one distance this rare message needs.
            cid = comp_of[flat]
            d = min(lee_distance(x, w, dims) for w in inst.components[cid].vertices)
            violations.append(Violation(
                x, "ambiguous_nearest",
                f"{count_of[flat]} nearest vertices in component {cid} at distance {d}"))
        else:
            ids = ", ".join(str(c) for c in multi[flat])
            violations.append(Violation(
                x, "multi_component", f"components {ids} all within distance {inst.t}"))
    return violations


def verify_pdds(inst: PDDSInstance, *, strict_box: bool = True) -> VerificationReport:
    """Check the perfect domination property vertex by vertex.

    Reports every violating vertex in canonical order, classified as
    uncovered / multi_component / ambiguous_nearest, plus (under
    ``strict_box``, the default) component_not_box for components that do
    not induce an axis-aligned box.  The report passes exactly when no
    violations are found.  The components are grouped into translation
    classes once; the expansion and the box check both read that grouping.
    Raises ValueError for a torus of more than ``MAX_VOLUME`` vertices.
    """
    check_radius(inst.t)
    if not all(comp.vertices for comp in inst.components):
        raise ValueError("empty component")
    classes = _translation_classes(inst)
    violations = _verify_by_expansion(inst, classes)
    if strict_box:
        violations.extend(_box_violations(inst, classes.class_of))
    violations.sort(key=lambda v: (v.vertex, v.kind))
    return VerificationReport(not violations, violations)


def verify_partition(inst: PDDSInstance, tile: Tile, hom: Homomorphism) -> bool:
    """Do the kernel-translates of the tile partition the instance's torus?

    True exactly when every torus vertex lands in exactly one translate of
    ``tile.shape`` by a kernel element.  This is the geometric face of the
    tile-to-group bijection: it holds iff check_bijection reports ok.
    """
    dims = check_periods(torus_periods(hom), inst.torus)
    _check_volume(dims)
    volume = prod(dims)
    tile_verts = tile.shape.vertices
    if not tile_verts or volume % len(tile_verts):
        return False
    covered = bytearray(volume)
    total = 0
    for flats in shifted_flats(tile_verts, _kernel_elements(hom, dims), dims):
        for flat in flats:
            if covered[flat]:
                return False
            covered[flat] = 1
        total += len(flats)
    return total == volume


def is_lattice_like(inst: PDDSInstance) -> bool:
    """Is the instance a lattice of translates of a single component?

    True when the components form one translation class
    (:func:`_translation_classes`) and the anchors' offsets from the first
    anchor, mod the torus, are closed under subtraction (i.e. form a
    subgroup of the torus).  Intended for instances that already passed
    verification.
    """
    dims = inst.torus
    classes = _translation_classes(inst)
    if len(classes.keys) != 1:
        return not inst.components
    anchors = classes.anchors[0]
    offsets = {tuple(map(mod, map(sub, a, anchors[0]), dims)) for a in anchors}

    # Subgroup test by incremental closure: grow the subgroup generated by
    # the offsets, bailing out as soon as it leaves the offset set.
    subgroup: set[Point] = {(0,) * len(dims)}
    for z in sorted(offsets):
        if z in subgroup:
            continue
        # Join <subgroup, z>: add cosets subgroup + k*z until they cycle.
        current = list(subgroup)
        shift = z
        while shift not in subgroup:
            for v in current:
                w = tuple(map(mod, map(add, v, shift), dims))
                if w not in offsets:
                    return False
                subgroup.add(w)
            shift = tuple(map(mod, map(add, shift, z), dims))
    return len(subgroup) == len(offsets)
