"""Exhaustive search for perfect distance-dominating sets on small tori.

The defining property partitions the torus into the t-neighborhoods of the
components, so existence of a t-PDDS[H] is an exact-cover question: choose
box placements whose neighborhoods tile the vertex set.  The search
enumerates every allowed placement as flat torus indices, then runs a
deterministic destructive backtracker over bit-vector cell sets, always
branching on the lowest uncovered vertex in canonical order.  A "found"
result carries a verified instance; "exhausted" means the enumeration
completed and is a proof of nonexistence on that torus (for the given
orientation set).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import permutations, product as _cartesian
from math import prod
from typing import NamedTuple, Optional

from .lattice import (BoxSpec, Shape, box_shape, check_radius, check_torus,
                      shifted_flats, t_neighborhood, unflatten)
from .verifier import PDDSInstance, verify_pdds

DEFAULT_MAX_CELLS = 4096


@dataclass(frozen=True)
class SearchProblem:
    """A torus, a radius, a component box, and which orientations to allow.

    ``orientations`` is "all_axis_permutations" (components may be any axis
    permutation of the box) or "fixed" (exactly the given extents).
    """

    torus: tuple[int, ...]
    t: int
    h_spec: BoxSpec
    orientations: str = "all_axis_permutations"

    def __post_init__(self) -> None:
        object.__setattr__(self, "torus",
                           check_torus(self.h_spec.dim, tuple(self.torus)))
        check_radius(self.t)
        if self.orientations not in ("all_axis_permutations", "fixed"):
            raise ValueError(f"unknown orientation mode {self.orientations!r}")

    @property
    def volume(self) -> int:
        return prod(self.torus)


class Placement(NamedTuple):
    """One candidate component and the cell set its neighborhood claims.

    Both are sorted tuples of row-major flat torus indices
    (``lattice.strides``), so flat order is lexicographic vertex order.
    """

    cells: tuple[int, ...]
    component: tuple[int, ...]


@dataclass
class SearchResult:
    outcome: str                       # "found" | "exhausted"
    instance: Optional[PDDSInstance]
    nodes_explored: int
    wall_time_ms: int

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "nodes_explored": self.nodes_explored,
            "wall_time_ms": self.wall_time_ms,
            "instance": None if self.instance is None else self.instance.to_json(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _allowed_orientations(problem: SearchProblem) -> list[tuple[int, ...]]:
    """Distinct extent orderings that a t-PDDS on the torus can use.

    An extent equal to its torus dimension (above 1) would wrap the axis
    into a full ring, which is not a box translate on the torus; such
    orientations are dropped entirely.  So are orientations whose
    neighborhood wraps far enough that some vertex has two nearest
    component vertices (a domino on a 3-ring at t = 1): no t-PDDS can use
    them, and translation preserves this, so one anchor decides it.
    """
    if problem.orientations == "fixed":
        candidates = [problem.h_spec.extents]
    else:
        candidates = sorted(set(permutations(problem.h_spec.extents)))
    dims, t = problem.torus, problem.t
    return [exts for exts in candidates
            if all(e < d or (e == d == 1) for e, d in zip(exts, dims))
            and _nearest_is_unique(exts, t, dims)]


def _nearest_is_unique(exts: tuple[int, ...], t: int,
                       dims: tuple[int, ...]) -> bool:
    """Does every torus vertex within t of the box have one nearest box vertex?"""
    # Without wrap-compression (e + 2t <= d on every axis) the nearest
    # vertex is the per-axis clamp, which is unique.
    if all(e + 2 * t <= d for e, d in zip(exts, dims)):
        return True
    spec = BoxSpec(exts)
    alone = PDDSInstance(dims, t, spec, [box_shape(spec)])
    return all(v.kind != "ambiguous_nearest"
               for v in verify_pdds(alone, strict_box=False).violations)


def enumerate_placements(problem: SearchProblem) -> list[Placement]:
    """Every allowed (cells, component) pair, deduplicated, in canonical order.

    Components are box translates over all torus anchors and allowed
    orientations; cells are their t-neighborhoods on the torus.  Torus
    translation commutes with taking neighborhoods, so each orientation's
    box and neighborhood are built once and shifted.  Each placement
    appears once, ordered by (cells, component).
    """
    dims = problem.torus
    found = set()
    for exts in _allowed_orientations(problem):
        box = box_shape(BoxSpec(exts))
        cells = t_neighborhood(box, problem.t, dims).vertices
        k = len(cells)
        # Cells and box are shifted together, one list per anchor, then split.
        anchors = _cartesian(*(range(d) for d in dims))
        found.update((tuple(sorted(flats[:k])), tuple(sorted(flats[k:])))
                     for flats in shifted_flats(cells + box.vertices, anchors, dims))
    return [Placement(*p) for p in sorted(found)]


def _dfs(masks: list[int], by_vertex: list[list[int]],
         full: int) -> tuple[Optional[list[int]], int]:
    """Deterministic backtracker from the empty cover.

    Branches on the lowest uncovered vertex; placements are tried in
    canonical (index) order.  Returns (solution or None, nodes), where nodes
    counts every placement tried; the count is a pure function of the
    problem, independent of timing.  Iterative so that deep covers
    (thousands of small placements) cannot hit the recursion limit.
    """
    nodes = 0
    path: list[int] = []
    covers = [0]
    # Each frame is [candidate placement list, cursor] for one branch vertex.
    stack: list[list] = [[by_vertex[0], 0]]
    while stack:
        frame = stack[-1]
        candidates, idx = frame
        placed = False
        while idx < len(candidates):
            p = candidates[idx]
            idx += 1
            if masks[p] & covers[-1]:
                continue
            frame[1] = idx
            nodes += 1
            path.append(p)
            nxt = covers[-1] | masks[p]
            if nxt == full:
                return path, nodes
            covers.append(nxt)
            uncovered = ~nxt & full
            v = (uncovered & -uncovered).bit_length() - 1
            stack.append([by_vertex[v], 0])
            placed = True
            break
        if not placed:
            stack.pop()
            if stack:
                path.pop()
                covers.pop()
    return None, nodes


def exact_cover_search(problem: SearchProblem, *,
                       max_cells: Optional[int] = None) -> SearchResult:
    """Decide existence of a t-PDDS[H] on the torus by exhaustive exact cover.

    Deterministic: node counts and any found instance depend only on the
    problem.

    The torus volume is capped (default 4096 cells; override with the
    ``max_cells`` argument) since the cell bit-vectors and the exhaustive
    tree grow with volume.

    A found instance is re-verified before being returned.  When the
    neighborhood size |H*| does not divide the torus volume — and no allowed
    orientation can wrap-compress its neighborhood (every extent + 2t fits
    within its axis) — the cover is impossible by counting and the search
    reports exhausted without enumerating.
    """
    start = time.perf_counter()
    volume = problem.volume
    cap = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    if volume > cap:
        raise ValueError(
            f"torus volume {volume} exceeds the cell cap {cap}; raise it via "
            f"max_cells if you really want an exhaustive search this large")

    def _elapsed_ms() -> int:
        return int((time.perf_counter() - start) * 1000)

    hstar = len(t_neighborhood(box_shape(problem.h_spec), problem.t))
    orientations = _allowed_orientations(problem)
    never_compresses = all(
        e + 2 * problem.t <= d
        for exts in orientations for e, d in zip(exts, problem.torus))
    if volume % hstar and never_compresses:
        return SearchResult("exhausted", None, 0, _elapsed_ms())

    placements = enumerate_placements(problem)
    masks = [sum(1 << c for c in pl.cells) for pl in placements]
    by_vertex: list[list[int]] = [[] for _ in range(volume)]
    for idx, pl in enumerate(placements):
        for c in pl.cells:
            by_vertex[c].append(idx)
    full = (1 << volume) - 1

    # The first branch vertex is the lowest cell, i.e. the origin, so fixing
    # the first placement to one covering it is the only symmetry breaking.
    chosen, nodes = _dfs(masks, by_vertex, full)
    if chosen is None:
        return SearchResult("exhausted", None, nodes, _elapsed_ms())
    dims = problem.torus
    comps = [Shape.of((unflatten(c, dims) for c in flats), dim=len(dims))
             for flats in sorted(placements[p].component for p in chosen)]
    inst = PDDSInstance(dims, problem.t, problem.h_spec, comps)
    report = verify_pdds(inst)
    if not report.passed:
        raise RuntimeError(
            "internal error: exact cover produced an instance that fails "
            f"verification: {report.to_json()['violations'][:3]}")
    return SearchResult("found", inst, nodes, _elapsed_ms())
