"""Exhaustive search for perfect distance-dominating sets on small tori.

The defining property partitions the torus into the t-neighborhoods of the
components, so existence of a t-PDDS[H] is an exact-cover question: choose
box placements whose neighborhoods tile the vertex set.  The search
enumerates every allowed placement as flat torus indices, then runs a
deterministic backtracker (Algorithm X in bitset form; Knuth, "Dancing
Links", arXiv:cs/0011047), always branching on the lowest uncovered vertex
and trying its placements in canonical order.  Its state is a cell bitset
(the cover) and a placement bitset (the placements that still fit), so one
AND gives a branch vertex's candidates; each placement's conflict mask is
built the first time it is placed.  A "found" result carries a verified
instance; "exhausted" means the enumeration completed and is a proof of
nonexistence on that torus (for the given orientation set).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations, product as _cartesian
from math import prod
from typing import NamedTuple, Optional

from .lattice import (BoxSpec, Point, Shape, box_shape, check_radius,
                      check_torus, is_box, is_int, nearest_within,
                      shifted_flats, unflatten)
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
        torus = tuple(self.torus)
        if len(torus) != self.h_spec.dim:
            raise ValueError(f"box spec h has {self.h_spec.dim} axes, "
                             f"torus has {len(torus)}")
        object.__setattr__(self, "torus", check_torus(self.h_spec.dim, torus))
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
    # decided_by ("divisibility" | "search"), placements, placements_ms, dfs_ms
    stats: dict

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "nodes_explored": self.nodes_explored,
            "wall_time_ms": self.wall_time_ms,
            "stats": dict(self.stats),
            "instance": None if self.instance is None else self.instance.to_json(),
        }


def _allowed_orientations(
        problem: SearchProblem) -> dict[tuple[int, ...], tuple[Point, ...]]:
    """Distinct extent orderings that a t-PDDS on the torus can use, each
    with its box's t-neighborhood on the torus (sorted vertices).

    The box must stay a box on the torus (``lattice.is_box``): an extent
    equal to its torus dimension (above 1) would wrap the axis into a full
    ring, and a larger one repeats vertices (a box above the torus's volume
    is not built).  Such orientations are dropped entirely.  So are those
    whose neighborhood wraps far enough that some vertex has two nearest
    component vertices (a domino on a 3-ring at t = 1): no t-PDDS can use
    them, and translation preserves this, so one anchor decides it.
    """
    if problem.orientations == "fixed":
        candidates = [problem.h_spec.extents]
    else:
        candidates = sorted(set(permutations(problem.h_spec.extents)))
    dims, t = problem.torus, problem.t
    allowed = {}
    for exts in candidates:
        if prod(exts) <= problem.volume and is_box(box := box_shape(BoxSpec(exts)), dims):
            near = nearest_within(box.vertices, t, dims)
            if all(count == 1 for _, count, _ in near.values()):
                allowed[exts] = tuple(sorted(near))
    return allowed


def enumerate_placements(problem: SearchProblem) -> list[Placement]:
    """Every allowed (cells, component) pair, deduplicated, in canonical order.

    Components are box translates over all torus anchors and allowed
    orientations; cells are their t-neighborhoods on the torus.  Torus
    translation commutes with taking neighborhoods, so each orientation's
    box and neighborhood are built once and shifted.  Each placement
    appears once, ordered by (cells, component).
    """
    return _placements(problem, _allowed_orientations(problem))


def _placements(problem: SearchProblem,
                allowed: dict[tuple[int, ...], tuple[Point, ...]]) -> list[Placement]:
    """:func:`enumerate_placements` from the problem's
    :func:`_allowed_orientations`, so a caller that has them builds no
    orientation's torus map twice."""
    dims = problem.torus
    found = set()
    for exts, cells in allowed.items():
        box = box_shape(BoxSpec(exts))
        k = len(cells)
        # Cells and box are shifted together over all anchors, one column
        # per vertex; zipped, one tuple per anchor, then split.
        anchors = _cartesian(*(range(d) for d in dims))
        found.update((tuple(sorted(flats[:k])), tuple(sorted(flats[k:])))
                     for flats in zip(*shifted_flats(cells + box.vertices, anchors, dims)))
    return [Placement(*p) for p in sorted(found)]


def _dfs(placements: list[Placement],
         volume: int) -> tuple[Optional[list[int]], int]:
    """Deterministic least-cell backtracker over placement bitsets.

    ``on_cell[c]`` is the bitset of the placements whose cells include c,
    and p's conflict mask is the OR of ``on_cell`` over p's cells (so p
    itself is in it).  ``alive`` holds the placements that share no cell
    with a placed one, i.e. those that fit the cover.  Each frame branches
    on the lowest uncovered cell v and tries ``on_cell[v] & alive`` lowest
    bit first, in canonical (index) order; placing p ORs p's cells into the
    cover and clears p's conflict mask from ``alive``.  This is the tree of
    trying, at v, every placement that covers v and fits, so the nodes and
    any solution are those of a cover-testing walk over each cell's
    placements.

    A placement's cell mask and conflict mask (kept complemented) are
    built when it is first placed, so only placements the walk reaches pay
    for a len(placements)-bit mask; eager masks for all 12,288 placements
    of a domino on (16, 16, 16) would take about 19 MB.

    Returns (solution or None, nodes), where nodes counts every placement
    tried; the count is a pure function of the problem, independent of
    timing.  Iterative so that deep covers (thousands of small placements)
    cannot hit the recursion limit.
    """
    on_cell = [0] * volume
    for i, pl in enumerate(placements):
        bit = 1 << i
        for c in pl.cells:
            on_cell[c] |= bit
    everyone = (1 << len(placements)) - 1
    # (cell mask, complement of the conflict mask), built on first placement
    masks: list[Optional[tuple[int, int]]] = [None] * len(placements)
    full = (1 << volume) - 1
    nodes = 0
    path: list[int] = []
    # One frame per branch cell: its untried candidates, and the cover and
    # alive set of the path that reached it.  A placement that leaves the
    # next branch cell no candidate is counted and dropped without a frame.
    frames = [[on_cell[0], 0, everyone]]
    while frames:
        frame = frames[-1]
        cand, cover, alive = frame
        if not cand:
            frames.pop()
            if path:
                path.pop()
            continue
        low = cand & -cand
        frame[0] = cand ^ low
        p = low.bit_length() - 1
        nodes += 1
        pm = masks[p]
        if pm is None:
            cells = placements[p].cells
            conflict = 0
            for c in cells:
                conflict |= on_cell[c]
            pm = masks[p] = (sum(1 << c for c in cells), everyone ^ conflict)
        cells_mask, keep = pm
        cover |= cells_mask
        if cover == full:
            path.append(p)
            return path, nodes
        alive &= keep
        uncovered = full ^ cover
        nxt = on_cell[(uncovered & -uncovered).bit_length() - 1] & alive
        if nxt:
            path.append(p)
            frames.append([nxt, cover, alive])
    return None, nodes


def _count_excludes(problem: SearchProblem,
                    allowed: dict[tuple[int, ...], tuple[Point, ...]]) -> bool:
    """Does counting cells alone rule out every cover?

    ``allowed`` is :func:`_allowed_orientations` of the problem.  The count
    runs only when some orientation is allowed and none wraps its
    neighborhood (every extent + 2t fits within its axis): then every
    placement claims |H*| cells, the torus neighborhood's size equals the
    grid's, and a cover needs |H*| to divide the cells.  At t = 0 a
    placement is its box, so an axis on which every orientation has extent
    1 keeps it in one slice across that axis; each slice is covered on its
    own and the count leaves those axes out.
    """
    dims, t = problem.torus, problem.t
    if not allowed or any(e + 2 * t > d for exts in allowed
                          for e, d in zip(exts, dims)):
        return False
    hstar = len(next(iter(allowed.values())))
    cells = problem.volume if t else prod(
        d for i, d in enumerate(dims) if any(exts[i] > 1 for exts in allowed))
    return cells % hstar != 0


def exact_cover_search(problem: SearchProblem, *,
                       max_cells: Optional[int] = None) -> SearchResult:
    """Decide existence of a t-PDDS[H] on the torus by exhaustive exact cover.

    Deterministic: node counts and any found instance depend only on the
    problem.

    The torus volume is capped (default 4096 cells; override with the
    ``max_cells`` argument, a positive int).  The cap bounds the cover's
    bits and, through the placement count (volume times orientations),
    the width of the placement bitsets and of each conflict mask, as well
    as the exhaustive tree.

    A found instance is re-verified before being returned.  When the
    neighborhood size |H*| does not divide the torus volume (at t = 0, the
    cells of one slice) and no allowed orientation can wrap-compress its
    neighborhood, the cover is impossible by counting and the search
    reports exhausted without enumerating (see ``_count_excludes``).  With
    no allowed orientation the search runs on no placements (0 nodes).
    ``stats`` says which of the two decided the outcome and where the time
    went.
    """
    start = time.perf_counter()
    if max_cells is not None and not (is_int(max_cells) and max_cells >= 1):
        raise ValueError(
            f"max_cells must be a positive integer, got {max_cells!r}")
    volume = problem.volume
    cap = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    if volume > cap:
        raise ValueError(
            f"torus volume {volume} exceeds the cell cap {cap}; raise it via "
            f"max_cells if you really want an exhaustive search this large")

    def _elapsed_ms() -> int:
        return int((time.perf_counter() - start) * 1000)

    # The orientation maps feed the count and the placements alike; their
    # time is placement time when the search runs.
    enum_start = time.perf_counter()
    allowed = _allowed_orientations(problem)
    if _count_excludes(problem, allowed):
        stats = {"decided_by": "divisibility", "placements": 0,
                 "placements_ms": 0.0, "dfs_ms": 0.0}
        return SearchResult("exhausted", None, 0, _elapsed_ms(), stats)

    placements = _placements(problem, allowed)
    dfs_start = time.perf_counter()
    # The first branch vertex is the lowest cell, i.e. the origin, so fixing
    # the first placement to one covering it is the only symmetry breaking.
    chosen, nodes = _dfs(placements, volume)
    stats = {"decided_by": "search", "placements": len(placements),
             "placements_ms": round((dfs_start - enum_start) * 1000, 3),
             "dfs_ms": round((time.perf_counter() - dfs_start) * 1000, 3)}
    if chosen is None:
        return SearchResult("exhausted", None, nodes, _elapsed_ms(), stats)
    dims = problem.torus
    comps = [Shape.of((unflatten(c, dims) for c in flats), dim=len(dims))
             for flats in sorted(placements[p].component for p in chosen)]
    inst = PDDSInstance(dims, problem.t, problem.h_spec, comps)
    report = verify_pdds(inst)
    if not report.passed:
        raise RuntimeError(
            "internal error: exact cover produced an instance that fails "
            f"verification: {report.to_json()['violations'][:3]}")
    return SearchResult("found", inst, nodes, _elapsed_ms(), stats)
