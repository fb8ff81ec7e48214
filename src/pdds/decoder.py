"""Syndrome decoding: nearest device lookup in constant time.

For a construction whose tile maps bijectively onto its group, every grid or
torus vertex x determines a syndrome phi(x), and the unique tile vertex v
with the same syndrome satisfies x = v + z for a kernel element z.  The
tile's label at v already knows v's component and nearest device, and kernel
translation preserves all distances — so decoding x is one table lookup plus
a translation, no search.

Everything that depends only on the table is computed once when it is
built, from the ranks the bijection check gives the tile's vertices: the
period torus, one generator column per cyclic factor (so the syndrome rank
of x is a dot product per factor), per rank the Lee distance from v to its
device on the period torus, and per component one record that all its
entries share.  The record holds the component's vertices and, when they
fill a box on the grid, its corner c and extents e.

The anchor reported with a decoding is the least vertex of the serving
translate after torus reduction.  A box reduces to a product of per-axis
intervals, and the least element of a product is the tuple of per-axis
minima, so the anchor costs O(n): ``a_i = (c_i + z_i) mod d_i``, or 0
where ``a_i + e_i > d_i`` and the interval wraps past the seam.  A
component that is not a box, which only a loaded file can give, takes the
least of its translated vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mod, sub
from typing import NamedTuple, Optional, Sequence

from .abelian import (Homomorphism, SyndromeColumns, check_bijection,
                      check_periods, syndrome_columns, syndrome_rank,
                      torus_periods)
from .constructions import Tile
from .lattice import Point, TorusDims, box_runs, check_point, torus_norm


class DecodeResult(NamedTuple):
    """Nearest device, that component's translated anchor, and the distance."""

    device: Point
    component_anchor: Point
    distance: int

    def to_json(self) -> dict:
        return {"device": list(self.device),
                "component_anchor": list(self.component_anchor),
                "distance": self.distance}


class Component(NamedTuple):
    """A tile component's vertices, with its corner and extents if it is a box.

    ``corner`` and ``extents`` are ``lattice.box_runs`` of the vertices on
    the grid, None when the vertices do not fill a box.
    """

    vertices: tuple[Point, ...]
    corner: Optional[Point]
    extents: Optional[tuple[int, ...]]


class SyndromeEntry(NamedTuple):
    """The tile vertex carrying one syndrome, its component and its device."""

    vertex: Point
    component: Component   # shared by every entry of the component
    device: Point
    distance: int          # from vertex to device, on the period torus


@dataclass
class SyndromeTable:
    """Precomputed syndrome-rank index over a tile's labels.

    ``entries[r]`` is the tile vertex whose syndrome has mixed-radix rank r
    (its residues dotted with ``lattice.strides`` of the moduli), with its
    component (to report the anchor of the translate that served a query)
    and its device.
    ``columns`` is ``abelian.syndrome_columns(hom)``, which ranks a query
    by one dot product per cyclic factor.
    """

    periods: TorusDims
    columns: SyndromeColumns
    entries: list[SyndromeEntry]


def build_syndrome_table(tile: Tile, hom: Homomorphism) -> SyndromeTable:
    """Index a tile's labels by syndrome rank.

    Requires the tile-to-group bijection to hold (raises ValueError with the
    collision or missing witness otherwise); the table then has exactly one
    entry per group element, read off the ranks the bijection check found.
    """
    res = check_bijection(hom, tile.shape.vertices)
    if not res.ok:
        raise ValueError(f"tile does not map bijectively onto the group: {res}")
    periods = torus_periods(hom)
    components = {cid: Component(comp.vertices,
                                 *(box_runs(comp.vertices, None) or (None, None)))
                  for cid, comp in tile.components_by_id().items()}
    entries = []
    norms: dict[Point, int] = {}   # vertex-to-device offset -> its length
    for v in map(res.vertex_of_rank.__getitem__, range(hom.group.order)):
        cid, device = tile.labels[v]
        offset = tuple(map(sub, device, v))
        if offset not in norms:
            norms[offset] = torus_norm(offset, periods)
        entries.append(SyndromeEntry(v, components[cid], device, norms[offset]))
    return SyndromeTable(periods, syndrome_columns(hom), entries)


def decode(table: SyndromeTable, x: Sequence[int],
           torus: Optional[Sequence[int]] = None) -> DecodeResult:
    """Nearest device to x on the torus (default: the period torus).

    Each torus dimension must be a positive multiple of its axis's period,
    so that syndromes — and hence the decoding — descend to the torus.  The
    returned distance never exceeds the construction's radius t on a valid
    table, since translation by the kernel preserves the tile-local
    distance.
    """
    dims = table.periods if torus is None else check_periods(table.periods, torus)
    x = check_point(x)
    if len(x) != len(dims):
        raise ValueError(f"vertex has {len(x)} coordinates, expected {len(dims)}")
    v, component, tile_device, distance = table.entries[syndrome_rank(table.columns, x)]
    z = tuple(map(sub, x, v))
    device = tuple(map(mod, map(add, tile_device, z), dims))
    # The anchor is the least vertex of the translate *after* torus reduction
    # (reduction can reorder vertices, e.g. when a component straddles 0).
    vertices, corner, extents = component
    if extents is None:
        anchor = min(tuple(map(mod, map(add, u, z), dims)) for u in vertices)
    else:                          # per-axis minima, 0 where an interval wraps
        anchor = tuple(a if a + e <= d else 0 for a, e, d in
                       zip(map(mod, map(add, corner, z), dims), extents, dims))
    if torus is not None:
        distance = torus_norm(map(sub, tile_device, v), dims)
    return DecodeResult(device, anchor, distance)
