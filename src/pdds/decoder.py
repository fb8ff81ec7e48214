"""Syndrome decoding: nearest device lookup in constant time.

For a construction whose tile maps bijectively onto its group, every grid or
torus vertex x determines a syndrome phi(x), and the unique tile vertex v
with the same syndrome satisfies x = v + z for a kernel element z.  The
tile's label at v already knows v's component and nearest device, and kernel
translation preserves all distances — so decoding x is one table lookup plus
a translation, no search.

Everything that depends only on the table is computed once when it is
built: the period torus, one generator column per cyclic factor (so the
syndrome rank of x is a dot product per factor), and per rank the Lee
distance from v to its device on the period torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mod, sub
from typing import NamedTuple, Optional, Sequence

from .abelian import (Homomorphism, SyndromeColumns, check_bijection,
                      check_periods, syndrome_columns, syndrome_rank,
                      torus_periods)
from .constructions import Tile
from .lattice import Point, TorusDims, check_point, torus_norm


class DecodeResult(NamedTuple):
    """Nearest device, that component's translated anchor, and the distance."""

    device: Point
    component_anchor: Point
    distance: int

    def to_json(self) -> dict:
        return {"device": list(self.device),
                "component_anchor": list(self.component_anchor),
                "distance": self.distance}


class SyndromeEntry(NamedTuple):
    """The tile vertex carrying one syndrome, its component and its device."""

    vertex: Point
    component: tuple[Point, ...]   # the vertices of its component
    device: Point
    distance: int          # from vertex to device, on the period torus


@dataclass
class SyndromeTable:
    """Precomputed syndrome-rank index over a tile's labels.

    ``entries[r]`` is the tile vertex whose syndrome has mixed-radix rank r
    (see ``AbelianGroup.element_rank``), with its component's vertices
    (to report the anchor of the translate that served a query) and its
    device.  ``columns`` is ``abelian.syndrome_columns(hom)``, which ranks
    a query by one dot product per cyclic factor.
    """

    periods: TorusDims
    columns: SyndromeColumns
    entries: list[SyndromeEntry]


def build_syndrome_table(tile: Tile, hom: Homomorphism) -> SyndromeTable:
    """Index a tile's labels by syndrome rank.

    Requires the tile-to-group bijection to hold (raises ValueError with the
    collision or missing witness otherwise); the table then has exactly one
    entry per group element.
    """
    res = check_bijection(hom, tile.shape.vertices)
    if not res.ok:
        raise ValueError(f"tile does not map bijectively onto the group: {res}")
    periods = torus_periods(hom)
    columns = syndrome_columns(hom)
    components = {cid: tile.component(cid).vertices for cid in tile.component_ids()}
    entries: list[Optional[SyndromeEntry]] = [None] * hom.group.order
    for v in tile.shape.vertices:
        cid, device = tile.labels[v]
        entries[syndrome_rank(columns, v)] = SyndromeEntry(
            v, components[cid], device, torus_norm(map(sub, device, v), periods))
    return SyndromeTable(periods, columns, entries)


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
    v, component, device, distance = table.entries[syndrome_rank(table.columns, x)]
    z = tuple(map(sub, x, v))
    # The anchor is the least vertex of the component *after* torus reduction
    # (reduction can reorder vertices, e.g. when a component straddles 0).
    anchor = min(tuple(map(mod, map(add, u, z), dims)) for u in component)
    if torus is not None:
        distance = torus_norm(map(sub, device, v), dims)
    return DecodeResult(tuple(map(mod, map(add, device, z), dims)), anchor, distance)
