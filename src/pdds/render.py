"""Figure-style rendering of constructions and instances.

Planar grids render as fixed-width text or SVG; three-dimensional tori
render as SVG with one planar slice per value of the third coordinate, laid
side by side.  All geometry uses integer pixel coordinates and all output is
deterministic, so renders are stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Optional, Union

from .abelian import syndrome_columns, syndrome_rank
from .constructions import Construction
from .lattice import Point, TorusDims
from .verifier import PDDSInstance, coverage, instantiate_on_torus

FORMATS = ("ascii", "svg")
LABEL_MODES = ("group_elements", "component_ids", "devices")

# Fill colors for component-keyed cells, cycled by component index.
_PALETTE = (
    "#aecbfa", "#f8b9aa", "#b7e1cd", "#fde49b", "#d7baf5", "#f9c5d8",
    "#c6e2e9", "#ffd8b1", "#d3e29b", "#e2c6c6", "#bfd8bd", "#e9d8a6",
)

_CELL = 26          # pixel edge of one grid cell
_SLICE_GAP = 18     # horizontal gap between consecutive slices (3-D)


@dataclass(frozen=True)
class RenderSpec:
    """Output format and per-vertex labeling rule for a render."""

    format: str = "ascii"
    label_mode: str = "group_elements"

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; choose from {FORMATS}")
        if self.label_mode not in LABEL_MODES:
            raise ValueError(
                f"unknown label mode {self.label_mode!r}; choose from {LABEL_MODES}")


def _labels_and_fills(obj: Union[Construction, PDDSInstance], spec: RenderSpec,
                      torus: Optional[TorusDims]) -> tuple[
                          TorusDims, dict[Point, str], dict[Point, int]]:
    """Resolve the torus, the per-vertex label text, and component fills.

    Returns (dims, labels, comp_index); vertices absent from ``labels`` are
    blank, vertices absent from ``comp_index`` are uncolored.
    """
    if isinstance(obj, Construction):
        con = obj
        inst = instantiate_on_torus(con, torus)
    elif isinstance(obj, PDDSInstance):
        con = None
        inst = obj
        if torus is not None and tuple(torus) != inst.torus:
            raise ValueError("an instance carries its own torus; drop the override")
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    dims = inst.torus

    comp_index: dict[Point, int] = {}
    for ci, comp in enumerate(inst.components):
        for u in comp:
            comp_index[u] = ci

    labels: dict[Point, str] = {}
    if spec.label_mode == "group_elements":
        if con is None:
            raise ValueError("group_elements labeling requires a construction "
                             "(an instance has no group structure)")
        columns = syndrome_columns(con.hom)
        for v in _cartesian(*(range(d) for d in dims)):
            labels[v] = str(syndrome_rank(columns, v))
    elif spec.label_mode == "component_ids":
        for u, ci in comp_index.items():
            labels[u] = str(ci)
    else:
        # devices: the service map, read off the verifier's coverage arrays
        # (row-major flat order is lexicographic vertex order).  Every vertex
        # shows the component whose neighborhood claims it; device vertices
        # (set members) are starred, contested vertices show "?", unserved
        # vertices stay blank.
        cover, comp_of, _, _ = coverage(inst)
        vertices = _cartesian(*(range(d) for d in dims))
        for u, state, ci in zip(vertices, cover, comp_of):
            if state == 2:
                labels[u] = "?"
            elif state == 1:
                labels[u] = f"{ci}*" if u in comp_index else str(ci)
    return dims, labels, comp_index


def render_ascii(obj: Union[Construction, PDDSInstance], spec: RenderSpec,
                 torus: Optional[TorusDims] = None) -> str:
    """Planar grid as fixed-width text, second axis increasing upward."""
    dims, labels, _ = _labels_and_fills(obj, spec, torus)
    if len(dims) != 2:
        raise ValueError(f"ascii rendering needs a 2-axis torus, got {len(dims)}")
    width = max((len(s) for s in labels.values()), default=1)
    lines = []
    for x2 in range(dims[1] - 1, -1, -1):
        row = [labels.get((x1, x2), "").rjust(width) for x1 in range(dims[0])]
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines) + "\n"


def _svg_slice(out: list[str], origin_x: int, dims2: tuple[int, int],
               at: "dict[tuple[int, int], tuple[str, Optional[int]]]") -> None:
    """Emit one planar grid of cells at the given horizontal pixel offset."""
    w, h = dims2
    for x2 in range(h - 1, -1, -1):
        for x1 in range(w):
            text, ci = at.get((x1, x2), ("", None))
            px = origin_x + x1 * _CELL
            py = (h - 1 - x2) * _CELL
            fill = "#ffffff" if ci is None else _PALETTE[ci % len(_PALETTE)]
            out.append(f'<rect x="{px}" y="{py}" width="{_CELL}" '
                       f'height="{_CELL}" fill="{fill}" stroke="#777777"/>')
            if text:
                out.append(f'<text x="{px + _CELL // 2}" y="{py + _CELL // 2 + 4}" '
                           f'font-family="monospace" font-size="10" '
                           f'text-anchor="middle">{text}</text>')


def render_svg(obj: Union[Construction, PDDSInstance], spec: RenderSpec,
               torus: Optional[TorusDims] = None) -> str:
    """Planar grid, or side-by-side planar slices of a 3-axis torus."""
    dims, labels, comp_index = _labels_and_fills(obj, spec, torus)
    if len(dims) not in (2, 3):
        raise ValueError(f"svg rendering needs 2 or 3 axes, got {len(dims)}")
    slices = 1 if len(dims) == 2 else dims[2]
    grid_w, grid_h = dims[0], dims[1]
    total_w = slices * grid_w * _CELL + (slices - 1) * _SLICE_GAP
    total_h = grid_h * _CELL
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
           f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">']
    for s in range(slices):
        at: dict[tuple[int, int], tuple[str, Optional[int]]] = {}
        for (v, text) in labels.items():
            if len(dims) == 3 and v[2] != s:
                continue
            at[(v[0], v[1])] = (text, comp_index.get(v))
        # Color set cells even when the label mode leaves them textless.
        for v, ci in comp_index.items():
            if len(dims) == 3 and v[2] != s:
                continue
            key = (v[0], v[1])
            if key not in at:
                at[key] = ("", ci)
            elif at[key][1] is None:
                at[key] = (at[key][0], ci)
        _svg_slice(out, s * (grid_w * _CELL + _SLICE_GAP), (grid_w, grid_h), at)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render(obj: Union[Construction, PDDSInstance], spec: RenderSpec,
           torus: Optional[TorusDims] = None) -> str:
    """Render to the requested format (see render_ascii / render_svg)."""
    if spec.format == "ascii":
        return render_ascii(obj, spec, torus)
    return render_svg(obj, spec, torus)
