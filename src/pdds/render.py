"""Figure-style rendering of constructions and instances.

Planar grids render as fixed-width text or SVG; three-dimensional tori
render as SVG with one planar slice per value of the third coordinate, laid
side by side.  All geometry uses integer pixel coordinates and all output is
deterministic, so renders are stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .abelian import syndrome_columns, syndrome_ranks
from .constructions import Construction
from .lattice import TorusDims, shifted_flats
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
                          TorusDims, list[str], list[Optional[int]]]:
    """Resolve the torus, the per-vertex label text, and component fills.

    Returns (dims, labels, fills), one entry per row-major flat index
    (``lattice.strides``): ``labels[f]`` is the text of vertex f ("" for
    blank) and ``fills[f]`` the index of the last component holding it
    (None for uncolored).  Component vertices are reduced mod the torus,
    as the verifier reduces them.
    """
    if isinstance(obj, Construction):
        con = obj
        inst = instantiate_on_torus(con, torus)
    else:
        con = None
        inst = obj
        if torus is not None and tuple(torus) != inst.torus:
            raise ValueError("an instance carries its own torus; drop the override")
    dims = inst.torus
    # Every component vertex's flat index, in component order, and its
    # component; a later component overwrites an earlier one's fill.
    member_ids = [ci for ci, comp in enumerate(inst.components) for _ in comp.vertices]
    members = next(shifted_flats([(0,) * len(dims)],
                                 [v for comp in inst.components for v in comp.vertices], dims))
    fills: list[Optional[int]] = [None] * inst.volume
    for f, ci in zip(members, member_ids):
        fills[f] = ci
    # Component ids as text; index -1 (no component) is blank.
    comp_names = [*map(str, range(len(inst.components))), ""]

    if spec.label_mode == "group_elements":
        if con is None:
            raise ValueError("group_elements labeling requires a construction "
                             "(an instance has no group structure)")
        names = [str(r) for r in range(con.hom.group.order)]
        labels = [names[r] for r in syndrome_ranks(syndrome_columns(con.hom), dims)]
    elif spec.label_mode == "component_ids":
        labels = ["" if ci is None else comp_names[ci] for ci in fills]
    else:
        # devices: the service map, read off the verifier's coverage arrays.
        # Every vertex shows the component whose neighborhood claims it;
        # device vertices (set members) are starred, contested vertices
        # show "?", unserved vertices stay blank.  Members are always
        # claimed (at distance 0), so only contested cells override a star.
        comp_of, _, multi = coverage(inst)
        labels = [comp_names[ci] for ci in comp_of]     # comp_of is -1 if unserved
        for f in set(members):
            labels[f] += "*"
        for f in multi:
            labels[f] = "?"
    return dims, labels, fills


def _axis_count(obj: Union[Construction, PDDSInstance]) -> int:
    """The number of torus axes a render of obj has, known before labelling."""
    if isinstance(obj, Construction):
        return obj.hom.dim
    if isinstance(obj, PDDSInstance):
        return obj.dim
    raise TypeError(f"cannot render {type(obj).__name__}")


def render(obj: Union[Construction, PDDSInstance], spec: RenderSpec,
           torus: Optional[TorusDims] = None) -> str:
    """Render in ``spec.format``: ascii, a planar grid as fixed-width text,
    second axis increasing upward; svg, a planar grid or side-by-side
    planar slices of a 3-axis torus."""
    axes = _axis_count(obj)
    if spec.format == "ascii":
        if axes != 2:
            raise ValueError(f"ascii rendering needs a 2-axis torus, got {axes}")
        dims, labels, _ = _labels_and_fills(obj, spec, torus)
        width = max(map(len, labels))
        padded = [s.rjust(width) for s in labels]
        # Row x2 holds flat indices x2, x2 + d2, ...: a stride slice.
        h = dims[1]
        lines = [" ".join(padded[x2::h]).rstrip() for x2 in range(h - 1, -1, -1)]
        return "\n".join(lines) + "\n"

    if axes not in (2, 3):
        raise ValueError(f"svg rendering needs 2 or 3 axes, got {axes}")
    dims, labels, fills = _labels_and_fills(obj, spec, torus)
    slices = 1 if len(dims) == 2 else dims[2]
    grid_w, grid_h = dims[0], dims[1]
    total_w = slices * grid_w * _CELL + (slices - 1) * _SLICE_GAP
    total_h = grid_h * _CELL
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
           f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">']
    # Slice s, row x2 holds flat indices x2 * slices + s + k * step, one
    # per column x1: a stride slice of the flat lists.
    step = grid_h * slices
    for s in range(slices):
        origin_x = s * (grid_w * _CELL + _SLICE_GAP)
        rect_x = [f'<rect x="{origin_x + x1 * _CELL}" y="' for x1 in range(grid_w)]
        text_x = [f'<text x="{origin_x + x1 * _CELL + _CELL // 2}" y="'
                  for x1 in range(grid_w)]
        for x2 in range(grid_h - 1, -1, -1):
            py = (grid_h - 1 - x2) * _CELL
            rect_y = f'{py}" width="{_CELL}" height="{_CELL}" fill="'
            text_y = (f'{py + _CELL // 2 + 4}" font-family="monospace" '
                      f'font-size="10" text-anchor="middle">')
            start = x2 * slices + s
            cells = []
            for rx, tx, ci, text in zip(rect_x, text_x, fills[start::step],
                                        labels[start::step]):
                color = "#ffffff" if ci is None else _PALETTE[ci % len(_PALETTE)]
                cells.append(f'{rx}{rect_y}{color}" stroke="#777777"/>')
                if text:
                    cells.append(f'{tx}{text_y}{text}</text>')
            # One string per row, so the per-cell strings do not all live
            # at once: they are most of a large render's peak memory.
            out.append("\n".join(cells))
    out.append("</svg>\n")     # the final newline, without copying the whole text
    return "\n".join(out)

