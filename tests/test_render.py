import re
import sys
from collections import Counter
from itertools import product as _cartesian
from math import prod
from typing import Optional

import pytest

from pdds.abelian import syndrome_columns, syndrome_rank, torus_periods
from pdds.constructions import (
    Construction,
    minkowski_p2,
    nonlattice_p2_example,
    pdds1_q3,
    pdds1_square,
    pdds_t_box2xk_2d,
    pdds_t_path_2d,
    plc_n1,
)
from pdds.lattice import BoxSpec, Shape, strides, t_neighborhood, translate
from pdds.render import (_CELL, _PALETTE, _SLICE_GAP, FORMATS, LABEL_MODES,
                         RenderSpec, _labels_and_fills, render)
from pdds.verifier import (PDDSInstance, coverage, instantiate_on_torus,
                           verify_pdds)
from test_acceptance import CATALOG


def test_render_spec_validation():
    RenderSpec("ascii", "group_elements")
    with pytest.raises(ValueError):
        RenderSpec("png", "group_elements")
    with pytest.raises(ValueError):
        RenderSpec("ascii", "syndromes")


def test_square0_ascii_residue_grid():
    text = render(pdds1_square(0), RenderSpec("ascii", "group_elements"))
    rows = text.rstrip("\n").split("\n")
    assert len(rows) == 4
    grid = [row.split() for row in rows]
    assert all(len(row) == 6 for row in grid)
    counts = Counter(int(cell) for row in grid for cell in row)
    assert counts == {r: 2 for r in range(12)}


def test_ascii_axis_two_increases_upward():
    text = render(pdds1_square(0), RenderSpec("ascii", "group_elements"))
    rows = [row.split() for row in text.rstrip("\n").split("\n")]
    # the bottom row is x2 = 0, where the label is just 2*x1 mod 12
    assert [int(v) for v in rows[-1]] == [(2 * x) % 12 for x in range(6)]
    # one row up adds the second generator image, 3
    assert [int(v) for v in rows[-2]] == [(2 * x + 3) % 12 for x in range(6)]


def test_empty_instance_renders_blank_grid():
    inst = PDDSInstance((4, 3), 1, BoxSpec((1, 1)), [])
    text = render(inst, RenderSpec("ascii", "component_ids"))
    assert text == "\n" * 3


def test_component_ids_label_only_set_vertices():
    c = pdds1_square(0)
    inst = instantiate_on_torus(c)
    text = render(inst, RenderSpec("ascii", "component_ids"))
    labels = sum(row.split().__len__() for row in text.splitlines())
    assert labels == sum(len(comp) for comp in inst.components)


def test_devices_mode_shows_service_regions():
    text = render(pdds1_square(0), RenderSpec("ascii", "devices"))
    cells = text.split()
    starred = [c for c in cells if c.endswith("*")]
    plain = [c for c in cells if not c.endswith("*")]
    assert len(starred) == 8          # two 2x2 components
    assert len(plain) == 16           # every other vertex is served
    assert not any(c == "?" for c in cells)


def reference_devices(inst):
    """Service-map labels from one torus t-neighborhood per component."""
    members = {u for comp in inst.components for u in comp}
    claimed, contested = {}, set()
    for ci, comp in enumerate(inst.components):
        for u in t_neighborhood(comp, inst.t, inst.torus):
            if u in claimed:
                contested.add(u)
            else:
                claimed[u] = ci
    return {u: "?" if u in contested else f"{ci}*" if u in members else str(ci)
            for u, ci in claimed.items()}


_VARIANT_SOURCES = (plc_n1(2), pdds1_square(0), pdds1_q3(), nonlattice_p2_example(),
                    pdds_t_path_2d(2, 2, "two_copy"), pdds_t_box2xk_2d(1, 2, "single_copy"))


def variant_instances():
    """Each source's instance, with one component dropped (its neighborhood
    goes unserved), and with one repeated a step over along the first axis
    (contested vertices)."""
    for c in _VARIANT_SOURCES:
        inst = instantiate_on_torus(c)
        comps = inst.components
        step = (1,) + (0,) * (inst.dim - 1)
        for variant in (comps, comps[1:], comps + [translate(comps[0], step, inst.torus)]):
            yield PDDSInstance(inst.torus, inst.t, inst.h_spec, variant)


def test_devices_labels_match_per_component_neighborhoods():
    blanks = contested = 0
    for candidate in variant_instances():
        _, labels, _ = _labels_and_fills(candidate, RenderSpec("svg", "devices"), None)
        want = reference_devices(candidate)
        # The reference is keyed by vertex; the labels are in flat order.
        row_strides = strides(candidate.torus)
        flat_want = [""] * candidate.volume
        for u, text in want.items():
            flat_want[sum(c * s for c, s in zip(u, row_strides))] = text
        assert labels == flat_want, candidate.h_spec
        blanks += candidate.volume - len(want)
        contested += sum(text == "?" for text in want.values())
    assert blanks > 0 and contested > 0


# --------------------------------------------------------------------------
# The dict-keyed renderer the flat-list one replaced, kept as the reference.
# --------------------------------------------------------------------------

def _reference_labels_and_fills(obj, spec, torus):
    """(dims, labels, comp_index): dicts keyed by vertex tuple; absent
    vertices are blank / uncolored."""
    if isinstance(obj, Construction):
        con = obj
        inst = instantiate_on_torus(con, torus)
    else:
        con = None
        inst = obj
    dims = inst.torus
    comp_index = {}
    for ci, comp in enumerate(inst.components):
        for u in comp:
            comp_index[u] = ci
    labels = {}
    if spec.label_mode == "group_elements":
        columns = syndrome_columns(con.hom)
        for v in _cartesian(*(range(d) for d in dims)):
            labels[v] = str(syndrome_rank(columns, v))
    elif spec.label_mode == "component_ids":
        for u, ci in comp_index.items():
            labels[u] = str(ci)
    else:
        comp_of, _, multi = coverage(inst)
        vertices = _cartesian(*(range(d) for d in dims))
        for f, (u, ci) in enumerate(zip(vertices, comp_of)):
            if f in multi:
                labels[u] = "?"
            elif ci >= 0:
                labels[u] = f"{ci}*" if u in comp_index else str(ci)
    return dims, labels, comp_index


def _reference_render_ascii(obj, spec, torus=None):
    dims, labels, _ = _reference_labels_and_fills(obj, spec, torus)
    width = max((len(s) for s in labels.values()), default=1)
    lines = []
    for x2 in range(dims[1] - 1, -1, -1):
        row = [labels.get((x1, x2), "").rjust(width) for x1 in range(dims[0])]
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines) + "\n"


def _reference_svg_slice(out, origin_x, dims2, at):
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


def _reference_render_svg(obj, spec, torus=None):
    dims, labels, comp_index = _reference_labels_and_fills(obj, spec, torus)
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
        for v, ci in comp_index.items():
            if len(dims) == 3 and v[2] != s:
                continue
            key = (v[0], v[1])
            if key not in at:
                at[key] = ("", ci)
            elif at[key][1] is None:
                at[key] = (at[key][0], ci)
        _reference_svg_slice(out, s * (grid_w * _CELL + _SLICE_GAP), (grid_w, grid_h), at)
    out.append("</svg>")
    return "\n".join(out) + "\n"


_REFERENCE = {"ascii": _reference_render_ascii, "svg": _reference_render_svg}


def test_render_matches_reference_on_catalog():
    cases = [(name, c, FORMATS) for name, c in CATALOG
             if len(torus_periods(c.hom)) == 2 and prod(torus_periods(c.hom)) <= 20_000]
    cases += [("q3", pdds1_q3(), ("svg",)), ("minkowski", minkowski_p2(), ("svg",))]
    assert len(cases) == 74
    for name, c, formats in cases:
        for fmt in formats:
            for mode in LABEL_MODES:
                spec = RenderSpec(fmt, mode)
                assert render(c, spec) == _REFERENCE[fmt](c, spec), (name, fmt, mode)


def test_render_matches_reference_on_broken_instances():
    for inst in variant_instances():
        formats = FORMATS if inst.dim == 2 else ("svg",)
        for fmt in formats:
            for mode in ("component_ids", "devices"):
                spec = RenderSpec(fmt, mode)
                assert render(inst, spec) == _REFERENCE[fmt](inst, spec), (inst.torus, fmt, mode)


def test_unreduced_instance_renders_like_reduced():
    # square(k=0)'s component at the origin, written as x1 - 6 on its (6, 4)
    # torus: verify reduces it, and so must render.
    inst = instantiate_on_torus(pdds1_square(0))
    moved = Shape.of((x1 - 6, x2) for x1, x2 in inst.components[0])
    unreduced = PDDSInstance(inst.torus, inst.t, inst.h_spec, [moved, *inst.components[1:]])
    assert verify_pdds(unreduced).passed
    for fmt in FORMATS:
        for mode in ("component_ids", "devices"):
            spec = RenderSpec(fmt, mode)
            assert render(unreduced, spec) == render(inst, spec), (fmt, mode)


def test_unsupported_dimensions_raise():
    q3 = pdds1_q3()
    with pytest.raises(ValueError):
        render(q3, RenderSpec("ascii", "group_elements"))
    plc4 = plc_n1(4)
    with pytest.raises(ValueError):
        render(plc4, RenderSpec("ascii", "group_elements"))
    with pytest.raises(ValueError):
        render(plc4, RenderSpec("svg", "group_elements"))


def test_axis_count_is_checked_before_labelling(monkeypatch):
    # minkowski used to be instantiated and labelled (54,872 vertices)
    # before the ascii render raised
    def fail(*args, **kwargs):
        raise AssertionError("labelled before the axis check")
    inst = PDDSInstance((3, 3, 3), 1, BoxSpec((1, 1, 1)), [Shape.of([(0, 0, 0)])])
    module = sys.modules[render.__module__]
    monkeypatch.setattr(module, "instantiate_on_torus", fail)
    monkeypatch.setattr(module, "coverage", fail)
    for obj in (minkowski_p2(), inst):
        with pytest.raises(ValueError, match="ascii rendering needs a 2-axis torus, got 3"):
            render(obj, RenderSpec("ascii", "devices"))
    with pytest.raises(ValueError, match="svg rendering needs 2 or 3 axes, got 4"):
        render(plc_n1(4), RenderSpec("svg", "devices"))


def test_component_dimension_must_match_torus():
    # render cannot be handed such an instance: making it raises.
    with pytest.raises(ValueError, match="component dimension differs"):
        PDDSInstance((4, 3), 1, BoxSpec((1, 1)), [Shape.of([(0, 0, 0)])])


def test_group_elements_requires_construction():
    inst = instantiate_on_torus(pdds1_square(0))
    with pytest.raises(ValueError):
        render(inst, RenderSpec("ascii", "group_elements"))


def test_instance_torus_override_rejected():
    inst = instantiate_on_torus(pdds1_square(0))
    with pytest.raises(ValueError):
        render(inst, RenderSpec("ascii", "component_ids"), (12, 4))


def test_svg_planar_structure():
    svg = render(pdds1_square(0), RenderSpec("svg", "group_elements"))
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect ") == 24
    assert svg.count("<text ") == 24
    # integer geometry only
    assert not re.search(r'[xy]="[0-9]+\.', svg)


def test_svg_three_axis_slices():
    svg = render(pdds1_q3(), RenderSpec("svg", "group_elements"))
    assert svg.count("<rect ") == 64
    # four slices of a 4x4 grid, positioned at distinct horizontal offsets
    xs = {int(m) for m in re.findall(r'<rect x="(\d+)"', svg)}
    assert len(xs) == 16


def test_renders_are_deterministic():
    for spec in (RenderSpec("ascii", "group_elements"),
                 RenderSpec("svg", "component_ids"),
                 RenderSpec("ascii", "devices")):
        a = render(nonlattice_p2_example(), spec)
        b = render(nonlattice_p2_example(), spec)
        assert a == b


def test_render_svg_colors_components_distinctly():
    svg = render(instantiate_on_torus(pdds1_square(0)),
                 RenderSpec("svg", "component_ids"))
    fills = set(re.findall(r'fill="(#[0-9a-f]{6})"', svg))
    assert "#ffffff" in fills        # unset cells
    assert len(fills) == 3           # two components + background
