import re
from collections import Counter

import pytest

from pdds.constructions import (
    nonlattice_p2_example,
    pdds1_q3,
    pdds1_square,
    pdds_t_box2xk_2d,
    pdds_t_path_2d,
    plc_n1,
)
from pdds.lattice import BoxSpec, t_neighborhood, translate
from pdds.render import (RenderSpec, _labels_and_fills, render, render_ascii,
                         render_svg)
from pdds.verifier import PDDSInstance, instantiate_on_torus


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


def test_devices_labels_match_per_component_neighborhoods():
    blanks = contested = 0
    for c in (plc_n1(2), pdds1_square(0), pdds1_q3(), nonlattice_p2_example(),
              pdds_t_path_2d(2, 2, "two_copy"), pdds_t_box2xk_2d(1, 2, "single_copy")):
        inst = instantiate_on_torus(c)
        comps = inst.components
        # Drop one component (its neighborhood goes unserved), and repeat
        # one a step over along the first axis (contested vertices).
        step = (1,) + (0,) * (inst.dim - 1)
        for variant in (comps, comps[1:], comps + [translate(comps[0], step, inst.torus)]):
            candidate = PDDSInstance(inst.torus, inst.t, inst.h_spec, variant)
            _, labels, _ = _labels_and_fills(candidate, RenderSpec("svg", "devices"), None)
            want = reference_devices(candidate)
            assert labels == want, c.h_spec
            blanks += inst.volume - len(want)
            contested += sum(text == "?" for text in want.values())
    assert blanks > 0 and contested > 0


def test_unsupported_dimensions_raise():
    q3 = pdds1_q3()
    with pytest.raises(ValueError):
        render(q3, RenderSpec("ascii", "group_elements"))
    plc4 = plc_n1(4)
    with pytest.raises(ValueError):
        render(plc4, RenderSpec("ascii", "group_elements"))
    with pytest.raises(ValueError):
        render(plc4, RenderSpec("svg", "group_elements"))


def test_group_elements_requires_construction():
    inst = instantiate_on_torus(pdds1_square(0))
    with pytest.raises(ValueError):
        render(inst, RenderSpec("ascii", "group_elements"))


def test_instance_torus_override_rejected():
    inst = instantiate_on_torus(pdds1_square(0))
    with pytest.raises(ValueError):
        render_ascii(inst, RenderSpec("ascii", "component_ids"), (12, 4))


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
    svg = render_svg(instantiate_on_torus(pdds1_square(0)),
                     RenderSpec("svg", "component_ids"))
    fills = set(re.findall(r'fill="(#[0-9a-f]{6})"', svg))
    assert "#ffffff" in fills        # unset cells
    assert len(fills) == 3           # two components + background
