import io
import json

import pytest

from pdds.cli import run
from pdds.constructions import pdds1_q3, plc_n1
from pdds.verifier import PDDSInstance, instantiate_on_torus, verify_pdds


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_and_help(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    code, out, _ = invoke(capsys, "--help")
    assert code == 0


def test_groups_order_nine(capsys):
    code, out, _ = invoke(capsys, "groups", "--order", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["groups"] == [[9], [3, 3]]


def test_construct_and_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "q3.json"
    code, out, _ = invoke(capsys, "construct", "--family", "q3",
                          "-o", str(path))
    assert code == 0 and out == ""
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0
    cli_report = json.loads(out)
    in_memory = verify_pdds(instantiate_on_torus(pdds1_q3()))
    assert cli_report == in_memory.to_json()
    assert cli_report["pass"] is True


def test_verify_reads_stdin(capsys, monkeypatch):
    blob = pdds1_q3().dumps()
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, _ = invoke(capsys, "verify", "-")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_failing_instance_exits_one(capsys, tmp_path):
    inst = instantiate_on_torus(pdds1_q3())
    broken = PDDSInstance(inst.torus, inst.t, inst.h_spec,
                          list(inst.components[1:]))
    path = tmp_path / "broken.json"
    path.write_text(broken.dumps())
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["violations"]


def test_verify_strict_box_flag(capsys, tmp_path):
    inst = instantiate_on_torus(plc_n1(2))
    mislabeled = {
        "torus": [5, 5], "t": 1, "h": {"extents": [2, 1]},
        "components": [[list(v) for v in comp.vertices]
                       for comp in inst.components],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(mislabeled))
    code, _, _ = invoke(capsys, "verify", str(path))
    assert code == 1
    code, _, _ = invoke(capsys, "verify", str(path), "--strict-box", "false")
    assert code == 0


@pytest.mark.parametrize("ring", [[[0], [1], [2]], [[0], [1], [5]]])
def test_verify_rejects_full_ring_written_unreduced(capsys, tmp_path, ring):
    # 5 = 2 mod 3: both components are the whole 3-ring, not a box translate.
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"torus": [3], "t": 0, "h": {"extents": [3]},
                                "components": [ring]}))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 1
    kinds = {v["kind"] for v in json.loads(out)["violations"]}
    assert kinds == {"component_not_box"}


def test_construct_parameter_errors(capsys):
    code, _, err = invoke(capsys, "construct", "--family", "path")
    assert code == 2
    assert "requires --n" in err
    code, _, err = invoke(capsys, "construct", "--family", "q3", "--k", "3")
    assert code == 2
    assert "does not take" in err
    code, _, err = invoke(capsys, "construct", "--family", "nosuch")
    assert code == 2


@pytest.mark.parametrize("argv", [("path", "--n", "2", "--k", "1000000000"),
                                  ("path2d", "--t", "1000000", "--k", "1")])
def test_construct_rejects_tiles_over_the_limit(capsys, argv):
    code, out, err = invoke(capsys, "construct", "--family", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("pdds construct:") and "more than the limit" in err


def test_construct_family_parameters(capsys):
    code, out, _ = invoke(capsys, "construct", "--family", "box2xk",
                          "--t", "2", "--k", "1", "--variant", "two")
    assert code == 0
    blob = json.loads(out)
    assert blob["hom"]["moduli"] == [6, 6]
    code, out, _ = invoke(capsys, "construct", "--family", "plc1",
                          "--n", "4", "--group", "3,3")
    assert code == 0
    assert json.loads(out)["hom"]["moduli"] == [3, 3]


def test_decode_command(capsys, tmp_path):
    path = tmp_path / "q3.json"
    invoke(capsys, "construct", "--family", "q3", "-o", str(path))
    code, out, _ = invoke(capsys, "decode", str(path), "--vertex", "2,0,0")
    assert code == 0
    assert json.loads(out) == {"device": [1, 0, 0],
                               "component_anchor": [0, 0, 0], "distance": 1}
    code, _, err = invoke(capsys, "decode", str(path), "--vertex", "2,0,0",
                          "--torus", "3,3,3")
    assert code == 1 and "period" in err


def test_search_command_exit_codes(capsys):
    code, out, _ = invoke(capsys, "search", "--torus", "5,5", "--t", "1",
                          "--H", "1,1")
    assert code == 0
    assert json.loads(out)["outcome"] == "found"
    code, out, _ = invoke(capsys, "search", "--torus", "7,7", "--t", "1",
                          "--H", "3,3")
    assert code == 3
    assert json.loads(out)["outcome"] == "exhausted"
    code, _, err = invoke(capsys, "search", "--torus", "100,100", "--t", "1",
                          "--H", "1,1")
    assert code == 1 and "cap" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_search_rejects_a_cell_cap_below_one(capsys, cap):
    # -3 used to be reported as "exceeds the cell cap -3"
    code, out, err = invoke(capsys, "search", "--torus", "5,5", "--t", "1",
                            "--H", "1,1", "--max-cells", cap)
    assert code == 1 and out == ""
    assert err.startswith("pdds search: max_cells must be a positive integer")


def test_search_names_both_axis_counts(capsys):
    code, _, err = invoke(capsys, "search", "--torus", "5,5", "--t", "1",
                          "--H", "1")
    assert code == 1
    assert "pdds search: box spec h has 1 axes, torus has 2" in err


def test_render_command(capsys, tmp_path):
    path = tmp_path / "sq0.json"
    invoke(capsys, "construct", "--family", "square", "--k", "0",
           "-o", str(path))
    code, out, _ = invoke(capsys, "render", str(path))
    assert code == 0
    assert len(out.rstrip("\n").split("\n")) == 4
    code, out, _ = invoke(capsys, "render", str(path), "--format", "svg",
                          "--labels", "component_ids")
    assert code == 0
    assert out.startswith("<svg ")


def test_render_instance_file(capsys, tmp_path):
    inst = instantiate_on_torus(plc_n1(2))
    path = tmp_path / "inst.json"
    path.write_text(inst.dumps())
    code, out, _ = invoke(capsys, "render", str(path),
                          "--labels", "component_ids")
    assert code == 0
    assert len(out.split()) == 5      # five singleton codewords


def test_bad_json_and_unknown_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{\"neither\": true}")
    code, _, err = invoke(capsys, "verify", str(path))
    assert code == 1 and "neither" in err
    code, _, _ = invoke(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "groups", "--order", "9", "--bogus")
    assert code == 2
    code, _, _ = invoke(capsys, "nosuchcommand")
    assert code == 2


@pytest.mark.parametrize("t", [None, -1])
def test_verify_rejects_bad_t_without_traceback(capsys, tmp_path, t):
    for kind, blob in (("instance", instantiate_on_torus(plc_n1(2)).to_json()),
                       ("construction", plc_n1(2).to_json())):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(dict(blob, t=t)))
        code, out, err = invoke(capsys, "verify", str(path))
        assert code == 1 and out == "", kind
        assert err.startswith("pdds verify:") and "nonnegative integer" in err, kind


def test_mistyped_json_field_exits_one(capsys, tmp_path):
    blob = instantiate_on_torus(plc_n1(2)).to_json()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(blob, torus=5)))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1 and out == "" and err.startswith("pdds verify:")


def test_verify_rejects_fractional_torus_without_traceback(capsys, tmp_path):
    # used to load as (5, 5) and report a pass
    blob = instantiate_on_torus(plc_n1(2)).to_json()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(blob, torus=[5.9, 5.2])))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("pdds verify:") and "positive integers" in err
    assert "Traceback" not in err


def _fractional(kind):
    """Catalog JSON with one integer field replaced by a fraction."""
    if kind == "instance-vertex":
        blob = instantiate_on_torus(plc_n1(2)).to_json()
        blob["components"][0] = [[0.5, 0.5]]
    else:
        blob = plc_n1(2).to_json()
        if kind == "generator":
            blob["hom"]["generators"][1] = [1.9]
        elif kind == "component-id":
            blob["tile"]["labels"][0]["component"] = 0.7
        else:
            blob["tile"]["labels"][0]["device"] = [0.5, "x"]
    return blob


@pytest.mark.parametrize("command, kind", [
    ("verify", "instance-vertex"), ("verify", "generator"),
    ("decode", "generator"), ("decode", "component-id"), ("decode", "device"),
])
def test_fractional_json_fields_exit_one_without_traceback(capsys, tmp_path,
                                                           command, kind):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_fractional(kind)))
    extra = ["--vertex", "1,2"] if command == "decode" else []
    code, out, err = invoke(capsys, command, str(path), *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"pdds {command}:") and "integer" in err
    assert "Traceback" not in err


def test_verify_instance_with_distance_256(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"torus": [512], "t": 256, "h": {"extents": [1]},
                                "components": [[[0]]]}))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("kind", ["instance", "construction"])
def test_verify_rejects_box_spec_of_other_dimension(capsys, tmp_path, kind):
    # both used to load and report component_not_box violations
    if kind == "instance":
        blob = dict(instantiate_on_torus(plc_n1(2)).to_json(), h={"extents": [1]})
    else:
        blob = dict(plc_n1(2).to_json(), h={"extents": [1, 1, 1]})
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("pdds verify:") and "box spec h has" in err
    assert "Traceback" not in err


def test_verify_rejects_oversized_torus_without_traceback(capsys, tmp_path):
    # used to raise MemoryError, which main printed as a traceback
    blob = dict(instantiate_on_torus(plc_n1(2)).to_json(), torus=[1_000_000, 1_000_000])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("pdds verify:") and "limit" in err


@pytest.mark.parametrize("command", ["verify", "decode"])
def test_untrusted_device_label_exits_one(capsys, tmp_path, command):
    # plc1(n=2) with the device of (1, 0) moved to (2, 2) used to decode
    # (1, 0) to (2, 2), at distance 3 > t
    blob = plc_n1(2).to_json()
    for entry in blob["tile"]["labels"]:
        if entry["v"] == [1, 0]:
            entry["device"] = [2, 2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    extra = ["--vertex", "1,0"] if command == "decode" else []
    code, out, err = invoke(capsys, command, str(path), *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"pdds {command}:") and "device (2, 2)" in err
