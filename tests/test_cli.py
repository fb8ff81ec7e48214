import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from pdds import cli
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


def test_groups_rejects_an_order_above_the_volume_cap_at_once(capsys):
    # trial division of this prime ran past a 10 s timeout; no tile the
    # verifier accepts has a group above MAX_VOLUME
    started = time.perf_counter()
    code, out, err = invoke(capsys, "groups", "--order", "1000000000000000003")
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert err.startswith("pdds groups:") and "between 1 and 16777216" in err


@pytest.mark.parametrize("command", ["verify", "decode", "render"])
def test_deeply_nested_json_exits_one_without_traceback(capsys, tmp_path, command):
    # 200,000 nested arrays escaped cli.run as a RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    extra = ["--vertex", "0"] if command == "decode" else []
    code, out, err = invoke(capsys, command, str(path), *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"pdds {command}:") and "nests too deeply" in err


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


def write_mislabeled(tmp_path):
    """plc1(n=2) on its torus, declared as 2 x 1 boxes: passes only when
    the box check is off."""
    inst = instantiate_on_torus(plc_n1(2))
    mislabeled = {
        "torus": [5, 5], "t": 1, "h": {"extents": [2, 1]},
        "components": [[list(v) for v in comp.vertices]
                       for comp in inst.components],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(mislabeled))
    return path


def test_verify_strict_box_flag(capsys, tmp_path):
    path = write_mislabeled(tmp_path)
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


def test_one_run_leaks_nothing_into_the_next(capsys, tmp_path, monkeypatch):
    # One process, one parser: every call gives what a freshly built parser
    # gives, whatever the calls before it set or failed on.
    odd = write_mislabeled(tmp_path)
    con = tmp_path / "plc.json"
    con.write_text(plc_n1(2).dumps())
    sequence = [
        ("verify", str(odd), "--strict-box", "false"),
        ("verify", str(odd)),
        ("decode", str(con), "--vertex=-1,-3", "--torus", "10,10"),
        ("decode", str(con), "--vertex=-1,-3"),
        ("groups", "--order"),
        ("--version",),
        ("--help",),
        ("groups", "--order", "9"),
    ]

    def fresh(argv):
        monkeypatch.setattr(cli, "_parser", None)
        return invoke(capsys, *argv)

    want = [fresh(argv) for argv in sequence]
    assert [code for code, _, _ in want] == [0, 1, 0, 0, 2, 0, 0, 0]
    assert json.loads(want[2][1])["device"] == [9, 8]
    assert json.loads(want[3][1])["device"] == [4, 3]
    monkeypatch.setattr(cli, "_parser", None)
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: builds.append(1) or build())
    got = [invoke(capsys, *argv) for argv in sequence]
    assert got == want
    assert len(builds) == 1


def test_importing_the_cli_builds_no_parser():
    # the first run() builds it, so an import costs nothing extra
    src = Path(cli.__file__).resolve().parent.parent
    probe = "import pdds.cli as c; assert c._parser is None"
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
                                  ("path2d", "--t", "1000000", "--k", "1"),
                                  # 8.4 M vertices: minutes and about 20 GB
                                  ("path2d", "--t", "1447", "--k", "1",
                                   "--variant", "two")])
def test_construct_rejects_tiles_over_the_limit(capsys, argv):
    started = time.perf_counter()
    code, out, err = invoke(capsys, "construct", "--family", *argv)
    assert time.perf_counter() - started < 0.1
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


def _traced(call):
    """call() and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_of_a_huge_group_order_exits_one_and_stays_small(capsys, tmp_path):
    # q3 with one modulus of 2**24 took about 1 GB to answer not_surjective
    blob = pdds1_q3().to_json()
    blob["hom"]["moduli"][0] = 2**24
    path = tmp_path / "q3.json"
    path.write_text(json.dumps(blob))
    (code, out, err), peak = _traced(
        lambda: invoke(capsys, "decode", str(path), "--vertex", "0,0,0"))
    assert code == 1 and out == ""
    assert err.startswith("pdds decode:") and "group of order" in err
    assert peak < 4 * 2**20


def test_verify_of_one_vertex_reaching_a_whole_ring_exits_one_and_stays_small(
        capsys, tmp_path):
    # 81 bytes: at 2^18 vertices verify took 1.3 s and 160 MB, and this
    # ring of 2^24 passes the volume check
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"torus": [2**24], "t": 2**23, "h": {"extents": [1]},
                                "components": [[[0]]]}))
    (code, out, err), peak = _traced(lambda: invoke(capsys, "verify", str(path)))
    assert code == 1 and out == ""
    assert err.startswith("pdds verify:") and "limit" in err
    assert peak < 64 * 2**20


def test_render_of_an_instance_over_the_volume_cap_exits_one(capsys, tmp_path):
    # (5, 5_000_000) used to draw in 6.5 s at 2.2 GB
    blob = {"torus": [5, 5_000_000], "t": 0, "h": {"extents": [1, 1]},
            "components": [[[0, 0]]]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(blob))
    (code, out, err), peak = _traced(
        lambda: invoke(capsys, "render", str(path), "--labels", "component_ids"))
    assert code == 1 and out == ""
    assert err.startswith("pdds render:") and "limit" in err
    assert peak < 4 * 2**20


@pytest.mark.parametrize("change, message", [
    ({"torus": [True, 5]}, "torus dimensions must be positive integers"),
    ({"torus": [0, 5]}, "torus dimensions must be positive integers"),
    ({"torus": [5.5, 5]}, "torus dimensions must be positive integers"),
    ({"torus": [1_000_000, 1_000_000]}, "more than the verifier's limit"),
    ({"h": {"extents": [1, 1, 1]}}, "box spec h has 3 axes, torus has 2"),
    ({"components": [[]]}, "empty component"),
    ({"components": [[[0, 0, 0]]]}, "declared dim 2 != vertex dim 3"),
])
@pytest.mark.parametrize("argv", [["verify"], ["decode", "--vertex=0,0"],
                                  ["render", "--labels", "component_ids"]])
def test_malformed_instance_exits_one_from_every_command(capsys, tmp_path, argv,
                                                         change, message):
    # render of an empty component used to exit 0 and draw it
    blob = dict({"torus": [4, 4], "t": 1, "h": {"extents": [1, 1]},
                 "components": [[[0, 0]]]}, **change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    cmd, *rest = argv
    code, out, err = invoke(capsys, cmd, str(path), *rest)
    assert code == 1 and out == ""
    assert err.startswith(f"pdds {cmd}: ") and message in err


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
