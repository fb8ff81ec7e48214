"""The benchmark's own tests: metric coverage and a live correctness gate.

Run from the repository root with ``python3 -m pytest bench``.  Every run
here uses the seconds-long ``tiny`` plans, so the suite takes well under a
minute; the full plans are exercised by ``bench/run.py`` itself.
"""

import json

import pytest

import oracles
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload, trace, seed=3):
    return run.run(workload, seed, 0, trace, run.tiny(run.WORKLOADS[workload]))["result"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_with_its_unit(workload, trace):
    result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_wrong_oracle_answer_counts_as_failed(monkeypatch):
    baseline = _tiny_run("decode-cli", False)
    assert baseline["correct"] is True
    monkeypatch.setattr(oracles, "abelian_group_count", lambda order: -1)
    broken = _tiny_run("decode-cli", False)
    assert broken["correct"] is False
    assert broken["failed"] > baseline["failed"]
    assert (broken["metrics"]["ok_op_ratio"]["value"]
            < baseline["metrics"]["ok_op_ratio"]["value"])


def test_known_defects_fail_but_keep_the_run_correct():
    result = run.run("verify-search", 5, 0, False, run.tiny(run.WORKLOADS["verify-search"]))
    by_defect = result["record"]["failures_by_defect"]
    assert set(by_defect) <= set(run.streams.KNOWN_DEFECTS)
    assert result["result"]["correct"] is True


def test_percentile_reports_samples_beyond_rank():
    assert run.percentile(list(range(1, 1001)), 0.99) == (990, 10)
    assert run.percentile([5.0], 0.5) == (5.0, 0)


def test_decode_oracle_rejects_a_wrong_device(tmp_path):
    env = run.setup(tmp_path, run.NullTracer())
    con = env.catalog["q3"]
    oracle = oracles.DecodeOracle(con)
    x = (7, -3, 12)
    got = env.decoder.decode(env.tables["q3"], x)
    assert oracle.problem(x, None, got) is None
    wrong = got._replace(device=tuple((c + 1) % d for c, d in zip(got.device, oracle.period)))
    assert oracle.problem(x, None, wrong) is not None
