"""pdds benchmark: two closed-loop workloads, one client, stdlib only.

Usage, from the repository root:

    python3 bench/run.py --workload verify-search --seed 1 --seconds 50 --trace 0

Every workload runs rounds of operations from four streams (verify, decode,
search, cli) until ``--seconds`` have passed.  A workload gives two streams
their full load and the other two a small fixed probe, so that every
end-to-end metric is defined on every workload.  Every timing is taken per
round and reported as the mean of the run's slower half of rounds (see
``slow_half``).  A round has at least 8,000 decode queries and 100 CLI
commands, so its p99 and p90 each have at least ten samples beyond them.
All inputs come from ``--seed``; every result is checked after its round
against an independent oracle or a pinned value.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, records spans around the benchmark's calls into
each ``pdds`` module, writes them to ``.bench_out/`` and prints the
per-layer metrics.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import oracles
import streams
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("abelian", "constructions", "lattice", "verifier", "decoder",
           "search", "render", "cli")


@dataclass(frozen=True)
class Plan:
    """What one round of a workload runs."""

    verify: bool = False            # the capped catalog pass, else the probe
    verify_cap: int = streams.VERIFY_CAP
    decode: int = 8000              # queries per round: a steady p99 needs ~80 beyond it
    search: tuple = streams.SEARCH_PROBE * 3
    cli: bool = False               # the full session script, else the probe
    oracle_every: int = 32          # brute-force one decode query in this many
    cli_scripts: int = 2            # >= 100 commands: a p90 with ten beyond it
    setups: int = 9


# The four streams are paired into two workloads so that each run can be
# long: on a shared host whose speed wanders by up to 1.7x over seconds to
# minutes, 25-second runs (what four workloads leave in the time budget)
# spread by 9-14 % between runs, 50-second runs by 5-11 %.
WORKLOADS = {
    # Batch algorithms: catalog verification and exhaustive search.
    "verify-search": Plan(verify=True, search=streams.SEARCH_SUITE),
    # Request paths: the decoder hot loop and the JSON command line.
    "decode-cli": Plan(decode=20_000, oracle_every=100, cli=True),
}


def tiny(plan: Plan) -> Plan:
    """A seconds-long version of a plan, for the benchmark's own tests."""
    return replace(plan, verify_cap=500, decode=min(plan.decode, 40), cli_scripts=1, setups=2,
                   search=streams.SEARCH_PROBE[:2] if plan.search is streams.SEARCH_SUITE
                   else streams.SEARCH_PROBE[:1])


# --------------------------------------------------------------------------
# Set-up: import, catalog, syndrome tables, CLI input files.
# --------------------------------------------------------------------------

class Env:
    """One set-up's modules and inputs."""

    def instance(self, name: str):
        if name not in self.instances:
            self.instances[name] = self.verifier.instantiate_on_torus(self.catalog[name])
        return self.instances[name]


def _import_pdds(env: Env) -> None:
    for name in [m for m in sys.modules if m == "pdds" or m.startswith("pdds.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pdds = importlib.import_module("pdds")
    if Path(pdds.__file__).resolve().parent != SRC / "pdds":
        raise ImportError(f"pdds imported from {pdds.__file__}, not from {SRC}")
    for name in MODULES:
        setattr(env, name, importlib.import_module(f"pdds.{name}"))


def _build_catalog(env: Env, tr) -> list:
    """The 100 published catalog entries, in the acceptance suite's order."""
    cons, ab = env.constructions, env.abelian
    out = []

    def add(name, builder, *args):
        with tr.span("constructions." + builder.__name__):
            out.append((name, builder(*args)))

    for n in range(2, 11):
        with tr.span("abelian.enumerate_abelian_groups"):
            groups = ab.enumerate_abelian_groups(2 * n + 1)
        for group in groups:
            add(f"plc1(n={n}, {group})", cons.plc_n1, n, group)
    for n in range(2, 6):
        for k in range(1, 6):
            add(f"path(n={n}, k={k})", cons.pdds1_path, n, k)
    for t in range(1, 5):
        for k in range(1, 5):
            for variant in ("single_copy", "two_copy"):
                add(f"path2d(t={t}, k={k}, {variant})", cons.pdds_t_path_2d, t, k, variant)
                add(f"box2xk(t={t}, k={k}, {variant})", cons.pdds_t_box2xk_2d, t, k, variant)
    for k in range(0, 3):
        add(f"square(k={k})", cons.pdds1_square, k)
    add("q3", cons.pdds1_q3)
    add("minkowski", cons.minkowski_p2)
    add("nonlattice", cons.nonlattice_p2_example)
    return out


def setup(workdir: Path, tr) -> Env:
    env = Env()
    env.instances = {}
    _import_pdds(env)
    entries = _build_catalog(env, tr)
    env.names = [name for name, _ in entries]
    env.catalog = dict(entries)
    env.tables = {}
    for name, con in entries:
        with tr.span("decoder.build_syndrome_table"):
            env.tables[name] = env.decoder.build_syndrome_table(con.tile, con.hom)
    for name in streams.CLI_INSTANCES + ("nonlattice",):
        with tr.span("verifier.instantiate_on_torus"):
            env.instance(name)
    env.files = streams.write_cli_inputs(env, str(workdir))
    return env


def _finish_env(env: Env, plan: Plan) -> None:
    """Oracle state and derived lists: checking aids, kept out of set-up time."""
    env.oracles = {name: oracles.DecodeOracle(con) for name, con in env.catalog.items()}
    env.volumes = {name: math.prod(o.period) for name, o in env.oracles.items()}
    env.verify_names = [n for n in env.names if env.volumes[n] <= plan.verify_cap]


# --------------------------------------------------------------------------
# Rounds.
# --------------------------------------------------------------------------

@dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    ops: int = 0
    stream_s: dict = field(default_factory=lambda: defaultdict(float))
    verify_vertices: int = 0
    # Latency samples in flat arrays, so that the benchmark's own storage
    # adds little to peak_rss_mb however many rounds fit in a run.
    decode_us: array = field(default_factory=lambda: array("d"))
    cli_ms: array = field(default_factory=lambda: array("d"))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    failures: list = field(default_factory=list)     # (defect or None, message)
    span_mark: int = 0
    span_end: int = 0


def build_round(env: Env, plan: Plan, rngs: dict, workdir: Path) -> list:
    return interleave([
        streams.verify_ops(env, rngs["verify"], plan.verify),
        streams.decode_ops(env, rngs["decode"], plan.decode, plan.oracle_every),
        [streams.search_op(env, *p) for p in plan.search],
        streams.cli_ops(env, rngs["cli"], str(workdir), env.files, plan.cli, plan.cli_scripts),
    ])


def interleave(streams_ops: list[list]) -> list:
    """Spread each stream's ops evenly over the round, keeping their order.

    Op i of a stream with n ops goes at fraction (i + 0.5) / n of the round.
    A probed stream then samples the host over the whole round instead of in
    one burst, so its figures share the round's mix of fast and slow spells.
    """
    keyed = [((i + 0.5) / len(ops), s, i, op)
             for s, ops in enumerate(streams_ops) for i, op in enumerate(ops)]
    keyed.sort(key=lambda k: k[:3])
    return [k[3] for k in keyed]


def run_round(ops: list, tr, first_op: int) -> tuple[Round, list]:
    """Run every op back to back (one closed-loop client); time each one."""
    rnd = Round(traced=tr.enabled)
    results = []
    clock = time.perf_counter_ns
    sink = io.StringIO()
    gc.collect()
    with redirect_stdout(sink), redirect_stderr(sink):
        rnd.span_mark = tr.mark() if tr.enabled else 0
        started = clock()
        for i, op in enumerate(ops):
            with tr.span("bench." + op.stream, first_op + i):
                t0 = clock()
                try:
                    res = op.run(tr, first_op + i)
                except Exception as exc:     # a failed op is counted, never fatal
                    res = exc
                dt = clock() - t0
            results.append((res, dt))
        rnd.wall_s = (clock() - started) / 1e9
        rnd.span_end = tr.mark() if tr.enabled else 0
    return rnd, results


def check_round(rnd: Round, ops: list, results: list) -> None:
    """Compare every result with its oracle and tally per-stream figures."""
    for op, (res, dt) in zip(ops, results):
        rnd.ops += op.n
        rnd.stream_s[op.stream] += dt / 1e9
        if op.stream == "decode" and not isinstance(res, BaseException):
            rnd.decode_us.extend(ns / 1e3 for ns in res[1])
        elif op.stream == "cli":
            rnd.cli_ms.append(dt / 1e6)
        elif op.stream == "verify":
            rnd.verify_vertices += op.vertices
        try:
            problems = op.check(res)
        except Exception as exc:             # a malformed result is a failure
            problems = f"check raised {exc!r}"
        if isinstance(problems, str):
            problems = [problems]
        rnd.failures += [(op.defect, p) for p in problems or ()]
        if not isinstance(res, BaseException):
            for key, value in op.counts(res).items():
                rnd.counts[key] += value


def percentile(values: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(env: Env, plan: Plan, seed: int, seconds: float, trace: bool,
            workdir: Path, tracer: Tracer) -> list[Round]:
    rngs = {s: random.Random(f"{seed}:{s}") for s in ("verify", "decode", "cli")}
    rounds: list[Round] = []
    untraced = NullTracer()
    started = time.perf_counter()
    next_op = 0
    while True:
        tr = tracer if trace and len(rounds) % 2 == 1 else untraced
        ops = build_round(env, plan, rngs, workdir)
        rnd, results = run_round(ops, tr, next_op)
        next_op += len(ops)
        check_round(rnd, ops, results)
        del ops, results
        rounds.append(rnd)
        if time.perf_counter() - started >= seconds and len(rounds) >= (2 if trace else 1):
            return rounds


# --------------------------------------------------------------------------
# Metrics.
# --------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def slow_half(per_round: list[float], higher_is_better: bool) -> float:
    """Mean over the slower half of the rounds (at least one round).

    The shared host this was tuned on runs mostly in a loaded state, with
    spells about 1.7x faster whose number differs from run to run.  The
    slower half stays in the loaded state in nearly every run, and averaging
    half the rounds keeps one odd round, or a p99 in the tail of its own
    tail, from setting the figure.  Worst quartile spread between runs, in
    the last ten-run set: 13 % for this, 13 % for the slowest third, 18 %
    for the median over rounds, 27 % for the quickest third.  Averaged over
    all eight sets measured, the four were within 4 points of each other.
    """
    ordered = sorted(per_round, reverse=not higher_is_better)
    return statistics.fmean(ordered[:math.ceil(len(ordered) / 2)])


def end_to_end(rounds: list[Round], setup_s: list[float], rss_mb: float) -> tuple[dict, dict]:
    attempted = sum(r.ops for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    per_round = {
        "verify_vertices_per_s": [r.verify_vertices / r.stream_s["verify"] for r in rounds],
        "decode_queries_per_s": [len(r.decode_us) / r.stream_s["decode"] for r in rounds],
        "decode_p50_us": [percentile(r.decode_us, 0.5)[0] for r in rounds],
        "decode_p99_us": [percentile(r.decode_us, 0.99)[0] for r in rounds],
        "search_wall_s": [r.stream_s["search"] for r in rounds],
        "cli_cmd_p50_ms": [percentile(r.cli_ms, 0.5)[0] for r in rounds],
        "cli_cmd_p90_ms": [percentile(r.cli_ms, 0.9)[0] for r in rounds],
    }
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ok_op_ratio": _metric(1 - failed / attempted, "ratio"),
        "verify_vertices_per_s": _metric(
            slow_half(per_round["verify_vertices_per_s"], True), "1/s"),
        "decode_queries_per_s": _metric(
            slow_half(per_round["decode_queries_per_s"], True), "1/s"),
        "decode_p50_us": _metric(slow_half(per_round["decode_p50_us"], False), "us"),
        "decode_p99_us": _metric(slow_half(per_round["decode_p99_us"], False), "us"),
        "search_wall_s": _metric(slow_half(per_round["search_wall_s"], False), "s"),
        "cli_cmd_p50_ms": _metric(slow_half(per_round["cli_cmd_p50_ms"], False), "ms"),
        "cli_cmd_p90_ms": _metric(slow_half(per_round["cli_cmd_p90_ms"], False), "ms"),
    }
    samples = {"setup_s": len(setup_s), "rounds": len(rounds),
               "decode_per_round": min(len(r.decode_us) for r in rounds),
               "cli_per_round": min(len(r.cli_ms) for r in rounds),
               "decode_p99_beyond_per_round": min(percentile(r.decode_us, 0.99)[1]
                                                  for r in rounds),
               "cli_p90_beyond_per_round": min(percentile(r.cli_ms, 0.9)[1] for r in rounds),
               "attempted": attempted, "failed": failed,
               "round_wall_s": [round(r.wall_s, 4) for r in rounds],
               "per_round": {k: [round(v, 6) for v in vs] for k, vs in per_round.items()}}
    return metrics, samples


def per_layer(rounds: list[Round], tracer: Tracer, setup_mark: tuple[int, int],
              unmeasured_s: float) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    totals: dict = defaultdict(float)
    selfs: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    cli_ms: dict = defaultdict(list)
    box_s = 0.0
    uncovered = 0.0
    walls = []
    for r in traced:
        for name, value in tracer.totals(r.span_mark, r.span_end).items():
            totals[name] += value
        for layer, value in tracer.self_times(r.span_mark, r.span_end).items():
            selfs[layer] += value
        for key, value in r.counts.items():
            counts[key] += value
        verify_ns: dict = {}
        for name, start, end, _, op in tracer.rows(r.span_mark, r.span_end):
            if name == "verifier.verify_pdds":
                verify_ns[op] = end - start
            elif name == "extra.verifier.verify_pdds_nobox":
                box_s += (verify_ns[op] - (end - start)) / 1e9
            elif name.startswith("cli."):
                cli_ms[name].append((end - start) / 1e6)
        extra = sum(v for k, v in tracer.totals(r.span_mark, r.span_end).items()
                    if k.startswith("extra."))
        uncovered += r.wall_s - tracer.top_level_s(r.span_mark, r.span_end)
        walls.append(r.wall_s - extra)
    lo, hi = setup_mark
    setup_totals = tracer.totals(lo, hi)
    setup_counts = tracer.counts(lo, hi)

    def layer_sum(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    search_s = totals["search.exact_cover_search"] / n
    placements_s = totals["extra.search.enumerate_placements"] / n
    dfs_s = search_s - placements_s
    out = {
        "constructions.build_s": _metric(layer_sum(setup_totals, "constructions."), "s"),
        "constructions.entries": _metric(layer_sum(setup_counts, "constructions."), "count"),
        "decoder.build_table_s": _metric(setup_totals["decoder.build_syndrome_table"], "s"),
        "decoder.tables": _metric(setup_counts["decoder.build_syndrome_table"], "count"),
        "abelian.check_bijection_s": _metric(totals["abelian.check_bijection"] / n, "s"),
        "abelian.check_bijection_calls": _metric(counts["abelian.check_bijection_calls"] / n, "count"),
        "verifier.instantiate_s": _metric(totals["verifier.instantiate_on_torus"] / n, "s"),
        "verifier.instantiate_vertices": _metric(counts["verifier.instantiate_vertices"] / n, "count"),
        "verifier.components_placed": _metric(counts["verifier.components_placed"] / n, "count"),
        "verifier.verify_s": _metric(totals["verifier.verify_pdds"] / n, "s"),
        "verifier.vertices_checked": _metric(counts["verifier.vertices_checked"] / n, "count"),
        "verifier.violations": _metric(counts["verifier.violations"] / n, "count"),
        "verifier.box_check_s": _metric(box_s / n, "s"),
        "verifier.partition_s": _metric(totals["verifier.verify_partition"] / n, "s"),
        "verifier.partition_calls": _metric(counts["verifier.partition_calls"] / n, "count"),
        "decoder.decode_s": _metric(totals["decoder.decode"] / n, "s"),
        "decoder.queries": _metric(counts["decoder.queries"] / n, "count"),
        "search.placements_s": _metric(placements_s, "s"),
        "search.placements": _metric(counts["search.placements"] / n, "count"),
        "search.search_s": _metric(search_s, "s"),
        "search.nodes": _metric(counts["search.nodes"] / n, "count"),
        "search.nodes_per_s": _metric(
            counts["search.nodes"] / n / (dfs_s if dfs_s > 0 else search_s), "1/s"),
        "search.shortcut_ratio": _metric(
            counts["search.shortcuts"] / max(1, counts["search.problems"]), "ratio"),
        "render.render_s": _metric(totals["extra.render.render"] / n, "s"),
        "render.output_bytes": _metric(counts["render.output_bytes"] / n, "bytes"),
        "cli.json_bytes_read": _metric(counts["cli.json_bytes_read"] / n, "bytes"),
        "cli.nonzero_exits": _metric(counts["cli.nonzero_exits"] / n, "count"),
    }
    for cmd in ("construct", "verify", "decode", "render", "search", "groups"):
        samples = cli_ms.get(f"cli.{cmd}", [])
        out[f"cli.{cmd}_ms"] = _metric(statistics.median(samples) if samples else 0.0, "ms")
    for layer in ("bench", "abelian", "verifier", "decoder", "search", "cli"):
        out[f"{layer}.self_s"] = _metric(selfs[layer] / n, "s")
    out["trace.overhead_ratio"] = _metric(
        statistics.median(walls) / statistics.median(r.wall_s for r in plain), "ratio")
    out["trace.uncovered_s"] = _metric(uncovered / n, "s")
    out["trace.unmeasured_s"] = _metric(unmeasured_s, "s")
    return out


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------

def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, plan: Plan) -> dict:
    """One benchmark run; returns the record whose last part is the result line."""
    began = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tracer = Tracer()
    try:
        setup_s = []
        for i in range(plan.setups):
            tr = tracer if trace and i == plan.setups - 1 else NullTracer()
            lo = tracer.mark()
            t0 = time.perf_counter()
            env = setup(workdir, tr)
            setup_s.append(time.perf_counter() - t0)
            setup_mark = (lo, tracer.mark())
        _finish_env(env, plan)
        rounds = measure(env, plan, seed, seconds, trace, workdir, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, samples = end_to_end(rounds, setup_s, rss_mb)
    if trace:
        in_rounds = sum(r.wall_s for r in rounds) + sum(setup_s)
        metrics = per_layer(rounds, tracer, setup_mark,
                            time.perf_counter() - began - in_rounds)
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.dump(trace_path)
        samples["trace_file"] = str(trace_path.relative_to(ROOT))
    failures = [f for r in rounds for f in r.failures]
    unknown = [msg for defect, msg in failures if defect is None]
    by_defect: dict = defaultdict(int)
    for defect, _ in failures:
        by_defect[defect or "unexpected"] += 1
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loop": "closed", "clients": 1,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": _commit(),
        "samples": samples, "failures_by_defect": dict(by_defect),
        "unexpected_failures": unknown[:10],
    }
    result = {"correct": not unknown, "attempted": samples["attempted"],
              "failed": samples["failed"], "metrics": metrics}
    return {"record": record, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  WORKLOADS[args.workload])
    except ImportError as exc:       # no pdds source tree next to the benchmark
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
