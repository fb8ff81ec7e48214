"""The four operation streams the workloads are built from.

Each stream turns a seeded random generator into one round of operations.
An operation's ``run`` is the timed part: it calls the program and returns
a small result.  Its ``check`` runs after the round, outside any timing,
and compares that result with an independent oracle (``oracles.py``) or a
pinned value.  An operation that raises or disagrees is a failure; failures
on inputs hit by a known defect carry that defect's id.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass
from math import prod
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Any, Callable, Optional

import oracles

# Defects the program has today (ROADMAP open item 5).  Their inputs stay in
# the workloads: an op hit by one counts as failed but does not make the run
# incorrect.  Any other failure does.
KNOWN_DEFECTS = {
    "t-null": '"t": null in instance JSON escapes as TypeError, not a typed error',
    "byte-distance": "verify fails on a valid instance with distances >= 256 "
                     "(bytearray in _verify_by_expansion)",
    "negative-t": "verify accepts t = -1 and reports violations instead of rejecting it",
}

# Catalog entries verified in full by verify-search: every entry whose period torus
# has at most this many vertices.  That is 86 of the 100: many small tori
# plus path(4,2), path(4,4) and minkowski at 54-66 k vertices.
VERIFY_CAP = 70_000
# Entries the seeded corruption and dropped-component ops pick from.
DAMAGE_CAP = 5_000
# Entries a workload without the full verify stream checks three times each
# round (about 0.3 s).
VERIFY_PROBE = ("box2xk(t=2, k=2, two_copy)", "q3", "nonlattice",
                "path2d(t=2, k=1, single_copy)", "plc1(n=3, Z7)", "path(n=3, k=2)",
                "box2xk(t=4, k=4, two_copy)", "path2d(t=2, k=2, two_copy)", "plc1(n=4, Z9)",
                "path2d(t=3, k=2, two_copy)", "path(n=3, k=3)")

# The 36-torus 3x3 nonexistence sweep: four tori need a (short) search, the
# rest are decided by the divisibility shortcut with no node at all.
_SWEEP_NODES = {(6, 7): 21, (7, 6): 21, (7, 9): 37, (9, 7): 27}
# (torus, t, box extents, pinned outcome, pinned DFS node count).  The DFS
# (6,6,6) problem and the placement-heavy 2x2x2 problems each take a large
# share of the pass; the rest are decided by the divisibility shortcut.
SEARCH_SUITE = (
    ((6, 6, 6), 1, (2, 1, 1), "exhausted", 206_857),
    ((12, 12, 12), 1, (2, 2, 2), "found", 1_925),
    ((8, 8, 16), 1, (2, 2, 2), "found", 166),
    ((8, 12, 12), 1, (2, 2, 2), "found", 1_907),
    ((8, 8, 8), 1, (2, 2, 2), "found", 28),
    ((7, 7, 7), 1, (1, 1, 1), "found", 2_054),
    ((26, 26), 2, (1, 1), "found", 4_144),
    ((12, 12), 1, (2, 2), "found", 12),
    ((10, 10, 10), 1, (1, 1, 1), "exhausted", 0),
    ((25, 25), 2, (1, 1), "exhausted", 0),
    ((6, 6, 6), 1, (2, 2, 1), "exhausted", 0),
) + tuple(((a, b), 1, (3, 3), "exhausted", _SWEEP_NODES.get((a, b), 0))
          for a in range(5, 11) for b in range(5, 11))
# Problems a workload without the full search stream runs three times each
# round (about 0.45 s).
SEARCH_PROBE = (
    ((5, 5), 1, (1, 1), "found", 5),
    ((8, 8), 1, (2, 1), "found", 8),
    ((12, 12), 1, (2, 2), "found", 12),
    ((10, 10), 1, (2, 1), "exhausted", 0),
    ((6, 6, 6), 1, (2, 2, 1), "exhausted", 0),
    ((8, 8, 8), 1, (2, 2, 2), "found", 28),
    ((7, 7, 7), 1, (1, 1, 1), "found", 2_054),
)


@dataclass
class Op:
    """One operation: the timed call and the check of its result.

    ``check`` returns None or a problem string, or for a batch a list of
    problem strings, one per failed member.
    """

    stream: str                         # verify | decode | search | cli
    run: Callable[[Any, int], Any]      # (tracer, op id) -> result
    check: Callable[[Any], Optional[str]]
    counts: Callable[[Any], dict] = lambda res: {}
    defect: Optional[str] = None        # known defect this input hits
    vertices: int = 0                   # torus vertices this op verifies
    n: int = 1                          # attempted operations it stands for


def _expect_raise(exc_type):
    def check(res):
        if isinstance(res, BaseException):
            return None if isinstance(res, exc_type) else f"raised {res!r}, expected {exc_type.__name__}"
        return f"returned {res!r}, expected {exc_type.__name__}"
    return check


def _no_exception(inner):
    def check(res):
        if isinstance(res, BaseException):
            return f"raised {res!r}"
        return inner(res)
    return check


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_entry(env, name: str) -> Op:
    con = env.catalog[name]
    ab, ver = env.abelian, env.verifier
    verts = con.tile.shape.vertices

    def run(tr, op):
        with tr.span("abelian.check_bijection", op):
            bij = ab.check_bijection(con.hom, verts).ok
        with tr.span("verifier.instantiate_on_torus", op):
            inst = ver.instantiate_on_torus(con)
        with tr.span("verifier.verify_pdds", op):
            rep = ver.verify_pdds(inst)
        if tr.enabled:
            with tr.span("extra.verifier.verify_pdds_nobox", op):
                ver.verify_pdds(inst, strict_box=False)
        with tr.span("verifier.verify_partition", op):
            part = ver.verify_partition(inst, con.tile, con.hom)
        return bij, rep.passed, len(rep.violations), part, inst.volume, len(inst.components)

    def check(res):
        bij, passed, _, part, _, _ = res
        if not (bij and passed and part):
            return f"{name}: bijection {bij}, verify {passed}, partition {part}; all must hold"
        return None

    def counts(res):
        _, _, nviol, _, volume, ncomp = res
        return {"abelian.check_bijection_calls": 1, "verifier.partition_calls": 1,
                "verifier.instantiate_vertices": volume, "verifier.components_placed": ncomp,
                "verifier.vertices_checked": volume, "verifier.violations": nviol}

    return Op("verify", run, _no_exception(check), counts,
              vertices=prod(oracles.periods(con.hom.group.moduli, con.hom.generators)))


def _corrupt_op(env, name: str, rng) -> Op:
    """Move one tile vertex so the tile stops mapping bijectively."""
    con = env.catalog[name]
    inst = env.instance(name)
    moduli, gens = con.hom.group.moduli, con.hom.generators
    verts = list(con.tile.shape)
    present = set(verts)
    while True:
        i = rng.randrange(len(verts))
        offset = tuple(rng.randint(-2, 2) for _ in verts[i])
        new = tuple(a + b for a, b in zip(verts[i], offset))
        if any(offset) and not oracles.corruption_keeps_bijection(
                moduli, gens, present, verts[i], new):
            break
    verts[i] = new
    shape = env.lattice.Shape.of(verts)
    labels = {u: con.tile.labels.get(u, (0, shape.vertices[0])) for u in shape}
    bent = env.constructions.Tile(shape, labels)
    ab, ver = env.abelian, env.verifier

    def run(tr, op):
        with tr.span("abelian.check_bijection", op):
            bij = ab.check_bijection(con.hom, bent.shape.vertices).ok
        with tr.span("verifier.verify_partition", op):
            part = ver.verify_partition(inst, bent, con.hom)
        return bij, part

    def check(res):
        if res != (False, False):
            return f"corrupted {name}: bijection {res[0]}, partition {res[1]}; both must fail"
        return None

    return Op("verify", run, _no_exception(check),
              lambda res: {"abelian.check_bijection_calls": 1, "verifier.partition_calls": 1})


def _drop_op(env, name: str, rng) -> Op:
    """Verify an instance with one component removed: only 'uncovered' may fail."""
    inst = env.instance(name)
    k = rng.randrange(len(inst.components))
    dropped = inst.components[k]
    holed = env.verifier.PDDSInstance(inst.torus, inst.t, inst.h_spec,
                                      inst.components[:k] + inst.components[k + 1:])
    want = set()
    for v in dropped:
        want |= oracles.torus_ball(v, inst.t, inst.torus)
    ver = env.verifier

    def run(tr, op):
        with tr.span("verifier.verify_pdds", op):
            rep = ver.verify_pdds(holed)
        return rep.passed, {v.kind for v in rep.violations}, {v.vertex for v in rep.violations}

    def check(res):
        passed, kinds, where = res
        if passed or kinds != {"uncovered"} or where != want:
            return (f"{name} minus component {k}: pass={passed}, kinds={sorted(kinds)}, "
                    f"{len(where)} violating vertices, expected {len(want)} uncovered")
        return None

    return Op("verify", run, _no_exception(check),
              lambda res: {"verifier.vertices_checked": inst.volume,
                           "verifier.violations": len(res[2])},
              vertices=inst.volume)


def _defect_ops(env) -> list[Op]:
    ver, lat = env.verifier, env.lattice
    small = env.instance("nonlattice")
    tnull = dict(small.to_json(), t=None)
    wide = ver.PDDSInstance((512,), 256, lat.BoxSpec((1,)), [lat.Shape.of([(0,)])])
    negative = ver.PDDSInstance(small.torus, -1, small.h_spec, list(small.components))

    def load(tr, op):
        with tr.span("verifier.PDDSInstance.from_json", op):
            return ver.PDDSInstance.from_json(tnull)

    def verify(inst):
        def run(tr, op):
            with tr.span("verifier.verify_pdds", op):
                return ver.verify_pdds(inst).passed
        return run

    def passes(res):
        return None if res is True else f"verdict {res}, expected pass"

    return [
        Op("verify", load, _expect_raise(ValueError), defect="t-null"),
        Op("verify", verify(wide), _no_exception(passes),
           lambda res: {"verifier.vertices_checked": 512}, defect="byte-distance", vertices=512),
        Op("verify", verify(negative), _expect_raise(ValueError), defect="negative-t"),
    ]


def verify_ops(env, rng, full: bool) -> list[Op]:
    if not full:
        return [_verify_entry(env, name) for name in VERIFY_PROBE * 3]
    ops = [_verify_entry(env, name) for name in env.verify_names]
    damage = [n for n in env.verify_names if env.volumes[n] <= DAMAGE_CAP]
    ops.append(_corrupt_op(env, rng.choice(damage), rng))
    ops.append(_drop_op(env, rng.choice(damage), rng))
    return ops + _defect_ops(env)


# --------------------------------------------------------------------------
# decode
# --------------------------------------------------------------------------

# Queries per decode op.  A round's queries are cut into ops this small so
# that they can be spread over the whole round (see ``run.interleave``).
DECODE_CHUNK = 50


def decode_ops(env, rng, n: int, oracle_every: int) -> list[Op]:
    """n queries over all catalog tables, in ops of ``DECODE_CHUNK`` queries."""
    return [decode_batch(env, rng, min(DECODE_CHUNK, n - start), oracle_every, start)
            for start in range(0, n, DECODE_CHUNK)]


def decode_batch(env, rng, n: int, oracle_every: int, first: int = 0) -> Op:
    """n queries spread over all catalog tables, timed one by one.

    Coordinates are unreduced grid points; every fourth query of the round
    passes a torus that is a multiple of the period.  ``first`` is the
    batch's first query number in the round.  The batch is one op for the
    loop but n attempted queries, each with its own latency sample and check.
    """
    dec = env.decoder
    queries = []
    for q in range(first, first + n):
        name = rng.choice(env.names)
        period = env.oracles[name].period
        x = tuple(rng.randint(-10_000, 10_000) for _ in period)
        torus = tuple(p * rng.randint(1, 3) for p in period) if q % 4 == 3 else None
        queries.append((name, x, torus))
    calls = [(env.tables[name], x, torus) for name, x, torus in queries]

    def run(tr, op):
        clock = perf_counter_ns
        results = [None] * n
        latency_ns = array("q", bytes(8 * n))
        for i, (table, x, torus) in enumerate(calls):
            t0 = clock()
            try:
                with tr.span("decoder.decode", op):
                    results[i] = dec.decode(table, x, torus)
            except Exception as exc:     # one failed query never stops the batch
                results[i] = exc
            latency_ns[i] = clock() - t0
        return results, latency_ns

    def check(res):
        if isinstance(res, BaseException):
            return [f"decode batch raised {res!r}"] * n
        problems = []
        for i, ((name, x, torus), got) in enumerate(zip(queries, res[0])):
            oracle = env.oracles[name]
            if isinstance(got, BaseException):
                problems.append(f"decode {name} {x}: raised {got!r}")
            elif (first + i) % oracle_every == 0:
                problem = oracle.problem(x, torus, got)
                if problem:
                    problems.append(f"decode {name} {x} on {torus}: {problem}")
            elif got.distance > oracle.t:
                problems.append(f"decode {name} {x}: distance {got.distance} > t={oracle.t}")
        return problems

    return Op("decode", run, check, lambda res: {"decoder.queries": n}, n=n)


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

def search_op(env, torus, t, extents, outcome, nodes) -> Op:
    srch, lat = env.search, env.lattice
    problem = srch.SearchProblem(torus, t, lat.BoxSpec(extents))

    def run(tr, op):
        with tr.span("search.exact_cover_search", op):
            res = srch.exact_cover_search(problem)
        placements = 0
        if tr.enabled and res.nodes_explored:
            with tr.span("extra.search.enumerate_placements", op):
                placements = len(srch.enumerate_placements(problem))
        inst = res.instance
        comps = None if inst is None else [c.vertices for c in inst.components]
        return res.outcome, res.nodes_explored, comps, placements

    def check(res):
        got, got_nodes, comps, _ = res
        if (got, got_nodes) != (outcome, nodes):
            return f"search {torus} t={t} {extents}: {got} after {got_nodes} nodes, pinned {outcome} after {nodes}"
        if comps is not None:
            problems = oracles.pdds_problems(torus, t, extents, comps)
            if problems:
                return f"search {torus} found a non-PDDS: {problems[:2]}"
        return None

    def counts(res):
        return {"search.problems": 1, "search.nodes": res[1], "search.placements": res[3],
                "search.shortcuts": int(res[0] == "exhausted" and res[1] == 0)}

    return Op("search", run, _no_exception(check), counts)


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

# Catalog entries written as construction files for the CLI.
CLI_CONSTRUCTIONS = (
    "plc1(n=3, Z7)", "path(n=3, k=2)", "path(n=4, k=4)", "path2d(t=2, k=2, two_copy)",
    "path2d(t=3, k=4, two_copy)", "path2d(t=4, k=4, two_copy)",
    "box2xk(t=2, k=2, single_copy)", "box2xk(t=3, k=3, two_copy)", "q3",
    "minkowski", "nonlattice", "path2d(t=1, k=1, single_copy)",
)
CLI_INSTANCES = ("path2d(t=4, k=4, two_copy)", "nonlattice")
_SMALL_2D = ("box2xk(t=2, k=2, single_copy)", "nonlattice",
             "path2d(t=1, k=1, single_copy)", "box2xk(t=3, k=3, two_copy)")
_DECODE_FILES = ("plc1(n=3, Z7)", "path(n=3, k=2)", "q3", "minkowski",
                 "nonlattice", "box2xk(t=2, k=2, single_copy)")
_LABELS = ("group_elements", "component_ids", "devices")
_GROUP_ORDERS = (8, 12, 16, 24, 27, 32, 36, 48, 64, 72, 81, 96)


def write_cli_inputs(env, workdir: str) -> dict[str, str]:
    """Input files the CLI ops read, keyed by a short name."""
    files = {}

    def put(key, text):
        path = os.path.join(workdir, f"in_{len(files)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files[key] = path

    for name in CLI_CONSTRUCTIONS:
        put(name, env.catalog[name].dumps())
    for name in CLI_INSTANCES:
        put("inst:" + name, env.instance(name).dumps())
    small = env.instance("nonlattice").to_json()
    put("defect:t-null", json.dumps(dict(small, t=None)))
    put("defect:negative-t", json.dumps(dict(small, t=-1)))
    put("defect:byte-distance", json.dumps(
        {"torus": [512], "t": 256, "h": {"extents": [1]}, "components": [[[0]]]}))
    put("bad:syntax", "{not json")
    put("bad:array", "[1, 2, 3]")
    put("bad:no-t", json.dumps({"torus": [4, 4]}))
    return files


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class _Cli:
    """Builds CLI ops; each writes its output to its own file in ``workdir``.

    The check reads the output file and then deletes it, so the next round
    starts with none: a command that should write nothing can be told apart.
    """

    def __init__(self, env, workdir: str, files: dict, rng) -> None:
        self.env, self.workdir, self.files, self.rng = env, workdir, files, rng
        self.count = 0

    def op(self, argv: list[str], check, *, reads: Optional[str] = None,
           defect: Optional[str] = None, render=None) -> Op:
        out = os.path.join(self.workdir, f"out_{self.count}")
        self.count += 1
        argv = argv + ["-o", out]
        cli, env = self.env.cli, self.env
        cmd = argv[0]
        read_bytes = os.path.getsize(reads) if reads else 0
        written = {}

        def run(tr, op):
            with tr.span(f"cli.{cmd}", op):
                code = cli.run(argv)
            if render is not None and tr.enabled and code == 0:
                with tr.span("extra.render.render", op):
                    env.render.render(*render)
            return code

        def full_check(code):
            try:
                if isinstance(code, BaseException):
                    return f"pdds {' '.join(argv)}: escaped {code!r}"
                problem = check(code, out)
                return None if problem is None else f"pdds {' '.join(argv[:-2])}: {problem}"
            finally:
                if os.path.exists(out):
                    written["bytes"] = os.path.getsize(out)
                    os.remove(out)

        def counts(code):
            c = {"cli.json_bytes_read": read_bytes, "cli.nonzero_exits": int(code != 0)}
            if render is not None:
                c["render.output_bytes"] = written.get("bytes", 0)
            return c

        return Op("cli", run, full_check, counts, defect=defect)


def _want_exit(want):
    return lambda code, out: None if code == want else f"exit {code}, expected {want}"


def _ok_json(test):
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        return test(_read_json(out))
    return check


def _groups(c: _Cli, order: int) -> Op:
    want = oracles.abelian_group_count(order)
    return c.op(["groups", "--order", str(order)], _ok_json(
        lambda d: None if d["count"] == want else f"{d['count']} groups, expected {want}"))


def _construct(c: _Cli, family: str, **params) -> Op:
    argv = ["construct", "--family", family]
    for k, v in params.items():
        argv += [f"--{k}", str(v)]

    def test(d):
        moduli = tuple(d["hom"]["moduli"])
        gens = tuple(tuple(g) for g in d["hom"]["generators"])
        verts = [tuple(v) for v in d["tile"]["vertices"]]
        images = {oracles.syndrome(moduli, gens, v) for v in verts}
        if len(images) != len(verts) or len(verts) != prod(moduli):
            return "tile does not map bijectively onto the group"
        if "t" in params and d["t"] != params["t"]:
            return f"t = {d['t']}, asked for {params['t']}"
        return None
    return c.op(argv, _ok_json(test))


def _decode(c: _Cli, name: str) -> Op:
    env, rng = c.env, c.rng
    oracle = env.oracles[name]
    x = tuple(rng.randint(-10_000, 10_000) for _ in oracle.period)
    torus = None
    argv = ["decode", c.files[name], "--vertex=" + ",".join(map(str, x))]
    if rng.random() < 1 / 3:
        torus = tuple(p * rng.randint(1, 3) for p in oracle.period)
        argv += ["--torus", ",".join(map(str, torus))]

    def test(d):
        got = SimpleNamespace(device=tuple(d["device"]), distance=d["distance"],
                              component_anchor=tuple(d["component_anchor"]))
        return oracle.problem(x, torus, got)
    return c.op(argv, _ok_json(test), reads=c.files[name])


def _verify(c: _Cli, key: str, torus=None) -> Op:
    argv = ["verify", c.files[key]]
    if torus:
        argv += ["--torus", ",".join(map(str, torus))]
    return c.op(argv, _ok_json(lambda d: None if d["pass"] else "verification failed"),
                reads=c.files[key])


def _render(c: _Cli, name: str, fmt: str, labels: str) -> Op:
    env = c.env
    dims = env.oracles[name].period
    con = env.catalog[name]

    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        with open(out, "r", encoding="utf-8") as fh:
            text = fh.read()
        if fmt == "ascii":
            rows = text.count("\n")
            return None if rows == dims[1] else f"{rows} rows, torus has {dims[1]}"
        cells = text.count("<rect ")
        if not text.startswith("<svg") or cells != prod(dims):
            return f"svg with {cells} cells, torus has {prod(dims)}"
        return None
    return c.op(["render", c.files[name], "--format", fmt, "--labels", labels], check,
                reads=c.files[name],
                render=(con, env.render.RenderSpec(fmt, labels), None))


def _search(c: _Cli, torus, t, extents, outcome, nodes) -> Op:
    def check(code, out):
        want = 0 if outcome == "found" else 3
        if code != want:
            return f"exit {code}, expected {want}"
        d = _read_json(out)
        if (d["outcome"], d["nodes_explored"]) != (outcome, nodes):
            return f"{d['outcome']} after {d['nodes_explored']} nodes, pinned {outcome} after {nodes}"
        if d["instance"] is not None:
            comps = [[tuple(v) for v in comp] for comp in d["instance"]["components"]]
            problems = oracles.pdds_problems(torus, t, extents, comps)
            if problems:
                return f"found a non-PDDS: {problems[:2]}"
        return None
    return c.op(["search", "--torus", ",".join(map(str, torus)), "--t", str(t),
                 "--H", ",".join(map(str, extents))], check)


def _defect_verify(c: _Cli, defect: str) -> Op:
    """Verify an input hit by a known defect, against the correct behaviour."""
    path = c.files["defect:" + defect]
    if defect == "byte-distance":
        check = _ok_json(lambda d: None if d["pass"] else "valid instance rejected")
    else:
        def check(code, out):
            if code not in (1, 2) or os.path.exists(out):
                return f"exit {code} with a report written; expected a typed rejection"
            return None
    return c.op(["verify", path], check, reads=path, defect=defect)


def _random_construct(c: _Cli) -> list[Op]:
    r = c.rng
    return [
        _construct(c, "plc1", n=r.randint(2, 6)),
        _construct(c, "path", n=r.randint(2, 4), k=r.randint(1, 4)),
        _construct(c, "path2d", t=r.randint(1, 3), k=r.randint(1, 3),
                   variant=r.choice(("one", "two"))),
        _construct(c, "box2xk", t=r.randint(1, 3), k=r.randint(1, 3),
                   variant=r.choice(("one", "two"))),
        _construct(c, "square", k=r.randint(0, 1)),
        _construct(c, "q3"),
        _construct(c, "minkowski"),
        _construct(c, "nonlattice"),
    ]


def _probe_script(c: _Cli) -> list[Op]:
    """50 commands of 1-8 ms."""
    r, env = c.rng, c.env
    ops = [_groups(c, r.choice(_GROUP_ORDERS)) for _ in range(10)]
    ops += _random_construct(c)
    ops += [_decode(c, r.choice(_DECODE_FILES)) for _ in range(16)]
    ops += [_verify(c, k) for k in ("plc1(n=3, Z7)", "path(n=3, k=2)",
                                    "path2d(t=2, k=2, two_copy)",
                                    "box2xk(t=2, k=2, single_copy)", "q3", "nonlattice")]
    ops += [_search(c, *p) for p in (SEARCH_PROBE[0], SEARCH_PROBE[3])]
    ops += [_render(c, r.choice(_SMALL_2D), "ascii", r.choice(_LABELS)) for _ in range(8)]
    return ops


def _session_script(c: _Cli) -> list[Op]:
    """58 commands: about 40 of 1-8 ms, ten of 15-130 ms and three heavy ones.

    The seed picks arguments, not the size mix, so the p90 falls among the
    mid-size renders and verifies in every run.
    """
    r, env, files = c.rng, c.env, c.files
    ops = [_groups(c, r.choice(_GROUP_ORDERS)) for _ in range(6)]
    ops += _random_construct(c)
    ops += [_decode(c, r.choice(_DECODE_FILES)) for _ in range(10)]
    ops += [_verify(c, k) for k in ("plc1(n=3, Z7)", "path(n=3, k=2)",
                                    "path2d(t=2, k=2, two_copy)",
                                    "box2xk(t=2, k=2, single_copy)", "q3", "nonlattice")]
    ops.append(_verify(c, "box2xk(t=3, k=3, two_copy)",
                       tuple(2 * p for p in env.oracles["box2xk(t=3, k=3, two_copy)"].period)))
    ops += [_render(c, r.choice(_SMALL_2D), "ascii", r.choice(_LABELS)) for _ in range(2)]
    ops.append(_render(c, r.choice(_SMALL_2D), "svg", r.choice(_LABELS)))
    ops += [_search(c, *p) for p in (SEARCH_PROBE[0], SEARCH_PROBE[3],
                                     ((6, 6), 1, (3, 3), "exhausted", 0))]
    ops += [c.op(["verify", files[k]], _want_exit(1), reads=files[k])
            for k in ("bad:syntax", "bad:array", "bad:no-t")]
    ops.append(c.op(["construct", "--family", "path", "--n", "3"], _want_exit(2)))
    ops.append(c.op(["decode", files["q3"], "--vertex", "1,x,2"], _want_exit(2)))
    ops += [_defect_verify(c, d) for d in KNOWN_DEFECTS]
    # mid-size
    ops += [_verify(c, k) for k in ("path2d(t=3, k=4, two_copy)", "path2d(t=4, k=4, two_copy)",
                                    "inst:path2d(t=4, k=4, two_copy)")]
    ops += [_render(c, "path2d(t=2, k=2, two_copy)", "ascii", "group_elements"),
            _render(c, "path2d(t=2, k=2, two_copy)", "svg", "devices"),
            _render(c, "path2d(t=3, k=4, two_copy)", "svg", "devices"),
            _render(c, "path2d(t=4, k=4, two_copy)", "svg", "group_elements"),
            _render(c, "path2d(t=4, k=4, two_copy)", "ascii", "devices")]
    ops += [_search(c, *p) for p in (SEARCH_PROBE[6], ((26, 26), 2, (1, 1), "found", 4_144))]
    # heavy
    ops += [_verify(c, "minkowski"), _verify(c, "path(n=4, k=4)"),
            _render(c, "minkowski", "svg", "component_ids")]
    return ops


def cli_ops(env, rng, workdir: str, files: dict, full: bool, scripts: int = 2) -> list[Op]:
    """The session script (full) or the probe script, ``scripts`` times over.

    Two scripts give every round at least 100 commands, so that the round's
    own p90 has ten samples beyond it.
    """
    c = _Cli(env, workdir, files, rng)
    ops = [op for _ in range(scripts)
           for op in (_session_script(c) if full else _probe_script(c))]
    rng.shuffle(ops)
    return ops
