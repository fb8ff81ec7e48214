"""Command-line surface: build, verify, decode, search, enumerate, render.

Every command writes JSON (or a rendered document) to standard output unless
``-o FILE`` is given; diagnostics go to standard error.  Exit codes: 0 on
success (including a successful search), 1 on verification failure or any
runtime error, 2 on usage errors, 3 when a search exhausts without finding.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Optional, Sequence, Union

from . import __version__
from .abelian import AbelianGroup, enumerate_abelian_groups
from .constructions import FAMILIES, Construction
from .decoder import build_syndrome_table, decode
from .lattice import BoxSpec
from .render import RenderSpec, render
from .search import SearchProblem, exact_cover_search
from .verifier import PDDSInstance, instantiate_on_torus, verify_pdds

_VARIANTS = {"one": "single_copy", "two": "two_copy"}

# Built by the first run() and reused: parsing fills a fresh Namespace each
# time, so one process can run any number of commands.
_parser: Optional[argparse.ArgumentParser] = None


class _UsageError(Exception):
    """Bad arguments detected after parsing; reported like a parse failure."""


def _ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: object, out_path: Optional[str]) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out_path)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_any(path: str) -> Union[Construction, PDDSInstance]:
    """Parse a construction or an instance, telling them apart by shape."""
    try:
        data = json.loads(_read_source(path))
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    if "hom" in data:
        return Construction.from_json(data)
    if "torus" in data:
        return PDDSInstance.from_json(data)
    raise ValueError("JSON is neither a construction (no 'hom' key) "
                     "nor an instance (no 'torus' key)")


def _cmd_construct(args: argparse.Namespace) -> int:
    # The builder's signature says which options a family takes; a
    # parameter without a default is required.
    params = inspect.signature(FAMILIES[args.family]).parameters
    given = {
        "n": args.n, "k": args.k, "t": args.t,
        "variant": args.variant, "group": args.group,
    }
    kwargs = {}
    for name, param in params.items():
        value = given.pop(name)
        if value is None:
            if param.default is param.empty:
                raise _UsageError(f"family {args.family!r} requires --{name}")
            continue
        if name == "variant":
            kwargs[name] = _VARIANTS[value]
        elif name == "group":
            kwargs[name] = AbelianGroup(_ints(value, "--group"))
        else:
            kwargs[name] = value
    stray = [f"--{name}" for name, value in given.items() if value is not None]
    if stray:
        raise _UsageError(
            f"family {args.family!r} does not take {', '.join(sorted(stray))}")
    con = FAMILIES[args.family](**kwargs)
    _emit_json(con.to_json(), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    obj = _load_any(args.file)
    if isinstance(obj, Construction):
        torus = _ints(args.torus, "--torus") if args.torus else None
        inst = instantiate_on_torus(obj, torus)
    else:
        if args.torus:
            raise _UsageError("--torus applies only to construction input")
        inst = obj
    report = verify_pdds(inst, strict_box=args.strict_box == "true")
    _emit_json(report.to_json(), args.output)
    return 0 if report.passed else 1


def _cmd_decode(args: argparse.Namespace) -> int:
    obj = _load_any(args.file)
    if not isinstance(obj, Construction):
        raise _UsageError("decode needs a construction file")
    table = build_syndrome_table(obj.tile, obj.hom)
    torus = _ints(args.torus, "--torus") if args.torus else None
    result = decode(table, _ints(args.vertex, "--vertex"), torus)
    _emit_json(result.to_json(), args.output)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    problem = SearchProblem(
        _ints(args.torus, "--torus"), args.t, BoxSpec(_ints(args.H, "--H")),
        "all_axis_permutations" if args.orientations == "all" else "fixed")
    result = exact_cover_search(problem, max_cells=args.max_cells)
    _emit_json(result.to_json(), args.output)
    return 0 if result.outcome == "found" else 3


def _cmd_groups(args: argparse.Namespace) -> int:
    groups = enumerate_abelian_groups(args.order)
    _emit_json({"order": args.order, "count": len(groups),
                "groups": [list(g.moduli) for g in groups]}, args.output)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    obj = _load_any(args.file)
    torus = _ints(args.torus, "--torus") if args.torus else None
    if torus is not None and not isinstance(obj, Construction):
        raise _UsageError("--torus applies only to construction input")
    spec = RenderSpec(args.format, args.labels)
    _emit(render(obj, spec, torus), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdds",
        description="Perfect distance-dominating sets on grids and tori: "
                    "construct, verify, decode, search, render.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", metavar="FILE", default=None,
                       help="write output to FILE instead of standard output")

    p = sub.add_parser("construct", help="build a catalog construction")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--variant", choices=sorted(_VARIANTS))
    p.add_argument("--group", metavar="m1,m2,…",
                   help="cyclic-factor moduli overriding the default group")
    add_output(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="verify a construction or instance")
    p.add_argument("file", help="construction or instance JSON ('-' for stdin)")
    p.add_argument("--strict-box", choices=("true", "false"), default="true",
                   help="also require every component to be the declared box")
    p.add_argument("--torus", metavar="d1,d2,…",
                   help="instantiate a construction on this torus "
                        "(default: its period torus)")
    add_output(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("decode", help="nearest-device lookup for one vertex")
    p.add_argument("file", help="construction JSON ('-' for stdin)")
    p.add_argument("--vertex", required=True, metavar="a1,a2,…")
    p.add_argument("--torus", metavar="d1,d2,…")
    add_output(p)
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("search", help="exhaustive existence search on a torus")
    p.add_argument("--torus", required=True, metavar="d1,d2,…")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--H", required=True, metavar="k1,k2,…",
                   help="box extents of the component graph")
    p.add_argument("--orientations", choices=("all", "fixed"), default="all")
    p.add_argument("--max-cells", type=int, default=None,
                   help="override the torus volume cap (default 4096)")
    add_output(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("groups", help="list the Abelian groups of an order")
    p.add_argument("--order", type=int, required=True)
    add_output(p)
    p.set_defaults(handler=_cmd_groups)

    p = sub.add_parser("render", help="draw a construction or instance")
    p.add_argument("file", help="construction or instance JSON ('-' for stdin)")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--labels", default="group_elements",
                   choices=("group_elements", "component_ids", "devices"))
    p.add_argument("--torus", metavar="d1,d2,…",
                   help="instantiate a construction on this torus")
    add_output(p)
    p.set_defaults(handler=_cmd_render)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and translate outcomes into exit codes."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:        # argparse exits 2 on usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"pdds {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"pdds {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
