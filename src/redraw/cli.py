"""Command line front end.

Subcommands mirror the library: generators, family builders, counting,
classification, polygonalizations, growth bounds, rendering.  All output
is JSON (CSV for classification histograms, SVG for rendering) so runs
can be chained and diffed.  Failures print a machine readable error
object to stderr as one JSON line and exit 1, or 2 for usage errors,
argparse's own included.  A reader that closes stdout early (`| head`)
is no failure: exit 1, nothing on stderr.  The environment variable
REDRAW_MAX_N overrides the guards on exhaustive searches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, NoReturn, Sequence

from . import _HOMES

if TYPE_CHECKING:
    from .pointsets import PointSet


def __getattr__(name: str) -> object:
    """The package's public names as this module's own (PEP 562), each
    loaded on first read by the package's hook: a command loads only what
    it runs, and a wrapper set on this module sees every call."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


_cli = sys.modules[__name__]  # the commands call the package's names through it

# --constraint choice -> name of the ConstraintKind member
_CONSTRAINT_TOKENS = {"paper": "DEGREE_MASS", "balance": "MEAN_DEGREE", "none": "FREE"}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write text whole, ending in exactly one newline."""
    _emit_lines(args, [text.removesuffix("\n")])


def _emit_lines(args: argparse.Namespace, lines: Iterable[str]) -> None:
    """Write each line and a newline as it is produced.  The output opens
    at the first line, so an error raised before it leaves no file."""
    fh = None
    try:
        for line in lines:
            if fh is None:
                fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
            fh.write(line + "\n")
    finally:
        if fh is not None and fh is not sys.stdout:
            fh.close()


class BackendMismatch(Exception):
    """The direct and oracle backends counted differently."""


def _load_pointset(args: argparse.Namespace) -> PointSet:
    return _cli.PointSet.from_json(_read(args.pointset))


def _cmd_gen(args: argparse.Namespace) -> None:
    if args.family == "double-chain":
        ps = _cli.gen_double_chain(args.t, args.l)
    else:
        ps = _cli.gen_nested_triangles(args.n)
    _emit(args, ps.to_json())


def _cmd_build(args: argparse.Namespace) -> None:
    if args.family == "nested-double-chain":
        t = _cli.build_k_nested_double_chain(args.k)
    else:
        t = _cli.build_k_nested_regular(args.n)
    _emit(args, t.to_json())


def _cmd_tutte(args: argparse.Namespace) -> None:
    _emit(args, str(_cli.tutte_count(args.n)))


def _cmd_enumerate(args: argparse.Namespace) -> None:
    if args.interior is not None:
        ts = _cli.enumerate_comb_triangulations(args.interior, cap=args.cap)
        if args.stream:
            _emit_lines(args, (t.to_json() for t in ts))
        else:
            _emit(args, str(len(ts)))
        return
    ps = _load_pointset(args)
    if args.stream:
        gen = _cli.enumerate_geometric_triangulations(ps, args.cap, args.max_n)
        _emit_lines(args, (gt.to_json() for gt in gen))
    else:
        _emit(args, str(_cli.count_geometric_triangulations(ps, args.cap, args.max_n)))


def _cmd_count_drawings(args: argparse.Namespace) -> None:
    if args.t is not None:
        t = _cli.build_k_nested_double_chain(1)
        ps = _cli.gen_double_chain(args.t + 2, args.l + 2)
    else:
        t = _cli.from_rotation_json(_read(args.triangulation))
        ps = _load_pointset(args)
    backends = ["direct", "oracle"] if args.backend == "both" else [args.backend]
    counts = [_cli.count_drawings(t, ps, backend=b, max_n=args.max_n)[0] for b in backends]
    if len(counts) == 2 and counts[0] != counts[1]:
        raise BackendMismatch(f"direct={counts[0]} oracle={counts[1]} disagree")
    _emit(args, "\n".join(str(c) for c in counts))


def _cmd_classify(args: argparse.Namespace) -> None:
    hist = _cli.classify_drawings(_load_pointset(args), max_n=args.max_n, jobs=args.jobs)
    _emit(args, _cli.classify_to_csv(hist))


def _cmd_polygons(args: argparse.Namespace) -> None:
    n = _cli.count_polygonalizations(
        _load_pointset(args), cap=args.cap, max_n=args.max_n, jobs=args.jobs
    )
    _emit(args, str(n))


def _cmd_layer_count(args: argparse.Namespace) -> None:
    _emit(args, str(_cli.recursive_layer_count(args.k)))


def _cmd_bounds(args: argparse.Namespace) -> None:
    kind = _cli.ConstraintKind[_CONSTRAINT_TOKENS[args.constraint]]
    vec, growth = _cli.optimize_growth(kind)
    report = {
        "constraint": kind.value,
        "alpha": list(vec.alpha),
        "growth": growth,
        "exponent": _cli.exponent_rate(vec.alpha) / 8.0,
    }
    _emit(args, json.dumps(report, separators=(",", ":")))


def _cmd_render(args: argparse.Namespace) -> None:
    gt = _cli.GeomTriangulation.from_json(_read(args.geom))
    _emit(args, _cli.render_svg(gt))


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors as one JSON line and exit 2; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        _fail("UsageError", message)
        raise SystemExit(2)


def _parser() -> _Parser:
    p = _Parser(prog="redraw", description="triangulation drawing counts, enumeration and bounds")
    sub = p.add_subparsers(dest="command", required=True)
    out, jobs, cap = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    out.add_argument("-o", "--out", help="write output to this file")
    jobs.add_argument("--jobs", type=int, default=1, help="worker count")
    cap.add_argument("--cap", type=int, help="abort beyond this many results")

    sp = sub.add_parser("gen", help="generate a structured point set")
    sp.set_defaults(func=_cmd_gen)
    families = sp.add_subparsers(dest="family", required=True)
    sp = families.add_parser("double-chain", parents=[out])
    sp.add_argument("--t", type=int, required=True, help="upper chain size")
    sp.add_argument("--l", type=int, required=True, help="lower chain size")
    sp = families.add_parser("nested-triangles", parents=[out])
    sp.add_argument("--n", type=int, required=True, help="point count")

    sp = sub.add_parser("build", help="build a reference triangulation")
    sp.set_defaults(func=_cmd_build)
    families = sp.add_subparsers(dest="family", required=True)
    sp = families.add_parser("nested-double-chain", parents=[out])
    sp.add_argument("--k", type=int, required=True, help="layer count")
    sp = families.add_parser("nested-regular", parents=[out])
    sp.add_argument("--n", type=int, required=True, help="vertex count")

    sp = sub.add_parser("tutte", parents=[out],
                        help="exact triangulation count for n interior vertices")
    sp.set_defaults(func=_cmd_tutte)
    sp.add_argument("n", type=int)

    sp = sub.add_parser("enumerate", parents=[out, cap],
                        help="enumerate triangulations exhaustively")
    sp.set_defaults(func=_cmd_enumerate)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pointset", help="point set JSON file (geometric mode)")
    mode.add_argument("--interior", type=int, help="interior vertex count (abstract mode)")
    sp.add_argument("--stream", action="store_true", help="print one JSON per line")

    sp = sub.add_parser("count-drawings", parents=[out],
                        help="count drawings of a triangulation on a point set")
    sp.set_defaults(func=_cmd_count_drawings)
    structure = sp.add_mutually_exclusive_group(required=True)
    structure.add_argument("--triangulation", help="rotation system JSON file")
    structure.add_argument("--t", type=int, help="shortcut: upper interior run of a double chain")
    points = sp.add_mutually_exclusive_group(required=True)
    points.add_argument("--pointset", help="point set JSON file")
    points.add_argument("--l", type=int, help="shortcut: lower interior run of a double chain")
    sp.add_argument("--backend", choices=["direct", "oracle", "both"], default="direct",
                    help="direct assignment search, exhaustive oracle, or both cross checked")

    sp = sub.add_parser("classify", parents=[out, jobs],
                        help="histogram of drawing classes of a point set")
    sp.set_defaults(func=_cmd_classify)
    sp.add_argument("--pointset", required=True)

    sp = sub.add_parser("polygons", parents=[out, jobs, cap],
                        help="count polygonalizations of a point set")
    sp.set_defaults(func=_cmd_polygons)
    sp.add_argument("--pointset", required=True)

    sp = sub.add_parser("layer-count", parents=[out], help="layered assembly count for k layers")
    sp.set_defaults(func=_cmd_layer_count)
    sp.add_argument("k", type=int)

    sp = sub.add_parser("bounds", parents=[out],
                        help="optimize the degree distribution growth bound")
    sp.set_defaults(func=_cmd_bounds)
    sp.add_argument(
        "--constraint",
        choices=sorted(_CONSTRAINT_TOKENS),
        default="none",
        help="paper: degree weighted mass balance, balance: mean degree four, none: simplex only",
    )

    sp = sub.add_parser("render", parents=[out], help="render a geometric triangulation to SVG")
    sp.set_defaults(func=_cmd_render)
    sp.add_argument("--geom", required=True, help="geometric triangulation JSON file")

    return p


def _check_args(args: argparse.Namespace) -> str | None:
    """The rules the parser cannot hold: at least one worker, and
    count-drawings' two options from one input form, since each of its
    groups takes either form."""
    if getattr(args, "jobs", 1) < 1:
        return f"--jobs must be at least 1, got {args.jobs}"
    if args.command == "count-drawings" and (args.t is None) != (args.l is None):
        return "count-drawings takes --triangulation with --pointset, or --t with --l"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    env_max = os.environ.get("REDRAW_MAX_N")
    try:
        args.max_n = int(env_max) if env_max else None
    except ValueError:
        parser.error(f"REDRAW_MAX_N must be an integer, got {env_max!r}")
    problem = _check_args(args)
    if problem:
        parser.error(problem)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader left; keep the exit's own flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # surface everything as a structured error
        _fail(type(exc).__name__, str(exc))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
