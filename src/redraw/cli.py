"""Command line front end.

Subcommands mirror the library: generators, family builders, counting,
classification, polygonalizations, growth bounds, rendering.  All output
is JSON (CSV for classification histograms, SVG for rendering) so runs
can be chained and diffed.  Failures print a machine readable error
object to stderr as one JSON line and exit 1, or 2 for usage errors,
argparse's own included.  The environment variable
REDRAW_MAX_N overrides the guards on exhaustive searches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, NoReturn, Sequence

from .bounds import ConstraintKind, exponent_rate, optimize_growth
from .comb import (
    build_k_nested_double_chain,
    build_k_nested_regular,
    enumerate_comb_triangulations,
    from_rotation_json,
    tutte_count,
)
from .drawings import (
    GeomTriangulation,
    classify_drawings,
    classify_to_csv,
    count_drawings,
    count_geometric_triangulations,
    count_polygonalizations,
    enumerate_geometric_triangulations,
    recursive_layer_count,
    render_svg,
)
from .pointsets import PointSet, gen_double_chain, gen_nested_triangles

_CONSTRAINT_TOKENS = {
    "paper": ConstraintKind.DEGREE_MASS,
    "balance": ConstraintKind.MEAN_DEGREE,
    "none": ConstraintKind.FREE,
}


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
    return PointSet.from_json(_read(args.pointset))


def _cmd_gen(args: argparse.Namespace) -> None:
    if args.family == "double-chain":
        ps = gen_double_chain(args.t, args.l)
    else:
        ps = gen_nested_triangles(args.n)
    _emit(args, ps.to_json())


def _cmd_build(args: argparse.Namespace) -> None:
    if args.family == "nested-double-chain":
        t = build_k_nested_double_chain(args.k)
    else:
        t = build_k_nested_regular(args.n)
    _emit(args, t.to_json())


def _cmd_tutte(args: argparse.Namespace) -> None:
    _emit(args, str(tutte_count(args.n)))


def _cmd_enumerate(args: argparse.Namespace) -> None:
    if args.interior is not None:
        ts = enumerate_comb_triangulations(args.interior, cap=args.cap)
        if args.stream:
            _emit_lines(args, (t.to_json() for t in ts))
        else:
            _emit(args, str(len(ts)))
        return
    ps = _load_pointset(args)
    if args.stream:
        gen = enumerate_geometric_triangulations(ps, args.cap, args.max_n)
        _emit_lines(args, (gt.to_json() for gt in gen))
    else:
        _emit(args, str(count_geometric_triangulations(ps, args.cap, args.max_n)))


def _cmd_count_drawings(args: argparse.Namespace) -> None:
    if args.t is not None:
        t = build_k_nested_double_chain(1)
        ps = gen_double_chain(args.t + 2, args.l + 2)
    else:
        t = from_rotation_json(_read(args.triangulation))
        ps = _load_pointset(args)
    backends = ["direct", "oracle"] if args.backend == "both" else [args.backend]
    counts = [count_drawings(t, ps, backend=b, max_n=args.max_n)[0] for b in backends]
    if len(counts) == 2 and counts[0] != counts[1]:
        raise BackendMismatch(f"direct={counts[0]} oracle={counts[1]} disagree")
    _emit(args, "\n".join(str(c) for c in counts))


def _cmd_classify(args: argparse.Namespace) -> None:
    hist = classify_drawings(_load_pointset(args), max_n=args.max_n, jobs=args.jobs)
    _emit(args, classify_to_csv(hist))


def _cmd_polygons(args: argparse.Namespace) -> None:
    n = count_polygonalizations(
        _load_pointset(args), cap=args.cap, max_n=args.max_n, jobs=args.jobs
    )
    _emit(args, str(n))


def _cmd_layer_count(args: argparse.Namespace) -> None:
    _emit(args, str(recursive_layer_count(args.k)))


def _cmd_bounds(args: argparse.Namespace) -> None:
    kind = _CONSTRAINT_TOKENS[args.constraint]
    vec, growth = optimize_growth(kind)
    report = {
        "constraint": kind.value,
        "alpha": list(vec.alpha),
        "growth": growth,
        "exponent": exponent_rate(vec.alpha) / 8.0,
    }
    _emit(args, json.dumps(report, separators=(",", ":")))


def _cmd_render(args: argparse.Namespace) -> None:
    gt = GeomTriangulation.from_json(_read(args.geom))
    _emit(args, render_svg(gt))


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors as one JSON line and exit 2; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        _fail("UsageError", message)
        raise SystemExit(2)


def _parser() -> _Parser:
    p = _Parser(
        prog="redraw",
        description="triangulation drawing counts, enumeration and bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(
        sp: argparse.ArgumentParser,
        func: Callable[[argparse.Namespace], None],
        jobs: bool = False,
        cap: bool = False,
    ):
        sp.set_defaults(func=func)
        sp.add_argument("-o", "--out", help="write output to this file")
        if jobs:
            sp.add_argument("--jobs", type=int, default=1, help="worker count")
        if cap:
            sp.add_argument("--cap", type=int, help="abort beyond this many results")

    sp = sub.add_parser("gen", help="generate a structured point set")
    families = sp.add_subparsers(dest="family", required=True)
    sp = families.add_parser("double-chain")
    sp.add_argument("--t", type=int, required=True, help="upper chain size")
    sp.add_argument("--l", type=int, required=True, help="lower chain size")
    common(sp, _cmd_gen)
    sp = families.add_parser("nested-triangles")
    sp.add_argument("--n", type=int, required=True, help="point count")
    common(sp, _cmd_gen)

    sp = sub.add_parser("build", help="build a reference triangulation")
    families = sp.add_subparsers(dest="family", required=True)
    sp = families.add_parser("nested-double-chain")
    sp.add_argument("--k", type=int, required=True, help="layer count")
    common(sp, _cmd_build)
    sp = families.add_parser("nested-regular")
    sp.add_argument("--n", type=int, required=True, help="vertex count")
    common(sp, _cmd_build)

    sp = sub.add_parser("tutte", help="exact triangulation count for n interior vertices")
    sp.add_argument("n", type=int)
    common(sp, _cmd_tutte)

    sp = sub.add_parser("enumerate", help="enumerate triangulations exhaustively")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pointset", help="point set JSON file (geometric mode)")
    mode.add_argument("--interior", type=int, help="interior vertex count (abstract mode)")
    sp.add_argument("--stream", action="store_true", help="print one JSON per line")
    common(sp, _cmd_enumerate, cap=True)

    sp = sub.add_parser("count-drawings", help="count drawings of a triangulation on a point set")
    sp.add_argument("--triangulation", help="rotation system JSON file")
    sp.add_argument("--pointset", help="point set JSON file")
    sp.add_argument("--t", type=int, help="shortcut: upper interior run of a double chain")
    sp.add_argument("--l", type=int, help="shortcut: lower interior run of a double chain")
    sp.add_argument(
        "--backend",
        choices=["direct", "oracle", "both"],
        default="direct",
        help="direct assignment search, exhaustive oracle, or both cross checked",
    )
    common(sp, _cmd_count_drawings)

    sp = sub.add_parser("classify", help="histogram of drawing classes of a point set")
    sp.add_argument("--pointset", required=True)
    common(sp, _cmd_classify, jobs=True)

    sp = sub.add_parser("polygons", help="count polygonalizations of a point set")
    sp.add_argument("--pointset", required=True)
    common(sp, _cmd_polygons, jobs=True, cap=True)

    sp = sub.add_parser("layer-count", help="layered assembly count for k layers")
    sp.add_argument("k", type=int)
    common(sp, _cmd_layer_count)

    sp = sub.add_parser("bounds", help="optimize the degree distribution growth bound")
    sp.add_argument(
        "--constraint",
        choices=sorted(_CONSTRAINT_TOKENS),
        default="none",
        help="paper: degree weighted mass balance, balance: mean degree four, none: simplex only",
    )
    common(sp, _cmd_bounds)

    sp = sub.add_parser("render", help="render a geometric triangulation to SVG")
    sp.add_argument("--geom", required=True, help="geometric triangulation JSON file")
    common(sp, _cmd_render)

    return p


def _check_args(args: argparse.Namespace) -> str | None:
    if getattr(args, "jobs", 1) < 1:
        return f"--jobs must be at least 1, got {args.jobs}"
    if args.command == "count-drawings":
        shortcut, files = (args.t, args.l), (args.triangulation, args.pointset)
        if shortcut == (None, None):
            if None in files:
                return "count-drawings needs --triangulation and --pointset, or --t/--l"
        elif None in shortcut:
            return "count-drawings shortcut needs both --t and --l"
        elif files != (None, None):
            return "count-drawings shortcut --t/--l takes no --triangulation or --pointset"
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
    except Exception as exc:  # surface everything as a structured error
        _fail(type(exc).__name__, str(exc))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
