"""Command line front end.

Subcommands mirror the library: generators, family builders, counting,
classification, polygonalizations, growth bounds, rendering.  All output
is JSON (CSV for classification histograms, SVG for rendering) so runs
can be chained and diffed.  Failures print a machine readable error
object to stderr and exit nonzero.  The environment variable
REDRAW_MAX_N overrides the guards on exhaustive searches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

from .bounds import AlphaVector, ConstraintKind, exponent_rate, optimize_growth
from .comb import (
    CombTriangulation,
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
    count_polygonalizations,
    enumerate_geometric_triangulations,
    render_svg,
)
from .pointsets import PointSet, gen_double_chain, gen_nested_triangles

_CONSTRAINT_TOKENS = {
    "paper": ConstraintKind.DEGREE_MASS,
    "balance": ConstraintKind.MEAN_DEGREE,
    "none": ConstraintKind.FREE,
}


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from argv."""

    command: str
    backend: str = "direct"
    constraint: str = "none"
    jobs: int = 1
    max_n: int | None = None
    cap: int | None = None
    out: str | None = None
    stream: bool = False
    params: dict[str, Any] = field(default_factory=dict)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_pointset(cfg: RunConfig) -> PointSet:
    return PointSet.from_json(_read(cfg.params["pointset"]))


def _load_comb(cfg: RunConfig) -> CombTriangulation:
    return from_rotation_json(_read(cfg.params["triangulation"]))


def _cmd_gen(cfg: RunConfig) -> int:
    fam = cfg.params["family"]
    if fam == "double-chain":
        ps = gen_double_chain(cfg.params["t"], cfg.params["l"])
    else:
        ps = gen_nested_triangles(cfg.params["n"])
    _emit(cfg, ps.to_json())
    return 0


def _cmd_build(cfg: RunConfig) -> int:
    fam = cfg.params["family"]
    if fam == "nested-double-chain":
        t = build_k_nested_double_chain(cfg.params["k"])
    else:
        t = build_k_nested_regular(cfg.params["n"])
    _emit(cfg, t.to_json())
    return 0


def _cmd_tutte(cfg: RunConfig) -> int:
    _emit(cfg, str(tutte_count(cfg.params["n"])))
    return 0


def _cmd_enumerate(cfg: RunConfig) -> int:
    if cfg.params.get("interior") is not None:
        ts = enumerate_comb_triangulations(cfg.params["interior"], cap=cfg.cap)
        if cfg.stream:
            _emit(cfg, "".join(t.to_json() + "\n" for t in ts))
        else:
            _emit(cfg, str(len(ts)))
        return 0
    ps = _load_pointset(cfg)
    gen = enumerate_geometric_triangulations(
        ps, cap=cfg.cap, max_n=cfg.max_n, jobs=cfg.jobs
    )
    if cfg.stream:
        _emit(cfg, "".join(gt.to_json() + "\n" for gt in gen))
    else:
        _emit(cfg, str(sum(1 for _ in gen)))
    return 0


def _cmd_count_drawings(cfg: RunConfig) -> int:
    if cfg.params.get("t") is not None:
        t = build_k_nested_double_chain(1)
        ps = gen_double_chain(cfg.params["t"] + 2, cfg.params["l"] + 2)
    else:
        t = _load_comb(cfg)
        ps = _load_pointset(cfg)
    backends = ["direct", "oracle"] if cfg.backend == "both" else [cfg.backend]
    counts = [
        count_drawings(t, ps, backend=b, max_n=cfg.max_n, jobs=cfg.jobs)[0]
        for b in backends
    ]
    if len(counts) == 2 and counts[0] != counts[1]:
        _fail(
            "BackendMismatch",
            f"direct={counts[0]} oracle={counts[1]} disagree",
        )
        return 1
    _emit(cfg, "\n".join(str(c) for c in counts))
    return 0


def _cmd_classify(cfg: RunConfig) -> int:
    hist = classify_drawings(_load_pointset(cfg), max_n=cfg.max_n, jobs=cfg.jobs)
    _emit(cfg, classify_to_csv(hist))
    return 0


def _cmd_polygons(cfg: RunConfig) -> int:
    n = count_polygonalizations(
        _load_pointset(cfg), cap=cfg.cap, max_n=cfg.max_n, jobs=cfg.jobs
    )
    _emit(cfg, str(n))
    return 0


def _cmd_layer_count(cfg: RunConfig) -> int:
    from .drawings import recursive_layer_count

    _emit(cfg, str(recursive_layer_count(cfg.params["k"])))
    return 0


def _cmd_bounds(cfg: RunConfig) -> int:
    kind = _CONSTRAINT_TOKENS[cfg.constraint]
    vec, growth = optimize_growth(kind, tolerance=cfg.params.get("tolerance", 1e-12))
    report = {
        "constraint": kind.value,
        "alpha": list(vec.alpha),
        "growth": growth,
        "exponent": exponent_rate(vec.alpha) / 8.0,
    }
    _emit(cfg, json.dumps(report, separators=(",", ":")))
    return 0


def _cmd_render(cfg: RunConfig) -> int:
    gt = GeomTriangulation.from_json(_read(cfg.params["geom"]))
    _emit(cfg, render_svg(gt))
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "tutte": _cmd_tutte,
    "enumerate": _cmd_enumerate,
    "count-drawings": _cmd_count_drawings,
    "classify": _cmd_classify,
    "polygons": _cmd_polygons,
    "layer-count": _cmd_layer_count,
    "bounds": _cmd_bounds,
    "render": _cmd_render,
}


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="redraw",
        description="triangulation drawing counts, enumeration and bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, jobs: bool = False, cap: bool = False):
        sp.add_argument("-o", "--out", help="write output to this file")
        if jobs:
            sp.add_argument("--jobs", type=int, default=1, help="worker count")
        if cap:
            sp.add_argument("--cap", type=int, help="abort beyond this many results")

    sp = sub.add_parser("gen", help="generate a structured point set")
    sp.add_argument("family", choices=["double-chain", "nested-triangles"])
    sp.add_argument("--t", type=int, help="upper chain size")
    sp.add_argument("--l", type=int, help="lower chain size")
    sp.add_argument("--n", type=int, help="point count")
    common(sp)

    sp = sub.add_parser("build", help="build a reference triangulation")
    sp.add_argument("family", choices=["nested-double-chain", "nested-regular"])
    sp.add_argument("--k", type=int, help="layer count")
    sp.add_argument("--n", type=int, help="vertex count")
    common(sp)

    sp = sub.add_parser("tutte", help="exact triangulation count for n interior vertices")
    sp.add_argument("n", type=int)
    common(sp)

    sp = sub.add_parser("enumerate", help="enumerate triangulations exhaustively")
    sp.add_argument("--pointset", help="point set JSON file (geometric mode)")
    sp.add_argument("--interior", type=int, help="interior vertex count (abstract mode)")
    sp.add_argument("--stream", action="store_true", help="print one JSON per line")
    common(sp, jobs=True, cap=True)

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
    common(sp, jobs=True)

    sp = sub.add_parser("classify", help="histogram of drawing classes of a point set")
    sp.add_argument("--pointset", required=True)
    common(sp, jobs=True)

    sp = sub.add_parser("polygons", help="count polygonalizations of a point set")
    sp.add_argument("--pointset", required=True)
    common(sp, jobs=True, cap=True)

    sp = sub.add_parser("layer-count", help="layered assembly count for k layers")
    sp.add_argument("k", type=int)
    common(sp)

    sp = sub.add_parser("bounds", help="optimize the degree distribution growth bound")
    sp.add_argument(
        "--constraint",
        choices=sorted(_CONSTRAINT_TOKENS),
        default="none",
        help="paper: degree weighted mass balance, balance: mean degree four, none: simplex only",
    )
    sp.add_argument("--tolerance", type=float, default=1e-12)
    common(sp)

    sp = sub.add_parser("render", help="render a geometric triangulation to SVG")
    sp.add_argument("--geom", required=True, help="geometric triangulation JSON file")
    common(sp)

    return p


def _config_from_args(args: argparse.Namespace, max_n: int | None) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        backend=getattr(args, "backend", "direct"),
        constraint=getattr(args, "constraint", "none"),
        jobs=getattr(args, "jobs", 1),
        max_n=max_n,
        cap=getattr(args, "cap", None),
        out=getattr(args, "out", None),
        stream=getattr(args, "stream", False),
    )
    for key in ("family", "t", "l", "n", "k", "interior", "pointset",
                "triangulation", "geom", "tolerance"):
        if hasattr(args, key):
            cfg.params[key] = getattr(args, key)
    return cfg


def _check_args(cfg: RunConfig) -> str | None:
    p = cfg.params
    if cfg.command == "gen":
        if p["family"] == "double-chain" and (p.get("t") is None or p.get("l") is None):
            return "gen double-chain needs --t and --l"
        if p["family"] == "nested-triangles" and p.get("n") is None:
            return "gen nested-triangles needs --n"
    if cfg.command == "build":
        if p["family"] == "nested-double-chain" and p.get("k") is None:
            return "build nested-double-chain needs --k"
        if p["family"] == "nested-regular" and p.get("n") is None:
            return "build nested-regular needs --n"
    if cfg.command == "enumerate":
        if (p.get("pointset") is None) == (p.get("interior") is None):
            return "enumerate needs exactly one of --pointset or --interior"
    if cfg.command == "count-drawings":
        shortcut = p.get("t") is not None or p.get("l") is not None
        files = p.get("triangulation") is not None and p.get("pointset") is not None
        if shortcut and (p.get("t") is None or p.get("l") is None):
            return "count-drawings shortcut needs both --t and --l"
        if not shortcut and not files:
            return "count-drawings needs --triangulation and --pointset, or --t/--l"
    return None


def run(cfg: RunConfig) -> int:
    problem = _check_args(cfg)
    if problem:
        _fail("UsageError", problem)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg)
    except Exception as exc:  # surface everything as a structured error
        _fail(type(exc).__name__, str(exc))
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    env_max = os.environ.get("REDRAW_MAX_N")
    try:
        max_n = int(env_max) if env_max else None
    except ValueError:
        _fail("UsageError", f"REDRAW_MAX_N must be an integer, got {env_max!r}")
        return 2
    return run(_config_from_args(args, max_n))


if __name__ == "__main__":
    raise SystemExit(main())
