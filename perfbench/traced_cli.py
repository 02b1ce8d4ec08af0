"""``python -m redraw`` with spans around the library calls it makes.

    PERFBENCH_SPANS=out.json PERFBENCH_PARENT=<span id> PERFBENCH_RUN=<run id> \
        python3 perfbench/traced_cli.py <redraw arguments>

Wraps the public functions that ``redraw.cli`` calls, in this process
only, runs ``redraw.cli.main`` and writes the spans to PERFBENCH_SPANS
when the command ends.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import redraw.cli as cli
from redraw import count_geometric_triangulations
from redraw.pointsets import PointSet

from tracing import Tracer

tracer = Tracer(os.environ.get("PERFBENCH_RUN", "cli"), os.environ.get("PERFBENCH_PARENT"))


def _wrap(layer, fn, counts=None):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(layer) as attrs:
            value = fn(*args, **kwargs)
            if counts is not None:
                attrs.update(counts(value))
        return value
    return call


def _wrap_generator(layer, fn):
    @functools.wraps(fn)
    def gen(*args, **kwargs):
        with tracer.span(layer) as attrs:
            attrs["yielded"] = 0
            for item in fn(*args, **kwargs):
                attrs["yielded"] += 1
                yield item
    return gen


def _wrap_count_drawings(fn):
    @functools.wraps(fn)
    def call(t, ps, backend="direct", **kwargs):
        layer = "drawings.oracle" if backend == "oracle" else "drawings.direct"
        with tracer.span(layer) as attrs:
            value = fn(t, ps, backend=backend, **kwargs)
            attrs["drawings"] = value[0]
        if backend == "oracle":  # outside the span; the masks are cached by now
            attrs["scanned"] = count_geometric_triangulations(ps)
        return value
    return call


def install() -> None:
    for name in ("gen_double_chain", "gen_nested_triangles"):
        setattr(cli, name, _wrap("pointsets", getattr(cli, name)))
    PointSet.from_json = staticmethod(_wrap("pointsets", PointSet.from_json))
    for name in ("build_k_nested_double_chain", "build_k_nested_regular"):
        setattr(cli, name, _wrap("comb.build", getattr(cli, name)))
    cli.enumerate_comb_triangulations = _wrap("comb.enumerate", cli.enumerate_comb_triangulations)
    cli.enumerate_geometric_triangulations = _wrap_generator(
        "drawings.geom", cli.enumerate_geometric_triangulations)
    cli.classify_drawings = _wrap("drawings.classify", cli.classify_drawings,
                                  lambda v: {"classes": len(v), "codes": sum(v.values())})
    cli.count_polygonalizations = _wrap("drawings.polygons", cli.count_polygonalizations,
                                        lambda v: {"count": v})
    cli.count_drawings = _wrap_count_drawings(cli.count_drawings)
    cli.optimize_growth = _wrap("bounds", cli.optimize_growth)


def main() -> int:
    install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
