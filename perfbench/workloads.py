"""The in-process workloads: instances, anchors, cross-checks.

Each workload has two phases.  ``setup`` builds every ``PointSet`` and
``CombTriangulation`` the repetition needs; ``run`` calls the public
counting functions one after another (a closed loop with one caller,
``jobs=1``) and checks every result.  A call that raises, or a count that
differs from its anchor or its cross-check, is a failed operation.

Random point sets are drawn here, by rejection, from the workload seed;
the program only ever receives the finished ``PointSet``.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Any, Callable

from redraw import (
    PointSet,
    build_k_nested_double_chain,
    build_k_nested_regular,
    classify_drawings,
    count_drawings,
    count_geometric_triangulations,
    count_polygonalizations,
    enumerate_geometric_triangulations,
    forced_edges_always_present,
    gen_double_chain,
    gen_nested_triangles,
    orient,
    recursive_layer_count,
    segments_cross,
    to_comb,
)

from tracing import Tracer


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# Exact (triangulations, polygonalizations, drawing classes) of the fixed
# double chains.  There is no closed form for them; they were counted by the
# program and are held fixed so that any change in a count is caught.  The
# identities checked in chain_sweep (classes sum to triangulations, largest
# class at most the polygon count) hold for them too.
CHAIN_ANCHORS = {
    (2, 9): (3861, 3176, 3861),
    (3, 8): (4752, 4496, 4752),
    (4, 7): (7056, 6700, 6813),
    (5, 6): (8820, 8267, 8137),
    (3, 4): (20, 44, 20),
}

# The one-ring chain pair drawn on the seven 12-point splits (9,3)..(3,9):
# the row 0,1,2,3,2,1,0 of the README, and the triangulation counts of the
# splits the oracle runs on.
ROW_ANCHORS = {(9, 3): 0, (8, 4): 1, (7, 5): 2, (6, 6): 3, (5, 7): 2, (4, 8): 1, (3, 9): 0}
ROW_TRIANGULATIONS = {(9, 3): 19305, (8, 4): 31680}
BAND_TRIANGULATIONS = {9: 729}


def random_points(rng: random.Random, n: int, span: int = 1000) -> tuple[tuple[int, int], ...]:
    """n distinct integer points, no three collinear, by rejection."""
    while True:
        pts = [(rng.randrange(span), rng.randrange(span)) for _ in range(n)]
        if len(set(pts)) == n and not any(
            (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
            for a, b, c in combinations(pts, 3)
        ):
            return tuple(pts)


def seeded(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


class Runner:
    """Times public calls, records their counts, and collects failures."""

    def __init__(self, tracer: Tracer | None, broken: str | None = None):
        self.tracer = tracer
        self.broken = broken
        self.ops: list[dict] = []
        self._by_name: dict[str, dict] = {}

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext({})

    def call(self, name: str, layer: str, fn: Callable[[], Any],
             counts: Callable[[Any], dict] | None = None) -> Any:
        """One operation: time ``fn()`` and return its value, None if it raised."""
        rec = {"op": name, "layer": layer, "seconds": 0.0, "counts": {}, "problems": []}
        self.ops.append(rec)
        self._by_name[name] = rec
        value = None
        t0 = time.perf_counter()
        with self.span(layer, op=name) as attrs:
            try:
                value = fn()
            except Exception as exc:  # a raising call is a failed operation
                rec["problems"].append(f"{type(exc).__name__}: {exc}")
            else:
                if counts is not None:
                    rec["counts"] = counts(value)
                    attrs.update(rec["counts"])
        rec["seconds"] = time.perf_counter() - t0
        return value

    def require(self, name: str, ok: bool, problem: str) -> None:
        if not ok:
            self._by_name[name]["problems"].append(problem)

    def expect(self, name: str, actual: Any, anchor: int) -> None:
        if name == self.broken:  # self-test hook: a deliberately wrong anchor
            anchor += 1
        self.require(name, actual == anchor, f"got {actual}, anchor {anchor}")


def traced(tracer: Tracer | None, layer: str, fn: Callable[[], Any]) -> Any:
    if tracer is None:
        return fn()
    with tracer.span(layer):
        return fn()


@dataclass
class Instance:
    name: str
    ps: PointSet
    anchors: tuple[int, ...] | None = None
    extra: dict = field(default_factory=dict)


# -- chain-sweep ---------------------------------------------------------------


def chain_sweep_setup(seed: int, smoke: bool, tracer: Tracer | None) -> list[Instance]:
    out = []
    for t, l in [(3, 4)] if smoke else [(2, 9), (3, 8), (4, 7), (5, 6)]:
        ps = traced(tracer, "pointsets", lambda: gen_double_chain(t, l))
        out.append(Instance(f"dc-{t}-{l}", ps, CHAIN_ANCHORS[(t, l)], {"chain": True}))
    n = 7 if smoke else 12
    ps = traced(tracer, "pointsets", lambda: PointSet(tuple((i, i * i) for i in range(n))))
    out.append(Instance(f"convex-{n}", ps, (catalan(n - 2), 1, catalan(n - 2))))
    for i, size in enumerate([7] if smoke else [10, 10, 10, 10]):
        raw = random_points(seeded("chain-sweep", seed, i), size)
        out.append(Instance(f"random-{size}-{i}", traced(tracer, "pointsets", lambda: PointSet(raw))))
    return out


def chain_sweep_run(inputs: list[Instance], run: Runner) -> None:
    for inst in inputs:
        ps, key = inst.ps, inst.name
        with run.span("bench", instance=key):
            n = run.call(f"{key}/triangulations", "drawings.enumerate",
                         lambda: count_geometric_triangulations(ps),
                         lambda v: {"triangulations": v})
            if inst.extra.get("chain"):
                f = run.call(f"{key}/forced", "drawings.forced",
                             lambda: forced_edges_always_present(ps))
                run.require(f"{key}/forced", f is True, "a forced edge is missing")
            p = run.call(f"{key}/polygons", "drawings.polygons",
                         lambda: count_polygonalizations(ps), lambda v: {"count": v})
            h = run.call(f"{key}/classify", "drawings.classify",
                         lambda: classify_drawings(ps),
                         lambda v: {"classes": len(v), "codes": sum(v.values())})
            if inst.anchors:
                tri, polys, classes = inst.anchors
                run.expect(f"{key}/triangulations", n, tri)
                run.expect(f"{key}/polygons", p, polys)
                run.expect(f"{key}/classify", len(h) if h is not None else None, classes)
            if h is not None:
                run.require(f"{key}/classify", sum(h.values()) == n,
                            f"multiplicities sum to {sum(h.values())}, not {n}")
                run.require(f"{key}/classify", p is not None and max(h.values()) <= p,
                            f"largest multiplicity {max(h.values())} > {p} polygons")


# -- drawing-count ---------------------------------------------------------------


def drawing_count_setup(seed: int, smoke: bool, tracer: Tracer | None) -> dict:
    k1 = traced(tracer, "comb.build", lambda: build_k_nested_double_chain(1))
    row = []
    for t, l in [(6, 6)] if smoke else list(ROW_ANCHORS):
        ps = traced(tracer, "pointsets", lambda: gen_double_chain(t, l))
        row.append(Instance(f"row-{t}-{l}", ps, (ROW_ANCHORS[(t, l)],),
                            {"oracle": not smoke and (t, l) in ROW_TRIANGULATIONS, "split": (t, l)}))
    bands = []
    for n in [9] if smoke else [9, 12, 15, 18]:
        band = traced(tracer, "comb.build", lambda: build_k_nested_regular(n))
        ps = traced(tracer, "pointsets", lambda: gen_nested_triangles(n))
        bands.append(Instance(f"band-{n}", ps, (2 ** (n // 3 - 1),),
                              {"t": band, "oracle": n in BAND_TRIANGULATIONS, "n": n}))
    pair = None
    if not smoke:
        k2 = traced(tracer, "comb.build", lambda: build_k_nested_double_chain(2))
        ps = traced(tracer, "pointsets", lambda: gen_double_chain(10, 10))
        pair = Instance("k2-10-10", ps, (19,), {"t": k2})
    rand = []
    for i, size in enumerate([7] if smoke else [7, 8, 8, 7, 8, 8]):
        raw = random_points(seeded("drawing-count", seed, i), size)
        rand.append(Instance(f"random-{size}-{i}", traced(tracer, "pointsets", lambda: PointSet(raw))))
    return {"k1": k1, "row": row, "bands": bands, "pair": pair, "random": rand}


def _direct(run: Runner, name: str, t, ps) -> int | None:
    return run.call(name, "drawings.direct", lambda: count_drawings(t, ps)[0],
                    lambda v: {"drawings": v})


def _oracle(run: Runner, name: str, t, ps, scanned: int | None) -> int | None:
    return run.call(name, "drawings.oracle",
                    lambda: count_drawings(t, ps, backend="oracle")[0],
                    lambda v: {"drawings": v, "scanned": scanned or 0})


def _triangulations(run: Runner, name: str, ps) -> int | None:
    return run.call(name, "drawings.enumerate", lambda: count_geometric_triangulations(ps),
                    lambda v: {"triangulations": v})


def drawing_count_run(inputs: dict, run: Runner) -> None:
    k1 = inputs["k1"]
    # (a) the chain-pair row; the oracle enumerates first so that the
    # enumeration lands in its own span
    for inst in inputs["row"]:
        key, ps = inst.name, inst.ps
        with run.span("bench", instance=key):
            n = None
            if inst.extra["oracle"]:
                n = _triangulations(run, f"{key}/triangulations", ps)
                run.expect(f"{key}/triangulations", n, ROW_TRIANGULATIONS[inst.extra["split"]])
            d = _direct(run, f"{key}/direct", k1, ps)
            run.expect(f"{key}/direct", d, inst.anchors[0])
            if inst.extra["oracle"]:
                o = _oracle(run, f"{key}/oracle", k1, ps, n)
                run.require(f"{key}/oracle", o == d, f"oracle {o} != direct {d}")
    # (b) bands: 2^(n/3 - 1) drawings
    for inst in inputs["bands"]:
        key, ps, band = inst.name, inst.ps, inst.extra["t"]
        with run.span("bench", instance=key):
            n = None
            if inst.extra["oracle"]:
                n = _triangulations(run, f"{key}/triangulations", ps)
                run.expect(f"{key}/triangulations", n, BAND_TRIANGULATIONS[inst.extra["n"]])
            d = _direct(run, f"{key}/direct", band, ps)
            run.expect(f"{key}/direct", d, inst.anchors[0])
            if inst.extra["oracle"]:
                o = _oracle(run, f"{key}/oracle", band, ps, n)
                run.expect(f"{key}/oracle", o, inst.anchors[0])
    # (c) the two-ring chain pair, beyond the enumeration guard: direct only
    pair = inputs["pair"]
    if pair is not None:
        with run.span("bench", instance=pair.name):
            d = _direct(run, f"{pair.name}/direct", pair.extra["t"], pair.ps)
            run.expect(f"{pair.name}/direct", d, pair.anchors[0])
            r = run.call(f"{pair.name}/layer-count", "drawings.layer_count",
                         lambda: recursive_layer_count(2))
            run.expect(f"{pair.name}/layer-count", r, pair.anchors[0])
    # (d) criterion 8 on seeded random sets: three picked structures each,
    # both backends must agree and find at least one drawing
    for inst in inputs["random"]:
        key, ps = inst.name, inst.ps
        with run.span("bench", instance=key):
            n = _triangulations(run, f"{key}/triangulations", ps)
            geoms = run.call(f"{key}/geom", "drawings.geom",
                             lambda: list(enumerate_geometric_triangulations(ps)),
                             lambda v: {"yielded": len(v)})
            if geoms is None:
                continue
            run.require(f"{key}/geom", len(geoms) == n, f"{len(geoms)} yielded, {n} counted")
            for i in sorted({0, len(geoms) // 2, len(geoms) - 1}):
                t = to_comb(geoms[i])
                d = _direct(run, f"{key}/pick-{i}/direct", t, ps)
                o = _oracle(run, f"{key}/pick-{i}/oracle", t, ps, n)
                run.require(f"{key}/pick-{i}/oracle", o == d and (d or 0) >= 1,
                            f"direct {d}, oracle {o}")


def drawing_count_pointsets(inputs: dict) -> dict[str, PointSet]:
    sets = [i for key in ("row", "bands", "random") for i in inputs[key]]
    return {i.name: i.ps for i in sets + ([inputs["pair"]] if inputs["pair"] else [])}


# -- cli-session: only the point sets, for the predicate timing ----------------


def cli_session_setup(seed: int, smoke: bool, tracer: Tracer | None) -> dict[str, PointSet]:
    shapes = [(4, 5)] if smoke else [(6, 6), (4, 5), (5, 6)]
    return {f"dc-{t}-{l}": traced(tracer, "pointsets", lambda: gen_double_chain(t, l))
            for t, l in shapes}


WORKLOADS = {
    "chain-sweep": (chain_sweep_setup, chain_sweep_run, lambda inp: {i.name: i.ps for i in inp}),
    "drawing-count": (drawing_count_setup, drawing_count_run, drawing_count_pointsets),
    "cli-session": (cli_session_setup, None, lambda inp: inp),
}


# -- geometry: per-call cost of the public predicates ----------------------------


def predicate_ns(pointsets: dict[str, PointSet], calls: int = 20000) -> dict[str, float]:
    """Nanoseconds per call of segments_cross and orient over the segment
    pairs and point triples of the workload's own point sets."""
    quads, triples = [], []
    for ps in pointsets.values():
        segs = list(combinations(ps.points, 2))
        quads += [(a, b, c, d) for (a, b), (c, d) in combinations(segs, 2)]
        triples += list(combinations(ps.points, 3))
    quads = quads[:: max(1, len(quads) // calls)]
    triples = (triples * (calls // len(triples) + 1))[:calls]
    t0 = time.perf_counter()
    for a, b, c, d in quads:
        segments_cross(a, b, c, d)
    t1 = time.perf_counter()
    for a, b, c in triples:
        orient(a, b, c)
    t2 = time.perf_counter()
    return {"geometry.segments_cross_ns": (t1 - t0) / len(quads) * 1e9,
            "geometry.orient_ns": (t2 - t1) / len(triples) * 1e9}
