"""Spans recorded around calls into redraw, and per-layer numbers derived from them.

A span is a dict with an id, a name (the layer), a start and an end in
``time.perf_counter`` seconds, the id of the span that caused it, the run
id, and free-form attributes that hold the counts measured at that
boundary.  On Linux ``perf_counter`` reads CLOCK_MONOTONIC, which is one
clock for every process on the machine, so spans recorded in a child
process line up with the parent's.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """In-memory span recorder for one repetition of a workload."""

    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stack: list[str | None] = [parent]
        self._prefix = f"{os.getpid()}-"

    def new_id(self) -> str:
        return self._prefix + str(next(self._ids))

    def add(self, name: str, start: float, end: float, sid: str | None = None,
            **attrs) -> str:
        """Record a span whose interval was measured elsewhere."""
        sid = sid or self.new_id()
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": self._stack[-1], "run": self.run_id, "attrs": attrs})
        return sid

    @contextmanager
    def span(self, name: str, start: float | None = None, **attrs) -> Iterator[dict]:
        """Time the body, or from ``start`` if given; the yielded dict
        becomes the span's attributes."""
        sid = self.new_id()
        rec = {"id": sid, "name": name,
               "start": time.perf_counter() if start is None else start, "end": None,
               "parent": self._stack[-1], "run": self.run_id, "attrs": attrs}
        self._stack.append(sid)
        try:
            yield attrs
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            self.spans.append(rec)


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    last = float("-inf")
    for start, end in sorted(intervals):
        if end <= last:
            continue
        total += end - max(start, last)
        last = end
    return total


def layer_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Busy and self seconds per span name.

    Busy time is the length of the union of a name's spans.  Self time is
    each span's duration minus the part its direct children cover, summed
    per name.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    busy: dict[str, list[tuple[float, float]]] = {}
    own: dict[str, float] = {}
    for s in spans:
        busy.setdefault(s["name"], []).append((s["start"], s["end"]))
        inside = [(max(a, s["start"]), min(b, s["end"]))
                  for a, b in children.get(s["id"], []) if b > s["start"] and a < s["end"]]
        own[s["name"]] = own.get(s["name"], 0.0) + (s["end"] - s["start"]) - _union(inside)
    return {name: {"busy": _union(iv), "self": own[name]} for name, iv in busy.items()}


def attr_sum(spans: list[dict], name: str, key: str) -> int:
    return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)


def span_count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics that spans alone determine.

    A layer the repetition never entered reads 0, which is the predicted
    value on a workload that bypasses it.
    """
    t = layer_times(spans)

    def busy(name: str) -> float:
        return t.get(name, {}).get("busy", 0.0)

    def self_(name: str) -> float:
        return t.get(name, {}).get("self", 0.0)

    tri = attr_sum(spans, "drawings.enumerate", "triangulations")
    polys = attr_sum(spans, "drawings.polygons", "count")
    codes = attr_sum(spans, "drawings.classify", "codes")
    geoms = attr_sum(spans, "drawings.geom", "yielded")
    scanned = attr_sum(spans, "drawings.oracle", "scanned")
    found = attr_sum(spans, "drawings.oracle", "drawings")
    return {
        "pointsets.build_s": busy("pointsets"),
        "comb.build_s": busy("comb.build"),
        "comb.enumerate_s": busy("comb.enumerate"),
        "drawings.enumerate.busy_s": busy("drawings.enumerate"),
        "drawings.enumerate.triangulations": tri,
        "drawings.enumerate.tri_per_s": _rate(tri, busy("drawings.enumerate")),
        "drawings.forced.busy_s": busy("drawings.forced"),
        "drawings.polygons.busy_s": busy("drawings.polygons"),
        "drawings.polygons.count": polys,
        "drawings.polygons.per_s": _rate(polys, busy("drawings.polygons")),
        "drawings.classify.busy_s": busy("drawings.classify"),
        "drawings.classify.classes": attr_sum(spans, "drawings.classify", "classes"),
        "drawings.classify.codes_per_s": _rate(codes, busy("drawings.classify")),
        "drawings.geom.busy_s": busy("drawings.geom"),
        "drawings.geom.per_s": _rate(geoms, busy("drawings.geom")),
        "drawings.direct.busy_s": busy("drawings.direct"),
        "drawings.direct.calls": span_count(spans, "drawings.direct"),
        "drawings.direct.drawings": attr_sum(spans, "drawings.direct", "drawings"),
        "drawings.oracle.busy_s": busy("drawings.oracle"),
        "drawings.oracle.scanned": scanned,
        "drawings.oracle.found_ratio": _rate(found, scanned),
        "bounds.busy_s": busy("bounds"),
        "cli.self_s": self_("cli"),
        "bench.self_s": self_("bench"),
    }
