"""One repetition of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload chain-sweep --seed 1 --spawned-at T

``run.py`` starts this with the checkout's ``src`` first on PYTHONPATH and
passes the ``time.perf_counter`` reading taken just before the spawn, so
that set-up time covers interpreter start, ``import redraw`` and building
the inputs.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, report set-up time and exit")
    ap.add_argument("--break-anchor", help="self-test hook: shift this operation's anchor")
    args = ap.parse_args()

    import workloads
    from tracing import Tracer

    setup, body, pointsets_of = workloads.WORKLOADS[args.workload]
    tracer = Tracer(f"{args.workload}/{args.seed}/{args.spawned_at:.6f}") if args.trace else None
    if tracer:
        with tracer.span("setup", start=args.spawned_at):
            inputs = setup(args.seed, args.smoke, tracer)
    else:
        inputs = setup(args.seed, args.smoke, None)
    first_op = time.perf_counter()
    out = {"setup_s": first_op - args.spawned_at,
           "sizes": {name: len(ps) for name, ps in pointsets_of(inputs).items()}}
    if not args.setup_only:
        run = workloads.Runner(tracer, args.break_anchor)
        if body is not None:
            with run.span("bench", start=first_op):
                body(inputs, run)
        out["wall_s"] = time.perf_counter() - first_op
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["ops"] = run.ops
        if tracer:
            out["predicates"] = workloads.predicate_ns(pointsets_of(inputs))
            out["spans"] = tracer.spans
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
