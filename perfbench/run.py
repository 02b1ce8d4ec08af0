#!/usr/bin/env python3
"""Benchmark of redraw: time to a verified exact count, per workload.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --smoke

Run from the root of a checkout.  Every repetition starts a fresh
interpreter with the checkout's ``src`` first on PYTHONPATH, because the
package keeps per-point-set caches for the life of a process.  Repetitions
follow one another (a closed loop, one caller) until the next would end
more than half a repetition past ``--seconds``, and each metric is the
median over them.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics derived from the traced ones' spans, plus the
tracing overhead.  Names and units come from BENCHMARK.json.  Every count
is checked; any failed operation makes the result ``correct: false`` and
the exit code 1.  The last line of stdout is the result as JSON; the full
record (environment, seed, instance sizes, every operation's count and
time) goes to ``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import cli_session
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("chain-sweep", "drawing-count", "cli-session")
HARD_LIMIT_S = 170.0   # a run ends within 180 s, whatever --seconds says
CLI_PROBES_PER_REP = 3


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    start: float
    end: float
    maxrss_mb: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spawner:
    """Starts child processes, waits for each, and enforces the run's deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("REDRAW_MAX_N", None)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, argv: list[str], cwd: Path | None = None, stamp: bool = False,
              env: dict | None = None) -> Child:
        """Run argv to completion; ``stamp`` appends ``--spawned-at <now>``."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run deadline reached")

        def kill_group(pid: int) -> None:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            if stamp:
                argv = argv + ["--spawned-at", repr(start)]
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd,
                                    env={**self.env, **(env or {})}, start_new_session=True)
            timer = threading.Timer(timeout, kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            kill_group(proc.pid)  # pool workers the command may have left behind
            if proc.returncode < 0 and end >= self.deadline:
                raise TimeoutError(f"{argv[1:4]} killed at the run deadline")
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read().decode(), err.read().decode(),
                         start, end, usage.ru_maxrss / 1024)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    jobs: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    untraced: list[dict] = field(default_factory=list)   # one dict per repetition
    traced: list[dict] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    sizes: object = None
    end_to_end: dict[str, tuple[float, str, str]] = field(default_factory=dict)  # value, unit, samples
    per_layer: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _repeat(result: Result, args, one_rep, probe) -> None:
    """Alternate repetitions (traced ones too with --trace 1) and set-up
    probes while the next pair would end within half a pair of --seconds.

    The half pair of overrun lets cli-session's 12-16 s sessions use the
    whole run, and still keeps every run under 50 s at --seconds 40.
    """
    begin = time.perf_counter()
    longest = 0.0
    index = 0
    while True:
        t0 = time.perf_counter()
        traced = args.trace and index % 2 == 1
        try:
            rep = one_rep(index, traced)
            probe()
        except TimeoutError as exc:
            result.fail(str(exc))
            return
        if rep is None:  # the repetition did not finish; its failure is recorded
            return
        (result.traced if traced else result.untraced).append(rep)
        index += 1
        longest = max(longest, time.perf_counter() - t0)
        enough = result.untraced and (result.traced or not args.trace)
        if enough and (args.smoke or time.perf_counter() - begin + longest / 2 > args.seconds):
            return


# -- in-process workloads --------------------------------------------------------


def worker_output(c: Child, result: Result) -> dict | None:
    """The JSON line a worker printed, or None after recording its failure."""
    try:
        return json.loads(c.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result.attempted += 1
        result.fail(f"worker exited {c.returncode}: {c.stderr.strip()[-300:]}")
        return None


def run_inprocess(args, spawner: Spawner) -> Result:
    result = Result(args.workload, args.seed, bool(args.trace), jobs=1)
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])

    def child(extra: list[str]) -> dict | None:
        return worker_output(spawner.spawn(base + extra, stamp=True), result)

    def one_rep(index: int, traced: bool) -> dict | None:
        extra = ["--trace"] if traced else []
        if args.break_anchor:
            extra += ["--break-anchor", args.break_anchor]
        rep = child(extra)
        if rep is not None:
            result.attempted += len(rep["ops"])
            for op in rep["ops"]:
                if op["problems"]:
                    result.fail(f"{op['op']}: {'; '.join(op['problems'])}")
            result.setups.append(rep["setup_s"])
            result.sizes = rep["sizes"]
        return rep

    def probe() -> None:
        rep = child(["--setup-only"])
        if rep is not None:
            result.attempted += 1
            result.setups.append(rep["setup_s"])

    spawner.spawn(base + ["--setup-only"], stamp=True)  # warm-up: bytecode compiled, untimed
    _repeat(result, args, one_rep, probe)
    reps = result.untraced
    result.end_to_end = {
        "wall_s": (median([r["wall_s"] for r in reps]), "s", f"median of {len(reps)} repetitions"),
        "setup_s": (median(result.setups), "s", f"median of {len(result.setups)} fresh interpreters"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB",
                        f"median of {len(reps)}, the worker process"),
    }
    if args.trace:
        summarize_traces(result, lambda rep: {})
    return result


# -- cli-session ----------------------------------------------------------------


def run_cli(args, spawner: Spawner) -> Result:
    result = Result(args.workload, args.seed, bool(args.trace), jobs=2)
    cmds = cli_session.commands(args.smoke, args.break_anchor)
    result.sizes = {c.name: " ".join(c.argv) for c in cmds}
    redraw = [sys.executable, "-m", "redraw"]

    def probe() -> None:
        for _ in range(1 if args.smoke else CLI_PROBES_PER_REP):
            c = spawner.spawn(redraw + ["--help"])
            result.attempted += 1
            if c.returncode != 0 or not c.stdout.startswith("usage: redraw"):
                result.fail(f"--help exited {c.returncode}")
            else:
                result.setups.append(c.seconds)

    def one_rep(index: int, traced: bool) -> dict | None:
        wd = spawner.workdir / f"session-{index}"
        wd.mkdir()
        tracer = Tracer(f"cli-session/{args.seed}/{index}") if traced else None
        rows = []
        try:
            first = time.perf_counter()
            with tracer.span("bench", start=first) if tracer else nullcontext():
                for cmd in cmds:
                    rows.append(_cli_command(cmd, wd, spawner, tracer, args.seed, result))
            wall = time.perf_counter() - first
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        rep = {"wall_s": wall, "commands": rows,
               "peak_rss_mb": max(r["maxrss_mb"] for r in rows)}
        if tracer:
            c = spawner.spawn([sys.executable, str(HERE / "worker.py"), "--workload",
                               "cli-session", "--seed", str(args.seed), "--trace"]
                              + (["--smoke"] if args.smoke else []), stamp=True)
            rep["predicates"] = (worker_output(c, result) or {}).get("predicates", {})
            rep["spans"] = tracer.spans
        return rep

    spawner.spawn(redraw + ["--help"])  # warm-up: bytecode compiled, untimed
    _repeat(result, args, one_rep, probe)
    reps = result.untraced
    latencies = [r["seconds"] for rep in reps for r in rep["commands"]]
    result.end_to_end = {
        "wall_s": (median([r["wall_s"] for r in reps]), "s", f"median of {len(reps)} sessions"),
        "setup_s": (median(result.setups), "s", f"median of {len(result.setups)} `--help` runs"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB",
                        f"median of {len(reps)}, the largest command of each session"),
        "cmd_p50_s": (median(latencies), "s", f"median of {len(latencies)} command runs"),
    }
    if args.trace:
        summarize_traces(result, lambda rep: {f"cli.{r['name']}_s": r["seconds"]
                                              for r in rep["commands"]})
        result.per_layer["cli.startup_s"] = median(result.setups)
    return result


def _cli_command(cmd, wd: Path, spawner: Spawner, tracer, seed: int, result: Result) -> dict:
    if cmd.name == "render":
        cli_session.pick_geometry(wd, seed)
    env = None
    if tracer:
        sid = tracer.new_id()
        spans_file = wd / f"spans-{cmd.name}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), *cmd.argv]
        env = {"PERFBENCH_SPANS": str(spans_file), "PERFBENCH_PARENT": sid,
               "PERFBENCH_RUN": tracer.run_id}
    else:
        argv = [sys.executable, "-m", "redraw", *cmd.argv]
    c = spawner.spawn(argv, cwd=wd, env=env)
    result.attempted += 1
    if c.returncode != cmd.exit_code:
        problem = f"exit {c.returncode}, expected {cmd.exit_code}: {c.stderr.strip()[-300:]}"
    else:
        try:
            problem = cmd.check(c.stdout, c.stderr, wd)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"output unreadable: {type(exc).__name__}: {exc}"
    if problem:
        result.fail(f"{cmd.name}: {problem}")
    if tracer:
        tracer.add("cli", c.start, c.end, sid=sid, line=cmd.name)
        if spans_file.exists():
            tracer.spans.extend(json.loads(spans_file.read_text()))
    return {"name": cmd.name, "seconds": c.seconds, "exit": c.returncode,
            "maxrss_mb": c.maxrss_mb, "problem": problem}


# -- reporting --------------------------------------------------------------------


def summarize_traces(result: Result, extra) -> None:
    """Per-layer metrics: the median of each over the traced repetitions,
    and the tracing overhead as traced minus untraced median wall_s."""
    per_rep = []
    for rep in result.traced:
        m = layer_metrics(rep["spans"])
        m.update(rep["predicates"])
        m.update(extra(rep))
        per_rep.append(m)
    names = {k for m in per_rep for k in m}
    result.per_layer = {k: median([m.get(k, 0.0) for m in per_rep]) for k in sorted(names)}
    result.per_layer["trace.overhead_s"] = (median([r["wall_s"] for r in result.traced])
                                            - median([r["wall_s"] for r in result.untraced]))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_metrics(result: Result, spec: dict) -> dict[str, dict]:
    """The metrics BENCHMARK.json names for this mode, each with its unit.

    A layer or command the workload bypasses reads 0.
    """
    if result.trace:
        values = {f"cli.{name}_s": 0.0 for name in cli_session.ALL_COMMANDS}
        values["cli.startup_s"] = 0.0
        values.update(result.per_layer)
        wanted = spec["per_layer"]
    else:
        values = {name: v for name, (v, _, _) in result.end_to_end.items()}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not result.failed:
        raise SystemExit(f"perfbench: no value measured for {missing}")
    values.update(dict.fromkeys(missing, 0.0))  # a failed step measured nothing
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def environment(load_before: float) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "load1_before": load_before, "load1_after": os.getloadavg()[0],
            "platform": platform.platform()}


def report(result: Result, spec: dict, env: dict, workdir: Path) -> dict:
    metrics = result_metrics(result, spec)
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"== {result.workload}  seed {result.seed}  trace {int(result.trace)}  "
          f"jobs {result.jobs}  python {env['python']}  nproc {env['nproc']}  "
          f"load1 {env['load1_before']:.2f} -> {env['load1_after']:.2f}")
    for name, (value, unit, how) in result.end_to_end.items():
        print(f"{name:<14} {value:12.6f} {unit:<3} {how}")
    print(f"{'fail_ratio':<14} {ratio:12.6f}     {result.failed} of {result.attempted} operations")
    if result.trace:
        for name, m in metrics.items():
            print(f"{name:<36} {m['value']:16.6f} {m['unit']}")
    for problem in result.problems[:20]:
        print(f"FAILED {problem}")
    record = {
        "workload": result.workload, "seed": result.seed, "trace": result.trace,
        "jobs": result.jobs, "environment": env, "sizes": result.sizes,
        "attempted": result.attempted, "failed": result.failed, "fail_ratio": ratio,
        "problems": result.problems,
        "end_to_end": {k: {"value": v, "unit": u, "samples": how}
                       for k, (v, u, how) in result.end_to_end.items()},
        "per_layer": metrics if result.trace else None,
        "repetitions": [{k: v for k, v in rep.items() if k != "spans"}
                        for rep in result.untraced + result.traced],
    }
    stem = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}"
    (workdir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if result.trace:
        spans = [s for rep in result.traced for s in rep["spans"]]
        (workdir / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(f"record: {workdir.relative_to(ROOT) / (stem + '.json')}")
    return {"correct": result.failed == 0 and result.attempted > 0,
            "attempted": max(result.attempted, 1), "failed": result.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measure for about this long (by at most half a repetition more)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest instances, one repetition: a few seconds per workload")
    ap.add_argument("--break-anchor", metavar="OP",
                    help="self-test hook: shift the anchor of this operation or command by one")
    args = ap.parse_args()

    if not (ROOT / "src" / "redraw" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'redraw'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    outputs = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args_w = argparse.Namespace(**{**vars(args), "workload": workload})
        tmp = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
        load_before = os.getloadavg()[0]
        try:
            spawner = Spawner(tmp, time.perf_counter() + HARD_LIMIT_S)
            run = run_cli if workload == "cli-session" else run_inprocess
            result = run(args_w, spawner)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        outputs.append((workload, report(result, spec, environment(load_before), workdir)))
    if len(outputs) == 1:
        final = outputs[0][1]
    else:
        final = {"correct": all(o["correct"] for _, o in outputs),
                 "attempted": sum(o["attempted"] for _, o in outputs),
                 "failed": sum(o["failed"] for _, o in outputs),
                 "metrics": {f"{w}/{k}": v for w, o in outputs for k, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
