"""Self-tests of the benchmark, on the smoke instances.

    python3 -m pytest perfbench -q

They check that every metric BENCHMARK.json names is emitted with its
unit, that a deliberately wrong anchor makes the run fail and exit
nonzero, and that the benchmark refuses to report without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=175)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = bench("--workload", workload, "--seed", "3", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    shown = ["wall_s", "setup_s", "peak_rss_mb", "fail_ratio"]
    if workload == "cli-session":
        shown.append("cmd_p50_s")
    lines = proc.stdout.splitlines()
    for name in shown:
        assert any(line.split()[:1] == [name] for line in lines), name


@pytest.mark.parametrize("workload, op", [
    ("chain-sweep", "convex-7/triangulations"),
    ("drawing-count", "band-9/direct"),
    ("cli-session", "tutte_2"),
])
def test_a_wrong_anchor_fails_the_run(workload, op):
    proc = bench("--workload", workload, "--smoke", "--break-anchor", op)
    assert proc.returncode != 0
    out = result(proc)
    assert out["correct"] is False and out["failed"] >= 1
    assert any(line.startswith(f"FAILED {op}") for line in proc.stdout.splitlines())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "chain-sweep", "--seed", "1", "--seconds", "5", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
