"""Smoke tests of the experiment scripts, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def test_layer_growth_script(tmp_path):
    r = run_script("layer_growth.py", "--max-k", "8", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:5]] == ["1", "2", "4", "8"]
    assert lines[-1] == "rate stays below 1.31 over the sampled range"


def test_render_examples_script(tmp_path):
    out = tmp_path / "gallery"
    r = run_script("render_examples.py", "--out-dir", str(out), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    svgs = sorted(out.glob("*.svg"))
    assert [p.name for p in svgs] == [
        "band.svg", "chain_pair_0.svg", "chain_pair_1.svg", "chain_pair_2.svg",
        "nine_a.svg", "nine_b.svg",
    ]
    assert all(p.read_text().startswith("<svg") for p in svgs)
    assert r.stdout == f"wrote 6 files to {out}/\n"


def test_chain_pair_counts_script(tmp_path):
    r = run_script("chain_pair_counts.py", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["9,3", "8,4", "7,5", "6,6", "5,7", "4,8", "3,9"]
    assert [int(row[1]) for row in rows] == [0, 1, 2, 3, 2, 1, 0]
    assert all(row[1] == row[2] for row in rows)
    assert "MISMATCH" not in r.stdout


def test_double_chain_classes_script(tmp_path):
    r = run_script("double_chain_classes.py", "--max-points", "8", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = {row[0]: row[1:] for row in map(str.split, r.stdout.splitlines()[1:])}
    assert rows["3+3"] == ["6", "6", "1", "1.000000", "13"]
    assert rows["4+4"] == ["80", "78", "2", f"{2 ** (1 / 8):.6f}", "162"]
    assert "MISMATCH" not in r.stdout
