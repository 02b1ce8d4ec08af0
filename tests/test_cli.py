import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from redraw import cli
from redraw.comb import build_k_nested_regular, from_rotation_json
from redraw.drawings import GeomTriangulation
from redraw.pointsets import PointSet, gen_double_chain


SRC = str(Path(__file__).resolve().parents[1] / "src")


def checkout_env(extra=None):
    """Environment for a subprocess that runs the checkout's package, as
    the test process does."""
    env = os.environ.copy()
    env.pop("REDRAW_MAX_N", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "redraw", *args],
        capture_output=True,
        text=True,
        env=checkout_env(env_extra),
    )


def test_tutte():
    r = run_cli("tutte", "2")
    assert r.returncode == 0
    assert r.stdout == "3\n"


def test_layer_count():
    r = run_cli("layer-count", "2")
    assert r.returncode == 0
    assert r.stdout == "19\n"


def test_gen_is_deterministic_and_tagged():
    a = run_cli("gen", "double-chain", "--t", "3", "--l", "3")
    b = run_cli("gen", "double-chain", "--t", "3", "--l", "3")
    assert a.returncode == 0 and a.stdout == b.stdout
    blob = json.loads(a.stdout)
    assert len(blob["points"]) == 6
    assert blob["family"] == {"double_chain": [3, 3]}
    ps = PointSet.from_json(a.stdout)
    assert ps == gen_double_chain(3, 3)


def test_gen_nested():
    r = run_cli("gen", "nested-triangles", "--n", "7")
    assert r.returncode == 0
    assert json.loads(r.stdout)["family"] == {"nested_triangles": 7}


def test_build_writes_rotation_system(tmp_path):
    out = tmp_path / "t.json"
    r = run_cli("build", "nested-double-chain", "--k", "1", "-o", str(out))
    assert r.returncode == 0
    t = from_rotation_json(out.read_text())
    assert t.num_vertices == 12 and t.edge_count == 29


def test_build_band():
    r = run_cli("build", "nested-regular", "--n", "6")
    assert r.returncode == 0
    t = from_rotation_json(r.stdout)
    assert [t.degree(v) for v in range(6)] == [4] * 6


def test_enumerate_interior_count_and_stream():
    r = run_cli("enumerate", "--interior", "2")
    assert r.returncode == 0 and r.stdout == "3\n"
    s = run_cli("enumerate", "--interior", "2", "--stream")
    lines = s.stdout.strip().split("\n")
    assert len(lines) == 3
    assert all(from_rotation_json(line).num_vertices == 5 for line in lines)


def test_enumerate_pointset_file(tmp_path):
    f = tmp_path / "ps.json"
    f.write_text(gen_double_chain(3, 3).to_json())
    r = run_cli("enumerate", "--pointset", str(f))
    assert r.returncode == 0 and r.stdout == "6\n"


def test_enumerate_pointset_stream(tmp_path):
    f = tmp_path / "ps.json"
    f.write_text(gen_double_chain(4, 4).to_json())
    count = run_cli("enumerate", "--pointset", str(f))
    s = run_cli("enumerate", "--pointset", str(f), "--stream")
    assert count.returncode == 0 and s.returncode == 0
    lines = s.stdout.splitlines()
    assert len(lines) == int(count.stdout) == 80
    for line in lines:
        g = GeomTriangulation.from_json(line)
        assert g.pointset == gen_double_chain(4, 4)
        assert g.to_json() == line


# sha256 of what `redraw enumerate --pointset <4+5 double chain> --stream` prints
STREAM_4_5_SHA256 = "fb23ca8f3e951efe178a628ba0a68d36e947a6b79c23ebc1a8bb845d400abac2"


def test_enumerate_stream_bytes_and_order_are_pinned(tmp_path, monkeypatch, capsys):
    f = tmp_path / "p45.json"
    f.write_text(gen_double_chain(4, 5).to_json())
    monkeypatch.delenv("REDRAW_MAX_N", raising=False)
    assert cli.main(["enumerate", "--pointset", str(f), "--stream"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 350
    assert hashlib.sha256(out.encode()).hexdigest() == STREAM_4_5_SHA256


def test_stream_file_matches_stdout_and_a_failed_stream_writes_no_file(tmp_path):
    f = tmp_path / "ps.json"
    f.write_text(gen_double_chain(3, 3).to_json())
    for source in (["--pointset", str(f)], ["--interior", "2"]):
        out = tmp_path / "out.jsonl"
        s = run_cli("enumerate", *source, "--stream")
        r = run_cli("enumerate", *source, "--stream", "-o", str(out))
        assert r.returncode == 0 and r.stdout == "" and out.read_text() == s.stdout
        capped = tmp_path / "capped.jsonl"
        r = run_cli("enumerate", *source, "--stream", "--cap", "1", "-o", str(capped))
        assert r.returncode == 1 and r.stdout == ""
        assert json.loads(r.stderr)["error"] == "RuntimeError"
        assert not capped.exists()


def test_count_drawings_shortcut_rows():
    r = run_cli("count-drawings", "--t", "7", "--l", "1", "--backend", "direct")
    assert r.returncode == 0 and r.stdout == "0\n"
    r = run_cli("count-drawings", "--t", "4", "--l", "4", "--backend", "both")
    assert r.returncode == 0 and r.stdout == "3\n3\n"


def test_count_drawings_from_files(tmp_path):
    ps = PointSet(((0, 0), (40, 0), (20, 30), (20, 12)))
    pf = tmp_path / "ps.json"
    pf.write_text(ps.to_json())
    tf = tmp_path / "t.json"
    build = run_cli("build", "nested-regular", "--n", "4")
    tf.write_text(build.stdout)
    r = run_cli("count-drawings", "--triangulation", str(tf), "--pointset", str(pf))
    assert r.returncode == 0 and r.stdout == "1\n"


def test_classify_csv(tmp_path):
    f = tmp_path / "ps.json"
    f.write_text(gen_double_chain(3, 3).to_json())
    r = run_cli("classify", "--pointset", str(f))
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "code_hash,multiplicity"
    assert sum(int(row.split(",")[1]) for row in lines[1:]) == 6


def test_polygons(tmp_path):
    f = tmp_path / "sq.json"
    f.write_text(PointSet(((0, 0), (10, 0), (10, 10), (0, 10))).to_json())
    r = run_cli("polygons", "--pointset", str(f))
    assert r.returncode == 0 and r.stdout == "1\n"


def test_bounds_report():
    r = run_cli("bounds", "--constraint", "paper")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["constraint"] == "degree-mass"
    assert report["growth"] == pytest.approx(1.3100234, abs=1e-6)
    assert len(report["alpha"]) == 5
    free = json.loads(run_cli("bounds", "--constraint", "none").stdout)
    assert free["growth"] == pytest.approx(9 ** 0.125, abs=1e-9)
    assert free["exponent"] == pytest.approx(math.log2(9) / 8, abs=1e-9)


def test_render_svg_file(tmp_path):
    geom = tmp_path / "g.json"
    ps = PointSet(((0, 0), (40, 0), (20, 30), (20, 12)))
    edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    geom.write_text(json.dumps({"pointset": json.loads(ps.to_json()), "edges": edges}))
    out = tmp_path / "g.svg"
    r = run_cli("render", "--geom", str(geom), "-o", str(out))
    assert r.returncode == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<line") == 6


def test_output_file_option(tmp_path):
    out = tmp_path / "n.txt"
    r = run_cli("tutte", "3", "-o", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    assert out.read_text() == "13\n"


def test_domain_errors_exit_one():
    r = run_cli("tutte", "0")
    assert r.returncode == 1
    err = json.loads(r.stderr)
    assert err["error"] == "ValueError"
    assert "n >= 1" in err["message"]


def test_guard_env_variable(tmp_path):
    f = tmp_path / "ps.json"
    f.write_text(gen_double_chain(3, 3).to_json())
    r = run_cli("enumerate", "--pointset", str(f), env_extra={"REDRAW_MAX_N": "4"})
    assert r.returncode == 1
    assert "guard" in json.loads(r.stderr)["message"]


def test_usage_errors_exit_two(tmp_path):
    r = run_cli("enumerate")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "UsageError"
    r = run_cli("count-drawings", "--t", "3")
    assert r.returncode == 2
    # argparse's own errors take the same one-line JSON path
    for args in (
        ("classify",),
        ("tutte", "abc"),
        ("gen", "foo"),
        ("bounds", "--constraint", "x"),
        ("bounds", "--tolerance", "1e-9"),
        ("enumerate", "--interior", "2", "--jobs", "2"),
        ("count-drawings", "--t", "4", "--l", "4", "--jobs", "2"),
        ("count-drawings", "--t", "4", "--l", "4", "--triangulation", "k1.json",
         "--pointset", "p56.json"),
        ("count-drawings", "--t", "4", "--l", "4", "--pointset", "p56.json"),
        ("classify", "--pointset", "p56.json", "--jobs", "0"),
        ("polygons", "--pointset", "p56.json", "--jobs", "-1"),
    ):
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert r.stdout == ""
        lines = r.stderr.splitlines()
        assert len(lines) == 1, args
        assert json.loads(lines[0])["error"] == "UsageError"
    # --jobs stays on classify and polygons, and changes no output byte
    f = tmp_path / "ps.json"
    f.write_text(gen_double_chain(4, 4).to_json())
    for command in ("classify", "polygons"):
        seq = run_cli(command, "--pointset", str(f), "--jobs", "1")
        par = run_cli(command, "--pointset", str(f), "--jobs", "2")
        assert seq.returncode == par.returncode == 0, command
        assert par.stdout == seq.stdout and par.stderr == seq.stderr == "", command


def test_non_integer_guard_env_is_a_usage_error():
    r = run_cli("tutte", "2", env_extra={"REDRAW_MAX_N": "abc"})
    assert r.returncode == 2
    assert r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"] == "UsageError"
    assert "REDRAW_MAX_N" in err["message"]


def test_backend_mismatch_exits_one(tmp_path, monkeypatch, capsys):
    tf = tmp_path / "t.json"
    tf.write_text(build_k_nested_regular(4).to_json())
    pf = tmp_path / "ps.json"
    pf.write_text(PointSet(((0, 0), (40, 0), (20, 30), (20, 12))).to_json())
    real = cli.count_drawings

    def skewed(t, ps, backend="direct", **kwargs):
        count, wits = real(t, ps, backend=backend, **kwargs)
        return (count + 1 if backend == "oracle" else count), wits

    monkeypatch.setattr(cli, "count_drawings", skewed)
    monkeypatch.delenv("REDRAW_MAX_N", raising=False)
    argv = ["count-drawings", "--triangulation", str(tf), "--pointset", str(pf),
            "--backend", "both"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "BackendMismatch",
                               "message": "direct=1 oracle=2 disagree"}


def test_whole_outputs_end_in_one_newline_on_the_terminal_and_as_written_in_files(
        tmp_path, capsys):
    pf = tmp_path / "ps.json"
    pf.write_text(gen_double_chain(3, 3).to_json())
    assert cli.main(["classify", "--pointset", str(pf)]) == 0
    csv = capsys.readouterr().out
    assert csv.endswith(",1\n")  # the CSV's own newline, not doubled
    out = tmp_path / "classes.csv"
    assert cli.main(["classify", "--pointset", str(pf), "-o", str(out)]) == 0
    assert out.read_text() == csv
    assert cli.main(["gen", "double-chain", "--t", "3", "--l", "3"]) == 0
    assert capsys.readouterr().out == pf.read_text() + "\n"
    assert cli.main(["gen", "double-chain", "--t", "3", "--l", "3", "-o", str(out)]) == 0
    assert out.read_text() == pf.read_text() + "\n"


def test_start_up_does_not_import_the_process_pool():
    r = subprocess.run(
        [sys.executable, "-c",
         "import redraw, sys; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert r.returncode == 0 and r.stdout == "False\n"
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "redraw", "--help"],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert r.returncode == 0 and "usage: redraw" in r.stdout
    assert "concurrent.futures.process" not in r.stderr
