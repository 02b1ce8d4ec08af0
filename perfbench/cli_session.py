"""The cli-session workload: the README's command lines, each a fresh process.

Every command is checked against an exact anchor.  Tutte's count of
triangulations with n interior vertices is computed here, independently
of the program; the other anchors are fixed values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable


def tutte(n: int) -> int:
    """Triangulations of a triangle with n interior vertices (Tutte 1962)."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


# growth printed by `redraw bounds --constraint paper` (README: 1.3100234...)
PAPER_GROWTH = 1.3100234
LAYER_COUNT_8 = 5196627

# (triangulations, drawing classes, polygonalizations) of the double chains
# classify and polygons run on: 5+6 (the chain-sweep anchor) and 4+5 (smoke)
CHAIN_COUNTS = {(5, 6): (8820, 8137, 8267), (4, 5): (350, 338, 575)}


@dataclass
class Command:
    name: str                 # the metric is cli.<name>_s
    argv: list[str]
    check: Callable[[str, str, Path], str | None]   # (stdout, stderr, workdir) -> problem
    exit_code: int = 0


def _equals(expected: str):
    def check(out: str, err: str, wd: Path) -> str | None:
        return None if out.strip() == expected else f"printed {out.strip()[:60]!r}, anchor {expected!r}"
    return check


def _pointset_file(name: str, points: int, family: list[int]):
    def check(out: str, err: str, wd: Path) -> str | None:
        data = json.loads((wd / name).read_text())
        if len(data["points"]) != points or data["family"] != {"double_chain": family}:
            return f"{name} holds {len(data['points'])} points, family {data['family']}"
        return None
    return check


def _structure_file(out: str, err: str, wd: Path) -> str | None:
    data = json.loads((wd / "k1.json").read_text())
    if len(data["rotations"]) != 12 or len(data["outer_face"]) != 4:
        return "k1.json is not a 12-vertex structure with a 4-cycle outer face"
    return None


def _histogram(classes: int, total: int):
    def check(out: str, err: str, wd: Path) -> str | None:
        lines = out.strip().splitlines()
        rows = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        if lines[0] != "code_hash,multiplicity" or len(rows) != classes or sum(rows) != total:
            return f"{len(rows)} classes summing to {sum(rows)}, anchor {classes} and {total}"
        return None
    return check


def _stream(count: int):
    def check(out: str, err: str, wd: Path) -> str | None:
        lines = (wd / "geoms.jsonl").read_text().splitlines()
        if len(lines) != count:
            return f"{len(lines)} triangulations streamed, anchor {count}"
        return None
    return check


def _bounds(out: str, err: str, wd: Path) -> str | None:
    growth = json.loads(out)["growth"]
    return None if abs(growth - PAPER_GROWTH) < 5e-8 else f"growth {growth}, anchor {PAPER_GROWTH}"


def _render(out: str, err: str, wd: Path) -> str | None:
    geom = json.loads((wd / "geom.json").read_text())
    svg = out.strip()
    if not (svg.startswith("<svg") and svg.endswith("</svg>")
            and svg.count("<circle") == len(geom["pointset"]["points"])
            and svg.count("<line") == len(geom["edges"])):
        return "SVG does not show every point and edge of geom.json"
    return None


def _guard_error(out: str, err: str, wd: Path) -> str | None:
    lines = err.strip().splitlines()
    if out or len(lines) != 1:
        return "guard error is not a single stderr line"
    error = json.loads(lines[0])
    if error != {"error": "RuntimeError", "message": "more than cap=10 triangulations"}:
        return f"unexpected error object {error}"
    return None


def commands(smoke: bool, broken: str | None = None) -> list[Command]:
    """The session in order; later commands read the files earlier ones write.

    ``broken`` names a command whose anchor is shifted by one, a self-test
    hook that shows the correctness gate fires.
    """
    def anchor(name: str, value: int):
        return _equals(str(value + (name == broken)))

    chain = (4, 5) if smoke else (5, 6)
    tri, classes, polys = CHAIN_COUNTS[chain]
    chain_file = "p%d%d.json" % chain
    gens = [(4, 5)] if smoke else [(6, 6), (4, 5), (5, 6)]
    cmds = [
        Command(f"gen_{t}_{l}", ["gen", "double-chain", "--t", str(t), "--l", str(l),
                                 "-o", f"p{t}{l}.json"], _pointset_file(f"p{t}{l}.json", t + l, [t, l]))
        for t, l in gens
    ]
    cmds += [
        Command("build_k1", ["build", "nested-double-chain", "--k", "1", "-o", "k1.json"],
                _structure_file),
        Command("tutte_2", ["tutte", "2"], anchor("tutte_2", tutte(2))),
        Command("enumerate_interior_3", ["enumerate", "--interior", "3"],
                anchor("enumerate_interior_3", tutte(3))),
    ]
    if not smoke:
        cmds += [
            Command("enumerate_interior_4", ["enumerate", "--interior", "4"],
                    anchor("enumerate_interior_4", tutte(4))),
            Command("count_drawings", ["count-drawings", "--t", "4", "--l", "4", "--backend", "both"],
                    _equals("3\n3")),
        ]
    cmds += [
        Command("classify", ["classify", "--pointset", chain_file, "--jobs", "2"],
                _histogram(classes, tri)),
        Command("polygons", ["polygons", "--pointset", chain_file, "--jobs", "2"],
                anchor("polygons", polys)),
        Command("enumerate_pointset", ["enumerate", "--pointset", "p45.json", "--stream",
                                       "-o", "geoms.jsonl"], _stream(CHAIN_COUNTS[(4, 5)][0])),
        Command("bounds", ["bounds", "--constraint", "paper"], _bounds),
        Command("layer_count", ["layer-count", "8"], anchor("layer_count", LAYER_COUNT_8)),
        Command("render", ["render", "--geom", "geom.json"], _render),
        Command("guard_error", ["enumerate", "--pointset", chain_file if smoke else "p66.json",
                                "--cap", "10"], _guard_error, exit_code=1),
    ]
    return cmds


ALL_COMMANDS = [c.name for c in commands(smoke=False)]


def pick_geometry(workdir: Path, seed: int) -> None:
    """Write the seed's pick among the streamed triangulations to geom.json."""
    stream = workdir / "geoms.jsonl"
    lines = stream.read_text().splitlines() if stream.exists() else []
    if lines:  # otherwise enumerate_pointset has failed, and render will too
        (workdir / "geom.json").write_text(lines[seed % len(lines)] + "\n")
