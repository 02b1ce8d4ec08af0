"""Geometric triangulations of a labeled point set, and drawings of
combinatorial triangulations onto point sets.

A geometric triangulation is a maximal crossing free straight line graph
on a fixed point set.  A drawing of a combinatorial triangulation T onto
a point set S is a bijection from T's vertices to S that keeps the image
crossing free and realizes T's face structure, with T's outer face pinned
to S's convex hull (outer_face[i] goes to hull[i], both counterclockwise).

Two counting backends are kept deliberately independent so they can check
each other.  The oracle backend enumerates every geometric triangulation
of S by flip walks and compares canonical codes; the direct backend
searches label assignments with geometric pruning and verifies each
complete assignment against T's rotation system.

Exhaustive operations are guarded: they are meant for desk scale
instances, and the guards are arguments, not constants baked into the
search.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from .comb import (
    CombTriangulation,
    Edge,
    _ccw_neighbor_order,
    _code_from_rotations,
    _cyclic_eq,
    _norm_edge,
    canonical_code,
    from_straight_line_drawing,
)
from .geometry import Orientation, Point, convex_hull, orient, segments_cross
from .pointsets import DoubleChain, PointSet

# Default ceilings for the exhaustive searches.  Callers can raise them
# explicitly (max_n argument), the command line also via REDRAW_MAX_N.
ENUM_POINT_GUARD = 14
POLYGON_POINT_GUARD = 16


# -- geometric triangulations ----------------------------------------------


@dataclass(frozen=True)
class GeomTriangulation:
    """Validated maximal crossing free straight line graph on a point set."""

    pointset: PointSet
    edges: frozenset[Edge]
    triangles: tuple[tuple[int, int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", frozenset(_norm_edge(int(a), int(b)) for a, b in self.edges)
        )
        comb = from_straight_line_drawing(self.pointset.points, sorted(self.edges))
        object.__setattr__(self, "triangles", tuple(comb.faces()))
        object.__setattr__(self, "_comb", comb)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pointset": json.loads(self.pointset.to_json()),
                "edges": [list(e) for e in sorted(self.edges)],
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> "GeomTriangulation":
        data = json.loads(text)
        ps = PointSet.from_json(json.dumps(data["pointset"]))
        return GeomTriangulation(ps, frozenset(tuple(e) for e in data["edges"]))


def to_comb(gt: GeomTriangulation) -> CombTriangulation:
    """Rotation system of the drawing, outer face = hull cycle."""
    return gt._comb  # cached at construction


# -- lookup tables for mask based search ------------------------------------


class _Tables:
    """Per point set tables.  Edge ids index the lexicographic pair list;
    a triangulation is a bitmask over edge ids."""

    def __init__(self, pts: Sequence[Point]):
        pts = tuple(Point(int(x), int(y)) for x, y in pts)
        self.pts = pts
        n = self.n = len(pts)
        self.pairs: list[Edge] = list(combinations(range(n), 2))
        m = self.m_all = len(self.pairs)
        eid = self.eid = {e: i for i, e in enumerate(self.pairs)}
        self.hull: list[int] = convex_hull(pts)
        self.hull_mask = 0
        for a, b in zip(self.hull, self.hull[1:] + self.hull[:1]):
            self.hull_mask |= 1 << eid[_norm_edge(a, b)]
        # pairwise proper crossings
        cross = [0] * m
        for i in range(m):
            a, b = self.pairs[i]
            pa, pb = pts[a], pts[b]
            for j in range(i + 1, m):
                c, d = self.pairs[j]
                if segments_cross(pa, pb, pts[c], pts[d]):
                    cross[i] |= 1 << j
                    cross[j] |= 1 << i
        self.cross = cross
        # empty triangles, and per edge the candidate face apexes by side
        empty: dict[tuple[int, int, int], bool] = {}
        for tri in combinations(range(n), 3):
            a, b, c = tri
            empty[tri] = not any(
                _strictly_inside(pts[p], pts[a], pts[b], pts[c])
                for p in range(n)
                if p not in tri
            )
        self.apexes: list[list[tuple[int, int, bool]]] = [[] for _ in range(m)]
        for i, (a, b) in enumerate(self.pairs):
            for c in range(n):
                if c == a or c == b:
                    continue
                tri = tuple(sorted((a, b, c)))
                if not empty[tri]:
                    continue
                left = orient(pts[a], pts[b], pts[c]) is Orientation.CCW
                bits = (1 << eid[_norm_edge(a, c)]) | (1 << eid[_norm_edge(b, c)])
                self.apexes[i].append((c, bits, left))
        # angular neighbor orders, with per neighbor edge bit for filtering
        self.angular: list[list[tuple[int, int]]] = []
        for v in range(n):
            others = [w for w in range(n) if w != v]
            order = _ccw_neighbor_order(pts[v], others, pts)
            self.angular.append([(w, 1 << eid[_norm_edge(v, w)]) for w in order])
        self.incident = [0] * n
        for i, (a, b) in enumerate(self.pairs):
            self.incident[a] |= 1 << i
            self.incident[b] |= 1 << i


def _strictly_inside(p: Point, a: Point, b: Point, c: Point) -> bool:
    s1 = orient(a, b, p)
    s2 = orient(b, c, p)
    s3 = orient(c, a, p)
    return s1 is s2 is s3 and s1 is not Orientation.COLLINEAR


_TABLE_CACHE: dict[tuple[Point, ...], _Tables] = {}


def _tables_for(ps: PointSet) -> _Tables:
    key = tuple(ps.points)
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _TABLE_CACHE[key] = _Tables(ps.points)
    return tab


def _seed_mask(tab: _Tables) -> int:
    # greedy lexicographic plane graph completion; maximality makes it a
    # triangulation
    mask = 0
    for i in range(tab.m_all):
        if tab.cross[i] & mask == 0:
            mask |= 1 << i
    return mask


def _mask_rotations(mask: int, tab: _Tables) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(w for w, bit in ang if mask & bit) for ang in tab.angular
    )


def _mask_code(mask: int, tab: _Tables) -> bytes:
    return _code_from_rotations(tab.n, tab.hull, _mask_rotations(mask, tab))


def _mask_edges(mask: int, tab: _Tables) -> frozenset[Edge]:
    return frozenset(tab.pairs[i] for i in range(tab.m_all) if mask >> i & 1)


def _flip_neighbors(mask: int, tab: _Tables) -> list[int]:
    out = []
    flippable = mask & ~tab.hull_mask
    apexes = tab.apexes
    cross = tab.cross
    i = 0
    rem = flippable
    while rem:
        low = rem & -rem
        i = low.bit_length() - 1
        rem ^= low
        cl = cr = -1
        for c, bits, left in apexes[i]:
            if mask & bits == bits:
                if left:
                    cl = c
                else:
                    cr = c
        if cl >= 0 and cr >= 0:
            j = tab.eid[_norm_edge(cl, cr)]
            if cross[j] >> i & 1:  # convex quadrilateral, diagonals swap
                out.append((mask ^ low) | (1 << j))
    return out


# Worker state for parallel frontier expansion.
_WORK_TAB: _Tables | None = None


def _init_worker(points: tuple[tuple[int, int], ...]) -> None:
    global _WORK_TAB
    _WORK_TAB = _Tables([Point(x, y) for x, y in points])


def _expand_chunk(masks: list[int]) -> list[int]:
    assert _WORK_TAB is not None
    out: list[int] = []
    for m in masks:
        out.extend(_flip_neighbors(m, _WORK_TAB))
    return out


_MASK_CACHE: dict[tuple[Point, ...], list[int]] = {}


def _enumerate_masks(
    ps: PointSet, cap: int | None = None, max_n: int | None = None, jobs: int = 1
) -> list[int]:
    """All triangulation bitmasks of ps, by breadth first flip walks.

    Diagonal flips connect the triangulations of any point set in general
    position, so the walk from one seed reaches everything.  Results are
    cached per point set and returned sorted.
    """
    limit = ENUM_POINT_GUARD if max_n is None else max_n
    if len(ps) > limit:
        raise ValueError(f"point set size {len(ps)} exceeds guard {limit}")
    key = tuple(ps.points)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        if cap is not None and len(cached) > cap:
            raise RuntimeError(f"more than cap={cap} triangulations")
        return cached
    tab = _tables_for(ps)
    seed = _seed_mask(tab)
    seen = {seed}
    frontier = [seed]
    pool = None
    try:
        if jobs > 1:
            pool = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker,
                initargs=(tuple((p.x, p.y) for p in ps.points),),
            )
        while frontier:
            if pool is not None and len(frontier) > 4 * jobs:
                chunk = (len(frontier) + jobs - 1) // jobs
                chunks = [frontier[i : i + chunk] for i in range(0, len(frontier), chunk)]
                produced: list[int] = []
                for part in pool.map(_expand_chunk, chunks):
                    produced.extend(part)
            else:
                produced = []
                for m in frontier:
                    produced.extend(_flip_neighbors(m, tab))
            frontier = []
            for m in produced:
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
            if cap is not None and len(seen) > cap:
                raise RuntimeError(f"more than cap={cap} triangulations")
    finally:
        if pool is not None:
            pool.shutdown()
    masks = sorted(seen)
    _MASK_CACHE[key] = masks
    return masks


def enumerate_geometric_triangulations(
    ps: PointSet, cap: int | None = None, max_n: int | None = None, jobs: int = 1
) -> Iterator[GeomTriangulation]:
    """Yield every geometric triangulation of ps, deterministic order."""
    tab = _tables_for(ps)
    for mask in _enumerate_masks(ps, cap=cap, max_n=max_n, jobs=jobs):
        yield GeomTriangulation(ps, _mask_edges(mask, tab))


def count_geometric_triangulations(
    ps: PointSet, cap: int | None = None, max_n: int | None = None, jobs: int = 1
) -> int:
    return len(_enumerate_masks(ps, cap=cap, max_n=max_n, jobs=jobs))


# -- classification ----------------------------------------------------------


def classify_drawings(
    ps: PointSet, max_n: int | None = None, jobs: int = 1
) -> dict[bytes, int]:
    """Histogram of canonical codes over all geometric triangulations of ps.

    Keys are codes of the induced combinatorial triangulations (rooted at
    the hull), values how many geometric triangulations realize each.
    """
    tab = _tables_for(ps)
    hist: dict[bytes, int] = defaultdict(int)
    for mask in _enumerate_masks(ps, max_n=max_n, jobs=jobs):
        hist[_mask_code(mask, tab)] += 1
    return dict(hist)


def classify_to_csv(hist: dict[bytes, int]) -> str:
    """CSV export, one row per class: sha256 of the code, multiplicity."""
    rows = sorted(
        ((hashlib.sha256(code).hexdigest(), mult) for code, mult in hist.items()),
        key=lambda r: (-r[1], r[0]),
    )
    return "code_hash,multiplicity\n" + "".join(f"{h},{m}\n" for h, m in rows)


# -- drawings of a combinatorial triangulation onto a point set --------------


@dataclass(frozen=True)
class DrawingMapping:
    """Bijection from comb labels to point labels, assignment[v] = point."""

    assignment: tuple[int, ...]

    def image_edges(self, t: CombTriangulation) -> frozenset[Edge]:
        a = self.assignment
        return frozenset(_norm_edge(a[u], a[v]) for u, v in t.edges())


def _check_compatible(t: CombTriangulation, ps: PointSet) -> list[int]:
    hull = ps.hull()
    if t.num_vertices != len(ps):
        raise ValueError("vertex count differs from point count")
    if len(t.outer_face) != len(hull):
        raise ValueError("outer face size differs from hull size")
    return hull

def is_valid_drawing(
    t: CombTriangulation, ps: PointSet, mapping: DrawingMapping
) -> bool:
    """Does the assignment draw t on ps, boundary pinned, faces preserved?

    Checks crossing freeness and that the image rotation system, pulled
    back through the assignment, is exactly t's (same cyclic neighbor
    orders, same outer face).  Pinning means assignment[outer_face[i]] is
    hull[i].
    """
    hull = _check_compatible(t, ps)
    asg = mapping.assignment
    n = t.num_vertices
    if sorted(asg) != list(range(n)):
        return False
    if any(asg[v] != hull[i] for i, v in enumerate(t.outer_face)):
        return False
    pts = ps.points
    edges = sorted(mapping.image_edges(t))
    if len(edges) != t.edge_count:
        return False
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if segments_cross(pts[a], pts[b], pts[c], pts[d]):
                return False
    inv = [0] * n
    for v, p in enumerate(asg):
        inv[p] = v
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in range(n):
        img = _ccw_neighbor_order(pts[asg[v]], adj[asg[v]], pts)
        if not _cyclic_eq([inv[p] for p in img], list(t.rotations[v])):
            return False
    return True


def apply_drawing(
    t: CombTriangulation, ps: PointSet, mapping: DrawingMapping
) -> GeomTriangulation:
    if not is_valid_drawing(t, ps, mapping):
        raise ValueError("assignment is not a valid drawing")
    return GeomTriangulation(ps, mapping.image_edges(t))


def _direct_search(
    t: CombTriangulation, ps: PointSet, hull: list[int]
) -> tuple[int, set[int]]:
    """Backtracking over assignments; returns (mapping count, image masks).
    Boundary is pinned to hull, as checked by `_check_compatible`; the
    interior is searched with crossing and face orientation pruning, every
    leaf verified from scratch against t's rotation system."""
    tab = _tables_for(ps)
    pts = tab.pts
    n = t.num_vertices
    asg = [-1] * n
    used = 0
    placed_edges = 0  # eid bitmask of already drawn image edges
    for i, v in enumerate(t.outer_face):
        asg[v] = hull[i]
        used |= 1 << hull[i]
    # deterministic placement order: most placed neighbors first
    order: list[int] = []
    placed = set(t.outer_face)
    while len(placed) < n:
        best = min(
            (v for v in range(n) if v not in placed),
            key=lambda v: (-sum(u in placed for u in t.rotations[v]), v),
        )
        order.append(best)
        placed.add(best)
    # per step: neighbors already placed, faces completed at that step
    placed = set(t.outer_face)
    step_nbrs: list[list[int]] = []
    step_faces: list[list[tuple[int, int, int]]] = []
    faces = t.faces()
    for v in order:
        step_nbrs.append([u for u in t.rotations[v] if u in placed])
        placed.add(v)
        step_faces.append(
            [f for f in faces if v in f and all(u in placed for u in f)]
        )
    for i, v in enumerate(t.outer_face):
        nxt = t.outer_face[(i + 1) % len(t.outer_face)]
        placed_edges |= 1 << tab.eid[_norm_edge(hull[i], asg[nxt])]
    image_masks: set[int] = set()
    count = 0

    def place(step: int, placed_edges: int) -> None:
        nonlocal count, used
        if step == len(order):
            m = DrawingMapping(tuple(asg))
            if is_valid_drawing(t, ps, m):  # rotation level verification
                count += 1
                image_masks.add(placed_edges)
            return
        v = order[step]
        nbrs = step_nbrs[step]
        for p in range(n):
            bit = 1 << p
            if used & bit:
                continue
            add = 0
            ok = True
            for u in nbrs:
                e = tab.eid[_norm_edge(p, asg[u])]
                if tab.cross[e] & (placed_edges | add):
                    ok = False
                    break
                add |= 1 << e
            if not ok:
                continue
            asg[v] = p
            for fa, fb, fc in step_faces[step]:
                if orient(pts[asg[fa]], pts[asg[fb]], pts[asg[fc]]) is not Orientation.CCW:
                    ok = False
                    break
            if ok:
                used |= bit
                place(step + 1, placed_edges | add)
                used &= ~bit
            asg[v] = -1
        return

    # hull edges must themselves not cross anything later; they cannot,
    # they are on the hull.  Interior search starts immediately.
    place(0, placed_edges)
    return count, image_masks


def count_mappings(t: CombTriangulation, ps: PointSet) -> int:
    """Number of label assignments drawing t on ps with the boundary pinned."""
    count, _ = _direct_search(t, ps, _check_compatible(t, ps))
    return count


def count_drawings(
    t: CombTriangulation,
    ps: PointSet,
    backend: str = "direct",
    witnesses: bool = False,
    max_n: int | None = None,
    jobs: int = 1,
) -> tuple[int, list[GeomTriangulation] | None]:
    """Number of geometric triangulations of ps whose combinatorial
    structure is t, boundary pinned (outer_face[i] on hull[i]).

    backend "direct" searches assignments and deduplicates image edge
    sets; backend "oracle" enumerates all triangulations of ps and
    compares canonical codes.  The two share no counting logic.
    """
    hull = _check_compatible(t, ps)
    tab = _tables_for(ps)
    wits: list[GeomTriangulation] | None = None
    if backend == "direct":
        _, image_masks = _direct_search(t, ps, hull)
        found = sorted(image_masks)
    elif backend == "oracle":
        target = canonical_code(t)
        corner_deg = [t.degree(v) for v in t.outer_face]
        deg_ms = sorted(len(r) for r in t.rotations)
        found = []
        for mask in _enumerate_masks(ps, max_n=max_n, jobs=jobs):
            degs = [(mask & tab.incident[v]).bit_count() for v in range(tab.n)]
            if [degs[p] for p in hull] != corner_deg:
                continue
            if sorted(degs) != deg_ms:
                continue
            if _mask_code(mask, tab) == target:
                found.append(mask)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if witnesses:
        wits = [GeomTriangulation(ps, _mask_edges(m, tab)) for m in found]
    return len(found), wits


# -- polygonalizations -------------------------------------------------------


def count_polygonalizations(
    ps: PointSet, cap: int | None = None, max_n: int | None = None, jobs: int = 1
) -> int:
    """Number of simple polygons through all points of ps.

    Depth first search over paths from point 0 with crossing pruning;
    each undirected cycle is counted once (direction fixed by comparing
    the two neighbors of point 0).
    """
    limit = POLYGON_POINT_GUARD if max_n is None else max_n
    n = len(ps)
    if n > limit:
        raise ValueError(f"point set size {n} exceeds guard {limit}")
    if n < 3:
        raise ValueError("need at least 3 points")
    tab = _tables_for(ps)
    seconds = list(range(1, n))
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(tuple((p.x, p.y) for p in ps.points),),
        ) as pool:
            total = sum(pool.map(_polygon_count_task, seconds))
    else:
        global _WORK_TAB
        saved = _WORK_TAB
        _WORK_TAB = tab
        try:
            total = sum(_polygon_count_task(v) for v in seconds)
        finally:
            _WORK_TAB = saved
    if cap is not None and total > cap:
        raise RuntimeError(f"more than cap={cap} polygonalizations")
    return total


def _polygon_count_task(second: int) -> int:
    tab = _WORK_TAB
    assert tab is not None
    n = tab.n
    eid = tab.eid
    cross = tab.cross
    count = 0
    path = [0, second]
    used = (1 << 0) | (1 << second)
    edge_mask = 1 << eid[_norm_edge(0, second)]

    def extend(last: int, used: int, edge_mask: int, depth: int) -> None:
        nonlocal count
        if depth == n:
            if second < last:  # one direction per cycle
                e = eid[_norm_edge(last, 0)]
                if cross[e] & edge_mask == 0:
                    count += 1
            return
        for p in range(1, n):
            bit = 1 << p
            if used & bit:
                continue
            e = eid[_norm_edge(last, p)]
            if cross[e] & edge_mask:
                continue
            extend(p, used | bit, edge_mask | (1 << e), depth + 1)

    extend(second, used, edge_mask, 2)
    return count


# -- forced structure on double chains ---------------------------------------


def forced_cycle(ps: PointSet) -> frozenset[Edge]:
    """Edges no triangulation of a double chain can avoid.

    For a double chain with both chains of size at least 2: consecutive
    points along each chain (no chord over a chain can cut the gap) and
    the four hull edges.
    """
    fam = ps.family
    if not isinstance(fam, DoubleChain) or fam.t < 2 or fam.l < 2:
        raise ValueError("forced structure known for double chains with t, l >= 2")
    t, l = fam.t, fam.l
    edges = {_norm_edge(i, i + 1) for i in range(t - 1)}
    edges |= {_norm_edge(t + i, t + i + 1) for i in range(l - 1)}
    edges |= {
        _norm_edge(0, t),                  # left hull edge
        _norm_edge(t - 1, t + l - 1),      # right hull edge
        _norm_edge(0, t - 1),              # top hull edge
        _norm_edge(t, t + l - 1),          # bottom hull edge
    }
    return frozenset(edges)


def forced_hamiltonian_cycle(ps: PointSet) -> frozenset[Edge]:
    """Hamiltonian cycle inside forced_cycle(ps): both chains plus the
    left and right hull edges, dropping the top and bottom ones."""
    fam = ps.family
    if not isinstance(fam, DoubleChain) or fam.t < 2 or fam.l < 2:
        raise ValueError("forced structure known for double chains with t, l >= 2")
    t, l = fam.t, fam.l
    return frozenset(
        forced_cycle(ps) - {_norm_edge(0, t - 1), _norm_edge(t, t + l - 1)}
    )


def forced_edges_always_present(ps: PointSet, max_n: int | None = None) -> bool:
    """Exhaustively check forced_cycle against every triangulation of ps."""
    tab = _tables_for(ps)
    need = 0
    for e in forced_cycle(ps):
        need |= 1 << tab.eid[e]
    return all(
        mask & need == need for mask in _enumerate_masks(ps, max_n=max_n)
    )


# -- layered assembly count ---------------------------------------------------


def recursive_layer_count(k: int) -> int:
    """Drawings reachable for the k layer quadrilateral family by resizing
    layers: each layer takes between 2 and 6 of the 4k upper chain points
    with 1,2,3,2,1 ways, and the count is the coefficient of total 4k
    over k layers."""
    if k < 1:
        raise ValueError("k >= 1 required")
    weights = ((2, 1), (3, 2), (4, 3), (5, 2), (6, 1))
    budget = 4 * k
    dp = [0] * (budget + 1)
    dp[0] = 1
    for _ in range(k):
        ndp = [0] * (budget + 1)
        for used, ways in enumerate(dp):
            if ways:
                for c, w in weights:
                    if used + c <= budget:
                        ndp[used + c] += ways * w
        dp = ndp
    return dp[budget]


# -- rendering ----------------------------------------------------------------


def render_svg(
    gt: GeomTriangulation
    | tuple[CombTriangulation, DrawingMapping, PointSet],
) -> str:
    """SVG text for a drawing: labeled dots, straight edges.

    Accepts either a geometric triangulation or a (comb, mapping,
    pointset) triple.  Output is deterministic, fixed viewport 840x640,
    coordinates printed with three decimals.
    """
    if isinstance(gt, tuple):
        t, mapping, ps = gt
        gt = apply_drawing(t, ps, mapping)
    pts = gt.pointset.points
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    w, h = 840.0, 640.0
    pad = 40.0
    dx = max(xs) - min(xs) or 1
    dy = max(ys) - min(ys) or 1
    scale = min((w - 2 * pad) / dx, (h - 2 * pad) / dy)

    def at(p: Point) -> tuple[float, float]:
        return (
            pad + (p.x - min(xs)) * scale,
            h - pad - (p.y - min(ys)) * scale,  # y grows upward in the data
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w:.0f} {h:.0f}">'
    ]
    for a, b in sorted(gt.edges):
        xa, ya = at(pts[a])
        xb, yb = at(pts[b])
        lines.append(
            f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
    for i, p in enumerate(pts):
        x, y = at(p)
        lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="black"/>')
        lines.append(
            f'<text x="{x + 6:.3f}" y="{y - 6:.3f}" font-size="13" '
            f'font-family="sans-serif">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
