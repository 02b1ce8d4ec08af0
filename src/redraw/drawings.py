"""Geometric triangulations of a labeled point set, and drawings of
combinatorial triangulations onto point sets.

A geometric triangulation is a maximal crossing free straight line graph
on a fixed point set.  A drawing of a combinatorial triangulation T onto
a point set S is a bijection from T's vertices to S that keeps the image
crossing free and realizes T's face structure, with T's outer face pinned
to S's convex hull (outer_face[i] goes to hull[i], both counterclockwise).

Two counting backends are kept deliberately independent so they can check
each other.  The oracle backend enumerates the geometric triangulations
of S, each once, by a depth first search, and compares canonical codes.
It checks each point's degree against T's at the step that closes the
point's last open edge, where the degree becomes final.  The direct
backend searches label assignments, placing each interior vertex only
where every face it closes is an empty counterclockwise triangle, and
takes each complete assignment as a drawing without re-checking it.

Triangulations are streamed from that search into each consumer, and
nothing keeps them past the call: the oracle and the class histogram read
the stream, the public enumerator sorts its own copy, and the triangulation
count memoizes the search on its open edges instead of listing anything.
The steps below a state depend on its open edges alone (the argument is
in `count_geometric_triangulations`), so each walk works each open set's
steps out once and keeps them for the call: its memory grows with the
open sets, not with the triangulations.  Working a set's steps out is a
read of the index's step table, which holds, per dart, a record of each
triangle that could close it.  What outlives a call is the
index, tables of the points alone, which each point set builds on first
use and keeps for as long as it lives.  `_mapped` runs the tasks of
both searches that take `jobs` here or over a worker pool, which sends
the index with every task, so a worker builds nothing.
A drawing is its point set and edges: the public constructor checks user
input once, with the index-free straight line check, triangulations built
from a search's own masks skip it, and the structure of either is read
off the index only when asked for.

Exhaustive operations are guarded: they are meant for desk scale
instances, and the guards are arguments, not constants baked into the
search.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import combinations, repeat
from typing import Callable, Iterable, Iterator, Sequence

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
from .geometry import Point, _integer, _parsed, _Value, convex_hull
from .pointsets import DoubleChain, PointSet, _pointset_from_data

# Default ceilings for the exhaustive searches.  Callers can raise them
# explicitly (max_n argument), the command line also via REDRAW_MAX_N.
ENUM_POINT_GUARD = 14
POLYGON_POINT_GUARD = 16


# -- geometric triangulations ----------------------------------------------


class GeomTriangulation(_Value):
    """Maximal crossing free straight line graph on a point set: the point
    set and its edges, nothing else.  The public constructor checks the
    edges with `from_straight_line_drawing`, which reads no index, so a
    drawing built from user input or JSON builds no index either;
    `to_comb` reads the structure off the index when asked for it."""

    _fields = ("pointset", "edges")

    def __init__(self, pointset: PointSet, edges: Iterable[Edge]) -> None:
        edges = frozenset(_norm_edge(_integer(a), _integer(b)) for a, b in edges)
        from_straight_line_drawing(pointset.points, edges)
        object.__setattr__(self, "pointset", pointset)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(cls, ps: PointSet, mask: int) -> GeomTriangulation:
        """Construction without the check of `__init__`, for a
        triangulation mask that a search over the index of ps produced."""
        pairs = ps._index.pairs
        gt = object.__new__(cls)
        object.__setattr__(gt, "pointset", ps)
        object.__setattr__(gt, "edges", frozenset(map(pairs.__getitem__, _bits(mask))))
        return gt

    def to_json(self) -> str:
        # the bytes of json.dumps with separators (",", ":"), without a round trip
        edges = ",".join(f"[{a},{b}]" for a, b in sorted(self.edges))
        return f'{{"pointset":{self.pointset.to_json()},"edges":[{edges}]}}'

    @staticmethod
    def from_json(text: str) -> "GeomTriangulation":
        return _parsed(text, lambda data: GeomTriangulation(
            _pointset_from_data(data["pointset"]), frozenset(map(tuple, data["edges"]))))


def to_comb(gt: GeomTriangulation) -> CombTriangulation:
    """Rotation system of the drawing, outer face = hull cycle, read off
    the point set's index at each call: each point's neighbors in gt are
    the points of its `angular` row whose edge bit gt's mask has.  gt is
    a triangulation, so the structure needs no check."""
    ix = _index_for(gt.pointset)
    mask = sum(1 << ix.eidm[a][b] for a, b in gt.edges)
    rotations = tuple(tuple(w for w, bit in ang if mask & bit) for ang in ix.angular)
    return CombTriangulation._trusted(ix.n, tuple(ix.hull), rotations)


# -- per point set index for mask based search -------------------------------


class _Index:
    """Per point set tables.  Edge ids index the lexicographic pair list;
    a triangulation is a bitmask over edge ids.  The index holds tables of
    the point set only, never triangulations.

    Every geometric table derives from one orientation table, built once:
    `left[a][b]` is the bitmask of the points strictly left of the directed
    line a->b, filled by one orientation test per triple.  `PointSet`
    guarantees general position, so a counterclockwise triangle is empty
    iff no point is left of all three sides, and `cross` too is read off
    `left`, one mask operation per edge and point left of it and one per
    crossing.  `step_table` holds, per dart, every step a triangulation
    walk can take from it, so `_steps` computes nothing but mask tests."""

    def __init__(self, pts: tuple[Point, ...]):
        self.pts = pts
        n = self.n = len(pts)
        self.pairs: list[Edge] = list(combinations(range(n), 2))
        self.m_all = len(self.pairs)
        eidm = self.eidm = [[-1] * n for _ in range(n)]
        for i, (a, b) in enumerate(self.pairs):
            eidm[a][b] = eidm[b][a] = i
        self.hull: list[int] = convex_hull(pts)
        self.hull_mask = 0
        for a, b in zip(self.hull, self.hull[1:] + self.hull[:1]):
            self.hull_mask |= 1 << eidm[a][b]
        left = self.left = [[0] * n for _ in range(n)]
        for a, b, c in combinations(range(n), 3):
            (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
                b, c = c, b
            left[a][b] |= 1 << c
            left[b][c] |= 1 << a
            left[c][a] |= 1 << b
        # empty[a][b]: apexes c of the empty counterclockwise triangles abc
        empty = self.empty = [[0] * n for _ in range(n)]
        for a, b, c in combinations(range(n), 3):
            if not left[a][b] >> c & 1:  # the orientation, read back
                b, c = c, b
            if left[a][b] & left[b][c] & left[c][a] == 0:
                empty[a][b] |= 1 << c
                empty[b][c] |= 1 << a
                empty[c][a] |= 1 << b
        self.incident = [0] * n
        for i, (a, b) in enumerate(self.pairs):
            self.incident[a] |= 1 << i
            self.incident[b] |= 1 << i

    # The tables below are built on first use and kept in the instance
    # `__dict__`: a direct count reads none of them.  A caller of `_mapped`
    # touches the ones its tasks read first, so that those go out with the
    # pickled index.

    @cached_property
    def cross(self) -> list[int]:
        """cross[i]: the edge ids whose segments properly cross edge i.  A
        segment cd with c left of a->b crosses ab exactly when d is right
        of a->b and left of just one of a->c and b->c: in the wedge at c
        between the rays towards a and b, or in the opposite wedge, which
        lies left of a->b."""
        left, eidm = self.left, self.eidm
        return [sum(1 << eidm[c][d] for c in _bits(left[a][b])
                    for d in _bits(left[b][a] & (left[a][c] ^ left[b][c])))
                for a, b in self.pairs]

    @cached_property
    def dart_cross(self) -> list[int]:
        """dart_cross[a*n+b]: `cross` over darts.  Both a*n+b and b*n+a
        hold, for every segment cd crossing ab, both darts c*n+d and
        d*n+c."""
        n, pairs = self.n, self.pairs
        rows = [0] * (n * n)
        for (a, b), crossed in zip(pairs, self.cross):
            rows[a * n + b] = rows[b * n + a] = sum(
                1 << (c * n + d) | 1 << (d * n + c) for c, d in map(pairs.__getitem__, _bits(crossed)))
        return rows

    @cached_property
    def darts(self) -> list[int]:
        """darts[p]: the darts p->q and q->p, as bits p*n+q and q*n+p."""
        n = self.n
        row, column = (1 << n) - 1, sum(1 << q * n for q in range(n))
        return [row << p * n | column << p for p in range(n)]

    @cached_property
    def step_table(self) -> list[tuple[tuple[int, ...], ...]]:
        """step_table[a*n+b]: for each apex c of an empty counterclockwise
        triangle abc, in increasing order, the record that `_steps` reads:
        c, then for each of the sides b->c and c->a the bits of the dart
        and of its reverse, the bit of the edge, and the edge's blocking
        mask, its own bit and those of the edges crossing it.  The records
        share one int per dart and one per edge."""
        n, eidm, empty = self.n, self.eidm, self.empty
        dart = [1 << d for d in range(n * n)]
        edge = [1 << e for e in range(self.m_all)]
        block = [x | bit for x, bit in zip(self.cross, edge)]

        def side(p: int, q: int) -> tuple[int, int, int, int]:
            e = eidm[p][q]
            return dart[p * n + q], dart[q * n + p], edge[e], block[e]

        return [tuple((c, *side(b, c), *side(c, a)) for c in _bits(empty[a][b]))
                for a in range(n) for b in range(n)]

    @cached_property
    def angular(self) -> list[list[tuple[int, int]]]:
        """Per point, the others in counterclockwise order, each with the
        bit of its edge, for reading rotations off an edge mask."""
        pts, eidm = self.pts, self.eidm
        out = []
        for v in range(self.n):
            others = [w for w in range(self.n) if w != v]
            order = _ccw_neighbor_order(pts[v], others, pts)
            out.append([(w, 1 << eidm[v][w]) for w in order])
        return out


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _index_for(ps: PointSet) -> _Index:
    """The index of ps, built on first use and kept on ps, so that it
    lives exactly as long as the point set."""
    if ps._index is None:
        object.__setattr__(ps, "_index", _Index(ps.points))
    return ps._index


def _mapped(task: Callable, ix: _Index, items: Sequence, jobs: int, *args) -> list:
    """[task(ix, item, *args) for item in items], in this process unless
    jobs, the CPU count and the item count all exceed one; then over a
    pool of their minimum, since a pool starts every worker at once.
    Every task carries the index with the tables built so far, so a worker
    needs nothing from the parent.  An error cancels the tasks not yet
    started before it propagates."""
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [task(ix, item, *args) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # loaded only when used
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            return list(pool.map(task, repeat(ix), items, *(repeat(a) for a in args)))
        except BaseException:  # leaving `with` would wait for the rest
            pool.shutdown(cancel_futures=True)
            raise


def _mask_coder(ix: _Index) -> Callable[[int], bytes]:
    """A function from a triangulation mask of the indexed set to its
    canonical code.

    A vertex's rotation depends only on its incident edges, and across
    the triangulations of one set the same incident edges recur, so each
    vertex keeps a dict from them to the rotation read off `angular`, as
    `to_comb` reads it.  The dicts live as long as the returned function,
    which callers keep for one pass: on the index they would last for the
    whole process."""
    n, hull = ix.n, ix.hull
    tables = [(ang, inc, {}) for ang, inc in zip(ix.angular, ix.incident)]

    def code(mask: int) -> bytes:
        rotations = []
        for ang, inc, seen in tables:
            key = mask & inc
            rot = seen.get(key)
            if rot is None:
                rot = seen[key] = tuple(w for w, bit in ang if key & bit)
            rotations.append(rot)
        return _code_from_rotations(n, hull, rotations)

    return code


def _guarded_index(ps: PointSet, max_n: int | None, guard: int = ENUM_POINT_GUARD) -> _Index:
    """The index of ps, once ps has passed the guard (max_n if given)."""
    limit = guard if max_n is None else max_n
    if len(ps) > limit:
        raise ValueError(f"point set size {len(ps)} exceeds guard {limit}")
    return _index_for(ps)


def _root(ix: _Index) -> tuple[int, int]:
    """The state with only the hull drawn, its edges open counterclockwise."""
    sides = zip(ix.hull, ix.hull[1:] + ix.hull[:1])
    return sum(1 << (a * ix.n + b) for a, b in sides), ix.hull_mask


def _triangulations(
    ix: _Index,
    *starts: tuple[int, int],
    cap: int | None = None,
) -> Iterator[int]:
    """Yield every triangulation bitmask of the indexed set, each once, in
    no promised order; raise RuntimeError once more than `cap` have come.
    With `starts`, yield only the triangulations below those states, one
    state after the other.

    A depth first search over partial triangulations, off a stack.  A
    state is a pair (open, mask): `mask` holds the edges drawn so far, and
    `open` the directed edges a->b, as bits a*n+b, whose left side is still
    unclaimed.  The root has the hull edges, counterclockwise, open.  A
    step closes the lowest open edge with one of its empty
    counterclockwise triangles (`_steps`).  The open edges are the
    boundary of the unclaimed region, so at a state with none the
    triangles cover the hull once: a triangulation.  The triangle on the
    left of an edge is determined by the triangulation, so each one has
    exactly one derivation.

    The steps depend on the open set alone (see
    `count_geometric_triangulations`), so a dict kept for the call holds
    them per open set, and a state reached again takes them from there.
    It has one entry per open set, as the count's memo does, and holds no
    triangulation.
    """
    memo: dict[int, list[tuple[int, int, int]]] = {}
    stack = list(reversed(starts)) or [_root(ix)]
    count = 0
    while stack:
        opened, mask = stack.pop()
        if opened:
            below = memo.get(opened)
            if below is None:
                below = memo[opened] = _steps(ix, opened, mask)
            stack += [(o, mask | new) for o, new, _ in below]
            continue
        count += 1
        if cap is not None and count > cap:
            raise RuntimeError(f"more than cap={cap} triangulations")
        yield mask


def _steps(ix: _Index, opened: int, mask: int) -> list[tuple[int, int, int]]:
    """The steps from (opened, mask), which has an open edge, as triples
    (open set below, new edges, apex); they depend on the open set alone
    (see `count_geometric_triangulations`).

    The lowest open edge a->b is closed by each apex c of an empty
    counterclockwise triangle abc.  Of the sides b->c and c->a, one that
    is open gets closed; one that is drawn but not open has its left side
    claimed, so c is rejected; a new one must cross nothing drawn, and
    its reverse is opened.  The two sides share c, so neither crosses the
    other, and both tests read `mask` alone: one AND with the side's
    blocking mask, which `step_table` holds with the rest of the record."""
    low = opened & -opened
    opened ^= low
    out = []
    for c, bc, cb, ebc, xbc, ca, ac, eca, xca in ix.step_table[low.bit_length() - 1]:
        if opened & bc:  # close the side
            o, new = opened ^ bc, 0
        elif mask & xbc:
            continue
        else:  # draw it, and open its reverse
            o, new = opened | cb, ebc
        if o & ca:
            o ^= ca
        elif mask & xca:
            continue
        else:
            o, new = o | ac, new | eca
        out.append((o, new, c))
    return out


def _degree_walk(ix: _Index, t: CombTriangulation) -> Iterator[int]:
    """Yield the masks of `_triangulations`, in its order, that have t's
    degrees: ix.hull[i] that of t.outer_face[i], the other points t's
    interior degrees.  It memoizes the steps per open set, as that search
    does (see `count_geometric_triangulations`).

    A point without open darts lies inside the claimed region, so at the
    step that leaves a corner a, b or c of its triangle without one, that
    corner's degree is final.  There a hull point must have its need, t's
    degree at its vertex; any other point takes its degree out of a
    counter of t's interior degrees, which has a field of w =
    n.bit_length() bits, enough for any count up to n, per degree d at
    bit d * w.  Steps only
    add edges, so a state is also dropped once a point has more edges
    than its need, or than any degree left in the counter."""
    incident, darts, n = ix.incident, ix.darts, ix.n
    need = [0] * n  # 0 off the hull
    for p, v in zip(ix.hull, t.outer_face):
        need[p] = len(t.rotations[v])
    width = n.bit_length()
    outer = set(t.outer_face)
    interior = sum(1 << len(r) * width for v, r in enumerate(t.rotations) if v not in outer)
    field = (1 << width) - 1
    memo: dict[int, list[tuple[int, int, int]]] = {}
    stack = [(*_root(ix), interior)]
    while stack:
        opened, mask, counter = stack.pop()
        if not opened:
            yield mask
            continue
        below = memo.get(opened)
        if below is None:
            below = memo[opened] = _steps(ix, opened, mask)
        a, b = divmod((opened & -opened).bit_length() - 1, n)
        for o, new, c in below:
            m = mask | new
            rest = counter
            for p in (a, b, c):
                d = (m & incident[p]).bit_count()
                closed = not o & darts[p]
                if need[p]:
                    if d > need[p] or closed and d < need[p]:
                        break
                elif closed:  # p's degree leaves the counter
                    if not rest >> d * width & field:
                        break
                    rest -= 1 << d * width
                elif not rest >> d * width:  # no degree as high as d is left
                    break
            else:
                stack.append((o, m, rest))


def enumerate_geometric_triangulations(
    ps: PointSet, cap: int | None = None, max_n: int | None = None
) -> Iterator[GeomTriangulation]:
    """Yield every geometric triangulation of ps, deterministic order."""
    ix = _guarded_index(ps, max_n)
    for mask in sorted(_triangulations(ix, cap=cap)):
        yield GeomTriangulation._trusted(ps, mask)


def count_geometric_triangulations(
    ps: PointSet, cap: int | None = None, max_n: int | None = None
) -> int:
    """Number of geometric triangulations of ps, counted without listing
    them: the search of `_triangulations`, memoized on the open edges.

    That is exact because `_steps` accepts an apex c exactly when the
    triangle abc lies in the unclaimed region.  A drawn edge is open in
    the direction whose left side is unclaimed, so a side of abc that is
    drawn but not open has its left side claimed.  abc holds no point, and
    drawn edges cross no drawn edge, so a drawn edge that enters abc
    crosses one of its new sides, and the crossing test rejects c.  The
    open edges bound the unclaimed region, and the new edges of a step are
    the sides of abc that are not open, so the steps from a state, triples
    (open set below, new edges, apex), and the number of its completions
    depend on its open set alone.  Every walk over the steps memoizes them
    on that set.  Raises RuntimeError if the number exceeds `cap`."""
    ix = _guarded_index(ps, max_n)
    total = _completions(ix, {}, *_root(ix))
    if cap is not None and total > cap:
        raise RuntimeError(f"more than cap={cap} triangulations")
    return total


def _completions(ix: _Index, memo: dict[int, int], opened: int, mask: int) -> int:
    # A module function, not a closure: a recursive closure is a reference
    # cycle, which would keep the index and the memo until the next collection.
    if not opened:
        return 1
    count = memo.get(opened)
    if count is None:
        count = 0  # a loop: sum() over a generator adds a generator frame per state
        for o, new, _ in _steps(ix, opened, mask):
            count += _completions(ix, memo, o, mask | new)
        memo[opened] = count
    return count


# -- classification ----------------------------------------------------------


def classify_drawings(
    ps: PointSet, max_n: int | None = None, jobs: int = 1
) -> dict[bytes, int]:
    """Histogram of canonical codes over all geometric triangulations of ps.

    Keys are codes of the induced combinatorial triangulations (rooted at
    the hull), values how many geometric triangulations realize each.

    When jobs and the CPU count both exceed one, the search is split at
    the states two steps below the root, and `_mapped` spreads the states
    over workers, at most one per CPU; the histograms of the later states
    are added into the first one.  Otherwise one search runs in this
    process, with one memo of steps for the whole set.
    """
    ix = _guarded_index(ps, max_n)
    states = [_root(ix)]
    if min(jobs, os.cpu_count() or 1) > 1:  # a pool will start
        for _ in range(2):  # a closed state stays: nothing open, nothing new
            states = [(o, m | new) for opened, m in states
                      for o, new, _ in (_steps(ix, opened, m) if opened else [(0, 0, 0)])]
    ix.step_table, ix.angular  # built here, so that they go out with the index
    hist, *parts = _mapped(_class_histogram, ix, states, jobs)
    for part in parts:
        for key, count in part.items():
            hist[key] = hist.get(key, 0) + count
    return hist


def _class_histogram(ix: _Index, state: tuple[int, int]) -> dict[bytes, int]:
    """Histogram of canonical codes over the triangulations below the state."""
    code = _mask_coder(ix)
    hist: dict[bytes, int] = {}
    for mask in _triangulations(ix, state):
        key = code(mask)
        hist[key] = hist.get(key, 0) + 1
    return hist


def classify_to_csv(hist: dict[bytes, int]) -> str:
    """CSV export, one row per class: sha256 of the code, multiplicity."""
    import hashlib  # loaded only when used: it maps libcrypto

    rows = sorted(
        ((hashlib.sha256(code).hexdigest(), mult) for code, mult in hist.items()),
        key=lambda r: (-r[1], r[0]),
    )
    return "code_hash,multiplicity\n" + "".join(f"{h},{m}\n" for h, m in rows)


# -- drawings of a combinatorial triangulation onto a point set --------------


def _check_compatible(t: CombTriangulation, ps: PointSet) -> list[int]:
    hull = ps.hull()
    if t.num_vertices != len(ps):
        raise ValueError("vertex count differs from point count")
    if len(t.outer_face) != len(hull):
        raise ValueError("outer face size differs from hull size")
    return hull

def is_valid_drawing(t: CombTriangulation, ps: PointSet, asg: tuple[int, ...]) -> bool:
    """Does the assignment, asg[v] the point of vertex v, draw t on ps,
    boundary pinned, faces preserved?

    The image must be a straight line triangulation whose rotation system,
    pulled back through the assignment, is exactly t's (same cyclic
    neighbor orders, same outer face); this reads no point set index.
    Pinning means asg[outer_face[i]] is hull[i].
    """
    hull = _check_compatible(t, ps)
    n = t.num_vertices
    if sorted(asg) != list(range(n)):
        return False
    if any(asg[v] != hull[i] for i, v in enumerate(t.outer_face)):
        return False
    try:
        image = from_straight_line_drawing(ps.points, ((asg[u], asg[v]) for u, v in t.edges()))
    except ValueError:
        return False
    inv = [0] * n
    for v, p in enumerate(asg):
        inv[p] = v
    return all(
        _cyclic_eq([inv[p] for p in image.rotations[asg[v]]], t.rotations[v])
        for v in range(n)
    )


def _direct_search(t: CombTriangulation, ix: _Index) -> list[int]:
    """Image edge masks of the assignments drawing t on the indexed set.

    The outer face is pinned to the hull, whose size `_check_compatible`
    has matched.  Each interior vertex, in a fixed order, is tried only on
    the free points that map every face closed at its step to an empty
    counterclockwise triangle.  That pruning is exact: a bijection that
    pins the outer face counterclockwise onto the convex hull and sends
    every internal face to a counterclockwise triangle is a straight line
    drawing (Floater, Math. Comp. 2003), so a complete assignment needs no
    crossing test or rotation check.  With the boundary pinned, an
    automorphism of t that fixes a boundary dart is the identity, so
    distinct assignments have distinct image masks."""
    hull = ix.hull
    eidm = ix.eidm
    empty = ix.empty
    n = t.num_vertices
    everyone = (1 << n) - 1
    asg = [-1] * n
    used = 0
    for i, v in enumerate(t.outer_face):
        asg[v] = hull[i]
        used |= 1 << hull[i]
    # deterministic placement order, most placed neighbors first, and per
    # step the pair (w, u) of every face (v, w, u) completed there: w, u
    # placed and consecutive in v's rotation, as `faces` reads them
    order: list[int] = []
    step_sides: list[list[tuple[int, int]]] = []
    placed = set(t.outer_face)
    while len(placed) < n:
        v = min(
            (v for v in range(n) if v not in placed),
            key=lambda v: (-sum(u in placed for u in t.rotations[v]), v),
        )
        order.append(v)
        placed.add(v)
        rot = t.rotations[v]
        step_sides.append(
            [(w, u) for w, u in zip(rot[-1:] + rot[:-1], rot) if w in placed and u in placed]
        )
    edges = t.edges()
    images: list[int] = []

    def place(step: int, used: int) -> None:
        if step == len(order):
            mask = 0
            for u, w in edges:
                mask |= 1 << eidm[asg[u]][asg[w]]
            images.append(mask)
            return
        v = order[step]
        cand = everyone ^ used
        for a, b in step_sides[step]:
            cand &= empty[asg[a]][asg[b]]
        while cand:
            low = cand & -cand
            cand ^= low
            asg[v] = low.bit_length() - 1
            place(step + 1, used | low)

    try:
        place(0, used)
    finally:
        del place  # it refers to itself: a cycle the collector would have to find
    return images


def count_drawings(
    t: CombTriangulation,
    ps: PointSet,
    backend: str = "direct",
    witnesses: bool = False,
    max_n: int | None = None,
) -> tuple[int, list[GeomTriangulation] | None]:
    """Number of geometric triangulations of ps whose combinatorial
    structure is t, boundary pinned (outer_face[i] on hull[i]).

    backend "direct" searches label assignments, each of which is a
    distinct drawing; backend "oracle" enumerates, after the enumeration
    guard, the triangulations of ps with t's degrees, each point's checked
    where it becomes final (`_degree_walk`), and compares canonical codes.
    The two backends share no counting logic.
    """
    _check_compatible(t, ps)
    wits: list[GeomTriangulation] | None = None
    if backend == "direct":
        ix = _index_for(ps)
        found = sorted(_direct_search(t, ix))
    elif backend == "oracle":
        ix = _guarded_index(ps, max_n)
        target, code = canonical_code(t), _mask_coder(ix)
        found = sorted(m for m in _degree_walk(ix, t) if code(m) == target)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if witnesses:
        wits = [GeomTriangulation._trusted(ps, m) for m in found]
    return len(found), wits


# -- polygonalizations -------------------------------------------------------


def count_polygonalizations(
    ps: PointSet, cap: int | None = None, max_n: int | None = None, jobs: int = 1
) -> int:
    """Number of simple polygons through all points of ps.

    Depth first search over paths from point 0 with crossing pruning;
    each undirected cycle is counted once (direction fixed by comparing
    the two neighbors of point 0), one search per neighbor, through
    `_mapped`.  In this process and in workers alike, each search raises
    RuntimeError once its own count passes `cap`, and the total is checked
    at the end.
    """
    if len(ps) < 3:
        raise ValueError("need at least 3 points")
    ix = _guarded_index(ps, max_n, POLYGON_POINT_GUARD)
    ix.dart_cross  # built here, so that it goes out with the index
    total = sum(_mapped(_count_polygons_from, ix, range(1, ix.n), jobs, cap))
    if cap is not None and total > cap:
        raise RuntimeError(f"more than cap={cap} polygonalizations")
    return total


def _count_polygons_from(ix: _Index, second: int, cap: int | None) -> int:
    """The polygonalizations whose path leaves point 0 towards `second`,
    each counted in the direction whose last point exceeds `second`.
    Raises RuntimeError once the count passes `cap`.

    A node is (last, free, blocked): the path's end, the unvisited points,
    and the darts crossed by some path edge, an OR of `dart_cross` rows.
    The path extends from `last` to the free points whose dart from
    `last` is not blocked.  The low n bits of `blocked` are the darts
    0->p, so the points that could still close the cycle are `free &
    above & ~blocked`.  `blocked` only grows, so a node where none is left
    is pruned.  At the node with one free point that test is the closing
    test, so every complete path is a polygon."""
    n = ix.n
    rows = ix.dart_cross
    everyone = (1 << n) - 1
    above = everyone >> (second + 1) << (second + 1)
    count = 0

    def extend(last: int, free: int, blocked: int) -> None:
        nonlocal count
        if not free:
            count += 1
            if cap is not None and count > cap:
                raise RuntimeError(f"more than cap={cap} polygonalizations")
            return
        if not free & above & ~blocked:
            return
        cand = free & ~(blocked >> last * n)
        while cand:
            bit = cand & -cand
            cand ^= bit
            p = bit.bit_length() - 1
            extend(p, free ^ bit, blocked | rows[last * n + p])

    try:
        extend(second, everyone ^ 1 ^ (1 << second), rows[second])  # dart 0->second
    finally:
        del extend  # it refers to itself: a cycle the collector would have to find
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
    cycle = forced_cycle(ps)  # checks that ps is a fat enough double chain
    t, l = ps.family.t, ps.family.l
    return cycle - {_norm_edge(0, t - 1), _norm_edge(t, t + l - 1)}


def forced_edges_always_present(ps: PointSet) -> bool:
    """Does every triangulation of ps contain every edge of forced_cycle?

    An edge lies in every triangulation exactly when no segment between
    two points of ps crosses it.  If none does, adding the edge to a
    triangulation leaves it crossing free, so the triangulation, being
    maximal, has it already.  If one does, that segment extends, as any
    crossing free set does, to a triangulation, which lacks the edge."""
    ix = _index_for(ps)
    return all(ix.cross[ix.eidm[a][b]] == 0 for a, b in forced_cycle(ps))


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


def render_svg(gt: GeomTriangulation) -> str:
    """SVG text for a drawing: labeled dots, straight edges.

    Output is deterministic, fixed viewport 840x640, coordinates printed
    with three decimals.
    """
    pts = gt.pointset.points
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    w, h = 840.0, 640.0
    pad = 40.0
    x0, y0 = min(xs), min(ys)
    dx = max(xs) - x0 or 1
    dy = max(ys) - y0 or 1
    scale = min((w - 2 * pad) / dx, (h - 2 * pad) / dy)

    def at(p: Point) -> tuple[float, float]:
        return (
            pad + (p.x - x0) * scale,
            h - pad - (p.y - y0) * scale,  # y grows upward in the data
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
