"""Combinatorial triangulations as labeled rotation systems.

A combinatorial triangulation is stored as, for every vertex, the cyclic
counterclockwise order of its neighbors, together with a designated outer
face.  Faces are read off the rotations: the face left of the dart u->v
is (v, w, u), with w the neighbor before u in v's rotation.  So validity
(simplicity, the edge count, every internal face a triangle, the outer
face a face) is checked wedge by wedge at construction time.

Identity of two triangulations with the same outer boundary is decided by
`canonical_code`: a breadth-first serialization seeded at the directed
boundary edge outer_face[0] -> outer_face[1].  Codes are equal exactly
when an orientation preserving isomorphism maps one triangulation to the
other while fixing every boundary vertex.  Orientation reversing maps are
deliberately not considered: a drawing pinned at three or more hull
points cannot be reflected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cmp_to_key
from math import comb as _binom
from typing import Iterable, Sequence

from .geometry import Point, _integer, convex_hull, general_position, segments_cross

Edge = tuple[int, int]
Dart = tuple[int, int]

# Exhaustive enumeration is an oracle for small instances only.
ENUM_INTERIOR_GUARD = 4


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def _cyclic_eq(a: Sequence[int], b: Sequence[int]) -> bool:
    if len(a) != len(b):
        return False
    n = len(a)
    return any(all(a[(s + i) % n] == b[i] for i in range(n)) for s in range(n))


def _splits(nbrs: Sequence[Iterable[int]], cut: set[int]) -> bool:
    """Whether the graph with these neighbours falls apart without cut."""
    rest = set(range(len(nbrs))) - cut
    seen, front = set(), rest and {min(rest)}
    while front:
        seen |= front
        front = set().union(*(nbrs[v] for v in front)) - cut - seen
    return seen != rest


@dataclass(frozen=True)
class CombTriangulation:
    """Rotation system plus designated outer face, labels 0-based.

    rotations[v] lists the neighbors of v in counterclockwise order;
    outer_face lists the boundary cycle counterclockwise.  Construction
    validates the whole structure and raises ValueError on the first
    violated invariant, or on a label that is not an integer.
    """

    num_vertices: int
    outer_face: tuple[int, ...]
    rotations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_vertices", _integer(self.num_vertices))
        object.__setattr__(self, "outer_face", tuple(map(_integer, self.outer_face)))
        object.__setattr__(
            self, "rotations", tuple(tuple(map(_integer, r)) for r in self.rotations)
        )
        self._validate()

    @classmethod
    def _trusted(
        cls,
        num_vertices: int,
        outer_face: tuple[int, ...],
        rotations: tuple[tuple[int, ...], ...],
    ) -> CombTriangulation:
        """Construction without `_validate`, for rotations read off a
        straight line triangulation (by `from_straight_line_drawing`, which
        checks the drawing itself, or by `to_comb`, off the point set's
        index), from the flip search or from a builder's reference
        drawing.  Tests certify each of them."""
        t = object.__new__(cls)
        object.__setattr__(t, "num_vertices", num_vertices)
        object.__setattr__(t, "outer_face", outer_face)
        object.__setattr__(t, "rotations", rotations)
        return t

    # -- derived quantities -------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.rotations) // 2

    def edges(self) -> frozenset[Edge]:
        return frozenset(
            _norm_edge(v, u) for v, rot in enumerate(self.rotations) for u in rot
        )

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    # -- face structure -----------------------------------------------

    def faces(self) -> list[tuple[int, int, int]]:
        """All internal triangular faces, counterclockwise, lowest label first.

        The face left of dart u->v is (v, w, u), with w the neighbor before
        u in v's rotation, so each face is read off the rotation of its
        lowest vertex.  At outer_face[i] the wedge ending at outer_face[i+1]
        is the outer face."""
        outer = self.outer_face
        outer_wedge = dict(zip(outer, outer[1:] + outer[:1]))
        out = []
        for v, rot in enumerate(self.rotations):
            skip = outer_wedge.get(v)
            w = rot[-1]
            for u in rot:
                if v < w and v < u and u != skip:
                    out.append((v, w, u))
                w = u
        return sorted(out)

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        """Raise ValueError on the first violated invariant.

        After the structural checks come two local ones, with the rule of
        `faces`.  Around outer_face[i] the neighbor before
        outer_face[i+1] must be outer_face[i-1], so the outer face is a
        face; and for every other wedge (v, w, u) the neighbor before v
        around w must be u, so the face left of u->v is a triangle.
        Nothing else needs checking.  The map from u->v to v->w, the next
        dart of the same face, is a permutation of the darts, since the
        rotations are simple and reciprocal, so a face walk never revisits
        a dart.  The dart outer_face[1]->outer_face[0] exists, since
        consecutive outer vertices are adjacent.  With the outer face of
        length h and every other face a triangle, the 2m darts form
        f = 1 + (2m-h)/3 faces, and Euler's n - m + f = 2 holds exactly
        when m = 3n-3-h, the edge count checked before.
        """
        n, outer, rots = self.num_vertices, self.outer_face, self.rotations
        if n < 3:
            raise ValueError("need at least 3 vertices")
        if len(rots) != n:
            raise ValueError("rotation list length differs from vertex count")
        if len(outer) < 3:
            raise ValueError("outer face needs at least 3 vertices")
        if len(set(outer)) != len(outer):
            raise ValueError("outer face repeats a vertex")
        if any(not (0 <= v < n) for v in outer):
            raise ValueError("outer face label out of range")
        for v, rot in enumerate(rots):
            if len(rot) < 2:
                raise ValueError(f"vertex {v} has fewer than 2 neighbors")
            if v in rot:
                raise ValueError(f"loop at vertex {v}")
            if len(set(rot)) != len(rot):
                raise ValueError(f"multi-edge at vertex {v}")
            if any(not (0 <= u < n) for u in rot):
                raise ValueError(f"neighbor label out of range at vertex {v}")
        for v, rot in enumerate(rots):
            for u in rot:
                if v not in rots[u]:
                    raise ValueError(f"dart {v}->{u} has no reciprocal")
        if _splits(rots, set()):
            raise ValueError("graph is not connected")
        m = self.edge_count
        h = len(outer)
        if m != 3 * n - 3 - h:
            raise ValueError(f"edge count {m}, expected 3v-3-h = {3 * n - 3 - h}")
        outer_wedge = dict(zip(outer, outer[1:] + outer[:1]))
        for a, b in outer_wedge.items():
            if b not in rots[a]:
                raise ValueError("consecutive outer face vertices are not adjacent")
        for i, v in enumerate(outer):
            rot = rots[v]
            if rot[rot.index(outer_wedge[v]) - 1] != outer[i - 1]:
                raise ValueError("designated outer face is not a face")
        for v, rot in enumerate(rots):
            skip = outer_wedge.get(v)
            w = rot[-1]
            for u in rot:
                around_w = rots[w]
                if u != skip and around_w[around_w.index(v) - 1] != u:
                    raise ValueError("internal face is not a triangle")
                w = u

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "num_vertices": self.num_vertices,
                "outer_face": list(self.outer_face),
                "rotations": [list(r) for r in self.rotations],
            },
            separators=(",", ":"),
        )


def from_rotation_json(text: str) -> CombTriangulation:
    """Parse and fully validate the JSON interchange form."""
    data = json.loads(text)
    return CombTriangulation(
        data["num_vertices"],
        tuple(data["outer_face"]),
        tuple(tuple(r) for r in data["rotations"]),
    )


# -- canonical codes ------------------------------------------------------


def _tokens(count: int) -> tuple[str, ...]:
    """The decimal strings of 0 .. count-1."""
    return tuple(map(str, range(count)))


# The numbers a code of up to 63 vertices writes, made once per process
# instead of once per code.
_TOKENS = _tokens(64)


def _code_from_rotations(
    num_vertices: int,
    outer_face: Sequence[int],
    rotations: Sequence[Sequence[int]],
) -> bytes:
    """Label-free serialization rooted at the dart outer[0] -> outer[1].

    Vertices are renamed by first visit of a breadth-first walk; each
    vertex emits its rotation starting at the neighbor it was entered
    from.  The result depends only on the rooted oriented structure.
    """
    # every number written is at most num_vertices
    tokens = _TOKENS if num_vertices < len(_TOKENS) else _tokens(num_vertices + 1)
    labels: list[str | None] = [None] * num_vertices
    root, ref = outer_face[0], outer_face[1]
    labels[root] = tokens[0]
    order: list[Dart] = [(root, ref)]
    parts = [tokens[num_vertices], tokens[len(outer_face)]]
    for v, ref in order:  # the queue: a list iterator sees later appends
        rot = rotations[v]
        i0 = rot.index(ref)
        parts.append(tokens[len(rot)])
        for w in rot[i0:] + rot[:i0]:
            lw = labels[w]
            if lw is None:
                lw = labels[w] = tokens[len(order)]  # one label per queued vertex
                order.append((w, v))
            parts.append(lw)
    return " ".join(parts).encode()


def canonical_code(t: CombTriangulation) -> bytes:
    return _code_from_rotations(t.num_vertices, t.outer_face, t.rotations)


# -- geometric input -------------------------------------------------------


def _ccw_neighbor_order(
    center: Point, nbrs: Iterable[int], pts: Sequence[Point]
) -> tuple[int, ...]:
    def compare(a: int, b: int) -> int:
        ax, ay = pts[a].x - center.x, pts[a].y - center.y
        bx, by = pts[b].x - center.x, pts[b].y - center.y
        ha = 0 if (ay > 0 or (ay == 0 and ax > 0)) else 1
        hb = 0 if (by > 0 or (by == 0 and bx > 0)) else 1
        if ha != hb:
            return ha - hb
        # general position: distinct neighbors are never collinear with center
        return -1 if ax * by - ay * bx > 0 else 1

    return tuple(sorted(nbrs, key=cmp_to_key(compare)))


def rotations_from_drawing(
    points: Sequence[Point], edges: Iterable[Edge]
) -> tuple[tuple[int, ...], ...]:
    """Counterclockwise neighbor orders of a straight line graph."""
    pts = [Point(_integer(x), _integer(y)) for x, y in points]
    adj: list[list[int]] = [[] for _ in pts]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return tuple(
        _ccw_neighbor_order(pts[v], nb, pts) for v, nb in enumerate(adj)
    )


def from_straight_line_drawing(
    points: Sequence[Point], edges: Iterable[Edge]
) -> CombTriangulation:
    """Combinatorial structure of a crossing free straight line triangulation.

    Validates the drawing itself: integer input, general position, edge
    count 3n-3-h, hull edges present, pairwise crossing freeness.  On
    points in general position that makes it a triangulation, since any
    crossing free edge set extends to one and all have 3n-3-h edges, so
    the structure needs no check of its own.  The outer face is the hull
    cycle, counterclockwise from the lexicographically smallest point.
    """
    pts = [Point(_integer(x), _integer(y)) for x, y in points]
    n = len(pts)
    es = sorted({_norm_edge(_integer(a), _integer(b)) for a, b in edges})
    if any(a == b or not (0 <= a < n and 0 <= b < n) for a, b in es):
        raise ValueError("bad edge label")
    if not general_position(pts):
        raise ValueError("points must be distinct and in general position")
    hull = convex_hull(pts)
    h = len(hull)
    if len(es) != 3 * n - 3 - h:
        raise ValueError(f"edge count {len(es)}, expected {3 * n - 3 - h}")
    eset = set(es)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if _norm_edge(a, b) not in eset:
            raise ValueError("hull edge missing from drawing")
    for i, (a, b) in enumerate(es):
        for c, d in es[i + 1 :]:  # a <= c; in general position a common end is no crossing
            if a != c and b != c and b != d and segments_cross(pts[a], pts[b], pts[c], pts[d]):
                raise ValueError(f"edges {(a, b)} and {(c, d)} cross")
    return CombTriangulation._trusted(n, tuple(hull), rotations_from_drawing(pts, es))


def from_edge_list(
    num_vertices: int, edges: Iterable[Edge], outer_face: Sequence[int]
) -> CombTriangulation:
    """Embed an abstract edge list and root it at the given outer face.

    Coned over a new vertex n when the outer face is longer than a
    triangle, a triangulation is maximal planar, so its faces are the
    triangles whose removal leaves it connected (Tutte 1963).  The outer
    face is oriented by the rule of `_validate`, the face across each
    side p->q of an oriented face runs q->p, and the rotations are read
    off the oriented faces.  `CombTriangulation` certifies the result."""
    n, outer = num_vertices, tuple(outer_face)
    es = {_norm_edge(a, b) for a, b in edges}
    if any(not 0 <= a < b < n for a, b in es) or not set(outer) <= set(range(n)):
        raise ValueError("bad vertex label")
    m, h = len(es), len(set(outer))
    if m != 3 * n - 3 - h:  # a planar graph has at most 3n-6 edges
        raise ValueError("edge list is not planar" if m > 3 * n - 6 else
                         f"no orientation matches the outer face: edge count {m}")
    top = n if h > 3 else outer[2]
    es |= {(v, n) for v in outer if h > 3}
    nbrs = [{u for e in es if v in e for u in e if u != v} for v in range(n + (h > 3))]
    thirds: dict[Edge, list[int]] = {e: [] for e in es}  # third corners of its faces
    for a, b in es:
        for c in nbrs[a] & nbrs[b]:
            if c > b and not _splits(nbrs, {a, b, c}):
                for p, q, r in ((a, b, c), (b, c, a), (a, c, b)):
                    thirds[p, q].append(r)
    if top not in thirds.get(_norm_edge(outer[0], outer[1]), ()):
        raise ValueError("no orientation matches the outer face: it is not a face")
    after: dict[Dart, int] = {}  # (v, u) -> the neighbour after u around v
    todo = [(outer[0], top, outer[1])]
    while todo:
        a, b, c = todo.pop()
        if after.get((a, b)) != c:  # not oriented yet
            for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
                if after.setdefault((p, q), r) != r:
                    raise ValueError("edge list is not planar")
                t = thirds[_norm_edge(p, q)]  # a bare triangle's faces share one
                todo.append((q, p, t[0] if t[0] != r else t[-1]))
    rots = [[min(nbrs[v])] for v in range(n)]
    for v, rot in enumerate(rots):
        while len(rot) < len(nbrs[v]):
            rot.append(after.get((v, rot[-1]), v))
        if set(rot) != nbrs[v]:
            raise ValueError("edge list is not planar")
    try:
        return CombTriangulation(n, outer, tuple(tuple(u for u in r if u != n) for r in rots))
    except ValueError as exc:
        raise ValueError(f"no orientation matches the outer face: {exc}") from None


# -- counting and exhaustive generation ------------------------------------


def tutte_count(n: int) -> int:
    """Exact number of triangulations of a fixed triangle with n interior vertices."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    num = 2 * _binom(4 * n + 1, n - 1)
    den = n * (n + 1)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("count formula did not divide evenly")
    return q


def _flip(
    rots: Sequence[tuple[int, ...]], u: int, v: int
) -> tuple[tuple[int, ...], ...] | None:
    """Rotations with the edge uv of two internal faces replaced by wx.

    The faces beside uv are (v, w, u), with w the neighbour before u
    around v, and (u, x, v), with x the neighbour before v around u.  The
    new edge goes right after u around w and right after v around x.
    None when w and x are already adjacent, as wx would be a multi-edge.
    """
    rv, ru = rots[v], rots[u]
    w, x = rv[rv.index(u) - 1], ru[ru.index(v) - 1]
    if x in rots[w]:
        return None
    out = list(rots)
    out[u] = tuple(y for y in ru if y != v)
    out[v] = tuple(y for y in rv if y != u)
    rw, rx = rots[w], rots[x]
    i, j = rw.index(u) + 1, rx.index(v) + 1
    out[w] = rw[:i] + (x,) + rw[i:]
    out[x] = rx[:j] + (w,) + rx[j:]
    return tuple(out)


def enumerate_comb_triangulations(
    n: int, cap: int | None = None
) -> list[CombTriangulation]:
    """Every triangulation with outer face (0,1,2) and n interior vertices.

    A depth first search over the flips (`_flip`) of the edges uv with
    u < v and v > 2, those off the outer face, from the stacked
    triangulation, where vertex k lies in the face (0, 1, k-1).  It keeps
    one structure per canonical code, as an isomorphism carries flips to
    flips.  Such flips join all triangulations of the outer face (Wagner
    1936): flip edges opposite 0 until 0 is adjacent to every vertex, then
    flip diagonals of the polygon around 0.  No outer edge is ever flipped.
    Output order is deterministic (sorted by code).  Guarded to n <= 4;
    a cap raises RuntimeError as soon as one more structure is found.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    if n > ENUM_INTERIOR_GUARD:
        raise ValueError(f"interior count {n} exceeds guard {ENUM_INTERIOR_GUARD}")
    nv, top, outer = n + 3, n + 2, (0, 1, 2)
    stacked = [(1, *range(top, 1, -1)), (*range(2, nv), 0), (0, 3, 1) if n else (0, 1)]
    stacked += [(k - 1, 0, k + 1, 1) for k in range(3, top)]
    stacked += [(top - 1, 0, 1)] if n else []
    found: dict[bytes, tuple[tuple[int, ...], ...]] = {}
    todo = [tuple(stacked)]
    while todo:
        rots = todo.pop()
        code = _code_from_rotations(nv, outer, rots)
        if code in found:
            continue
        found[code] = rots
        if cap is not None and len(found) > cap:
            raise RuntimeError(f"more than cap={cap} triangulations")
        flips = (_flip(rots, u, v) for v in range(3, nv) for u in rots[v] if u < v)
        todo += [child for child in flips if child is not None]
    return [CombTriangulation._trusted(nv, outer, found[code]) for code in sorted(found)]


# -- the two recursive families --------------------------------------------

# Edges of one layer of the nested double chain construction, written in
# the role numbering of a 12 vertex block: 1,2 top corners, 3,4 bottom
# corners, 5..8 the lower interior run left to right, 9..12 the upper
# interior run left to right.  Roles 6,7,10,11 form the quadrilateral the
# next layer nests into.
_LAYER_EDGE_PATTERN: tuple[tuple[int, int], ...] = (
    (3, 5), (3, 6), (3, 7), (5, 6), (6, 7), (7, 8), (4, 7), (4, 8),
    (1, 5), (1, 9), (1, 10), (5, 9), (6, 9), (6, 10), (9, 10), (10, 11),
    (2, 10), (2, 11), (2, 12), (7, 11), (8, 11), (8, 12), (11, 12), (4, 12),
)


def _double_chain_roles(k: int, j: int) -> dict[int, int]:
    # Point labels: upper chain 0..4k+1 left to right, then lower chain
    # 4k+2..8k+3 left to right.  Layer j consumes the two outermost
    # remaining points at each end of each chain.
    return {
        1: 2 * j,
        2: 4 * k + 1 - 2 * j,
        3: 4 * k + 2 + 2 * j,
        4: 8 * k + 3 - 2 * j,
        5: 4 * k + 3 + 2 * j,
        6: 4 * k + 4 + 2 * j,
        7: 8 * k + 1 - 2 * j,
        8: 8 * k + 2 - 2 * j,
        9: 1 + 2 * j,
        10: 2 + 2 * j,
        11: 4 * k - 1 - 2 * j,
        12: 4 * k - 2 * j,
    }


def build_k_nested_double_chain(k: int) -> CombTriangulation:
    """Layered triangulation with quadrilateral outer face on 8k+4 vertices.

    Defined by its reference drawing on the balanced double chain with
    4k+2 points per chain: each layer triangulates the ring between the
    current bounding quadrilateral and the quadrilateral spanned by the
    innermost consumed pair of each chain end; the final quadrilateral is
    closed with one fixed diagonal (lower-right to upper-left corner).
    Corner vertices get degree 5, ring junction vertices degree 8, the
    rest degree 4 apart from the two diagonal endpoints.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    from .pointsets import gen_double_chain  # loaded only when used

    ps = gen_double_chain(4 * k + 2, 4 * k + 2)
    tl, tr, bl, br = 0, 4 * k + 1, 4 * k + 2, 8 * k + 3
    edges = {
        _norm_edge(tl, tr),
        _norm_edge(tl, bl),
        _norm_edge(bl, br),
        _norm_edge(tr, br),
    }
    for j in range(k):
        roles = _double_chain_roles(k, j)
        for ra, rb in _LAYER_EDGE_PATTERN:
            edges.add(_norm_edge(roles[ra], roles[rb]))
    edges.add(_norm_edge(2 * k, 6 * k + 3))
    rotations = rotations_from_drawing(ps.points, edges)
    return CombTriangulation._trusted(len(ps), tuple(ps.hull()), rotations)


def build_k_nested_regular(n: int) -> CombTriangulation:
    """Triangular layer triangulation on n vertices.

    Layer j occupies labels 3j..3j+2; consecutive layers are joined by a
    six cycle of spokes, vertex i of a layer connecting to vertices i and
    i+1 of the next.  When 3 does not divide n, the leftover one or two
    points sit inside the innermost triangle: a single point is joined to
    all three corners; of two points, the one nearer the first inner edge
    gets that edge's endpoints, the other all three corners, and they are
    joined to each other.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    from .pointsets import gen_nested_triangles  # loaded only when used

    ps = gen_nested_triangles(n)
    layers = n // 3
    edges: set[Edge] = set()
    for j in range(layers):
        b = 3 * j
        for i in range(3):
            edges.add(_norm_edge(b + i, b + (i + 1) % 3))
            if j + 1 < layers:
                edges.add(_norm_edge(b + i, b + 3 + i))
                edges.add(_norm_edge(b + i, b + 3 + (i + 1) % 3))
    a, b2, c = 3 * layers - 3, 3 * layers - 2, 3 * layers - 1
    if n % 3 == 1:
        q = n - 1
        edges |= {_norm_edge(q, a), _norm_edge(q, b2), _norm_edge(q, c)}
    elif n % 3 == 2:
        q1, q2 = n - 2, n - 1
        edges |= {
            _norm_edge(q1, a), _norm_edge(q1, b2), _norm_edge(q1, q2),
            _norm_edge(q2, a), _norm_edge(q2, b2), _norm_edge(q2, c),
        }
    rotations = rotations_from_drawing(ps.points, edges)
    return CombTriangulation._trusted(len(ps), tuple(ps.hull()), rotations)
