import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redraw import comb
from redraw.comb import (
    CombTriangulation,
    build_k_nested_double_chain,
    build_k_nested_regular,
    canonical_code,
    enumerate_comb_triangulations,
    from_edge_list,
    from_rotation_json,
    from_straight_line_drawing,
    rotations_from_drawing,
    tutte_count,
)
from redraw.drawings import enumerate_geometric_triangulations, to_comb
from redraw.geometry import Point
from redraw.pointsets import PointSet, gen_double_chain, gen_nested_triangles

K4_POINTS = [Point(0, 0), Point(40, 0), Point(20, 30), Point(20, 12)]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K4_ROTATIONS = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))


@pytest.fixture
def k4():
    return from_straight_line_drawing(K4_POINTS, K4_EDGES)


def test_k4_structure(k4):
    assert k4.num_vertices == 4
    assert k4.outer_face == (0, 1, 2)
    assert k4.edge_count == 6
    assert k4.faces() == [(0, 1, 3), (0, 3, 2), (1, 2, 3)]
    assert k4.degree(3) == 3
    assert k4.rotations == K4_ROTATIONS
    assert k4.edges() == frozenset((a, b) for a, b in K4_EDGES)


def test_rotations_are_counterclockwise(k4):
    # interior vertex 3 sees 2, 0, 1 in ccw order (up to rotation)
    rot = k4.rotations[3]
    i = rot.index(2)
    assert tuple(rot[(i + j) % 3] for j in range(3)) == (2, 0, 1)


def test_edge_list_route_agrees_with_drawing_route(k4):
    via_graph = from_edge_list(4, K4_EDGES, (0, 1, 2))
    assert canonical_code(via_graph) == canonical_code(k4)


def test_k4_canonical_code_frozen(k4):
    assert canonical_code(k4) == b"4 3 3 1 2 3 3 0 3 2 3 0 1 3 3 0 2 1"


# canonical_code(build_k_nested_double_chain(8)) as `" ".join(map(str,
# numbers))` writes it.  Its 68 vertices are more than `comb._TOKENS`
# holds, so the code writes numbers from outside that table.
CHAIN_PAIR_8_CODE = (
    "68 4 5 1 2 3 4 5 5 0 6 7 8 2 8 0 1 8 9 10 11 12 3 8 0 2 12 13 14 "
    "15 16 4 4 0 3 16 5 5 0 4 16 15 6 5 1 5 15 9 7 4 1 6 9 8 4 1 7 9 2 "
    "8 2 8 7 6 15 17 18 10 4 2 9 18 11 4 2 10 18 12 8 2 11 18 19 20 21 "
    "13 3 8 3 12 21 22 23 17 24 14 4 3 13 24 15 8 3 14 24 17 9 6 5 16 4 "
    "3 15 5 4 8 9 15 24 13 23 25 26 18 8 9 17 26 27 19 12 11 10 4 12 18 "
    "27 20 4 12 19 27 21 8 12 20 27 28 29 30 22 13 8 13 21 30 31 32 26 "
    "25 23 4 13 22 25 17 4 13 17 15 14 4 17 23 22 26 8 17 25 22 32 33 "
    "34 27 18 8 18 26 34 35 28 21 20 19 4 21 27 35 29 4 21 28 35 30 8 "
    "21 29 35 36 37 38 31 22 8 22 30 38 39 40 34 33 32 4 22 31 33 26 4 "
    "26 32 31 34 8 26 33 31 40 41 42 35 27 8 27 34 42 43 36 30 29 28 4 "
    "30 35 43 37 4 30 36 43 38 8 30 37 43 44 45 46 39 31 8 31 38 46 47 "
    "48 42 41 40 4 31 39 41 34 4 34 40 39 42 8 34 41 39 48 49 50 43 35 "
    "8 35 42 50 51 44 38 37 36 4 38 43 51 45 4 38 44 51 46 8 38 45 51 "
    "52 53 54 47 39 8 39 46 54 55 56 50 49 48 4 39 47 49 42 4 42 48 47 "
    "50 8 42 49 47 56 57 58 51 43 8 43 50 58 59 52 46 45 44 4 46 51 59 "
    "53 4 46 52 59 54 8 46 53 59 60 61 62 55 47 8 47 54 62 63 64 58 57 "
    "56 4 47 55 57 50 4 50 56 55 58 8 50 57 55 64 65 66 59 51 8 51 58 "
    "66 67 60 54 53 52 4 54 59 67 61 4 54 60 67 62 6 54 61 67 66 63 55 "
    "5 55 62 66 65 64 4 55 63 65 58 4 58 64 63 66 6 58 65 63 62 67 59 5 "
    "59 66 62 61 60"
).encode()


def test_canonical_code_past_the_token_table():
    t = build_k_nested_double_chain(8)
    assert t.num_vertices >= len(comb._TOKENS)
    assert canonical_code(t) == CHAIN_PAIR_8_CODE


def test_json_round_trip(k4):
    for t in (k4, build_k_nested_double_chain(1), build_k_nested_regular(8)):
        assert from_rotation_json(t.to_json()) == t


def test_validation_rejects_swapped_rotation(k4):
    rots = [list(r) for r in k4.rotations]
    rots[3][0], rots[3][1] = rots[3][1], rots[3][0]
    with pytest.raises(ValueError):
        CombTriangulation(4, (0, 1, 2), tuple(tuple(r) for r in rots))


def test_validation_rejects_wrong_edge_count():
    # drop edge (0, 3) reciprocally: only 5 edges remain
    rots = ((1, 2), (2, 3, 0), (0, 3, 1), (2, 1))
    with pytest.raises(ValueError, match="edge count"):
        CombTriangulation(4, (0, 1, 2), rots)


def test_validation_rejects_loop():
    rots = ((1, 0, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))
    with pytest.raises(ValueError, match="loop"):
        CombTriangulation(4, (0, 1, 2), rots)


def test_validation_rejects_non_reciprocal_darts(k4):
    rots = [list(r) for r in k4.rotations]
    rots[0] = [1, 2, 2]  # 0 no longer lists 3; multi-edge and reciprocity break
    with pytest.raises(ValueError):
        CombTriangulation(4, (0, 1, 2), tuple(tuple(r) for r in rots))


def test_validation_rejects_reversed_outer_face(k4):
    with pytest.raises(ValueError, match="outer face"):
        CombTriangulation(4, (0, 2, 1), k4.rotations)


TWO_TRIANGLES = ((1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4))


@pytest.mark.parametrize("n,outer,rots,message", [
    (2, (0, 1), ((1,), (0,)), "need at least 3 vertices"),
    (4, (0, 1, 2), K4_ROTATIONS[:3], "rotation list length differs"),
    (4, (0, 1), K4_ROTATIONS, "outer face needs at least 3 vertices"),
    (4, (0, 1, 1), K4_ROTATIONS, "outer face repeats a vertex"),
    (4, (0, 1, 4), K4_ROTATIONS, "outer face label out of range"),
    (4, (0, 1, 2), ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2,)), "vertex 3 has fewer than 2"),
    (4, (0, 1, 2), ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 4)), "out of range at vertex 3"),
    (4, (0, 1, 2), ((1, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1)), "dart 3->0 has no reciprocal"),
    (6, (0, 1, 2), TWO_TRIANGLES, "graph is not connected"),
])
def test_validation_names_each_structural_fault(n, outer, rots, message):
    with pytest.raises(ValueError, match=message):
        CombTriangulation(n, outer, rots)


@pytest.mark.parametrize("bad", [0.5, "3"])
def test_every_route_rejects_labels_and_coordinates_that_are_not_integers(bad):
    # int() would read "3" as 3, and 0.5 as 0
    for n, outer, rotations in ((bad, (0, 1, 2), K4_ROTATIONS),
                                (4, (0, 1, bad), K4_ROTATIONS),
                                (4, (0, 1, 2), K4_ROTATIONS[:3] + ((2, bad, 1),))):
        with pytest.raises(ValueError, match="not an integer"):
            CombTriangulation(n, outer, rotations)
        text = json.dumps({"num_vertices": n, "outer_face": outer, "rotations": rotations})
        with pytest.raises(ValueError, match="not an integer"):
            from_rotation_json(text)
    points = K4_POINTS[:3] + [(20, bad)]
    edges = K4_EDGES[:-1] + [(2, bad)]
    for pts, es in ((points, K4_EDGES), (K4_POINTS, edges)):
        with pytest.raises(ValueError, match="not an integer"):
            from_straight_line_drawing(pts, es)
    with pytest.raises(ValueError, match="not an integer"):
        rotations_from_drawing(points, K4_EDGES)


def test_straight_line_route_rejects_missing_hull_edge():
    pts = [Point(30, 50), Point(0, 0), Point(60, 0), Point(25, 20), Point(35, 20)]
    edges = [e for e in itertools.combinations(range(5), 2) if e != (1, 2)]
    with pytest.raises(ValueError, match="hull edge"):
        from_straight_line_drawing(pts, edges)


def test_straight_line_route_rejects_crossings():
    pts = [Point(0, 10), Point(20, 0), Point(40, 12), Point(33, 40), Point(7, 38)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)]
    with pytest.raises(ValueError, match="cross"):
        from_straight_line_drawing(pts, edges)


def test_straight_line_route_rejects_collinear_points():
    pts = [Point(0, 0), Point(10, 10), Point(20, 20), Point(0, 20)]
    with pytest.raises(ValueError, match="general position"):
        from_straight_line_drawing(pts, K4_EDGES)


def test_straight_line_route_rejects_wrong_edge_count():
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    with pytest.raises(ValueError, match="edge count"):
        from_straight_line_drawing(K4_POINTS, edges)


@pytest.mark.parametrize("edges,outer,message", [
    (K4_EDGES[:-1] + [(2, 4)], (0, 1, 2), "bad vertex label"),
    (K4_EDGES, (0, 1, 4), "bad vertex label"),
    (K4_EDGES[:-1], (0, 1, 2), "no orientation matches the outer face: edge count 5"),
])
def test_edge_list_route_rejects_bad_labels_and_edge_counts(edges, outer, message):
    with pytest.raises(ValueError, match=message):
        from_edge_list(4, edges, outer)


def test_edge_list_route_rejects_non_planar_input():
    k5 = list(itertools.combinations(range(5), 2))
    with pytest.raises(ValueError, match="not planar"):
        from_edge_list(5, k5, (0, 1, 2))


def test_edge_list_route_rejects_impossible_outer_face():
    octa = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
            (0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (2, 3)]
    with pytest.raises(ValueError, match="no orientation matches"):
        from_edge_list(6, octa, (0, 3, 1))


def test_edge_list_route_rejects_k33_plus_a_triangle():
    k33 = [(a, b) for a in range(3) for b in range(3, 6)] + [(0, 1), (1, 2), (0, 2)]
    assert len(k33) == 3 * 6 - 6  # the edge count of a triangulation
    with pytest.raises(ValueError, match="not planar"):
        from_edge_list(6, k33, (0, 3, 1))
    with pytest.raises(ValueError):
        from_edge_list(6, k33, (0, 1, 2))


def _assert_edge_list_round_trip(t):
    u = from_edge_list(t.num_vertices, t.edges(), t.outer_face)
    assert u.outer_face == t.outer_face
    assert all(comb._cyclic_eq(a, b) for a, b in zip(u.rotations, t.rotations))
    assert canonical_code(u) == canonical_code(t)


@pytest.mark.parametrize("n", range(5))
def test_edge_list_route_gives_back_every_enumerated_structure(n):
    for t in enumerate_comb_triangulations(n):
        _assert_edge_list_round_trip(t)


def test_edge_list_route_gives_back_drawn_triangulations():
    sets = [
        gen_nested_triangles(8),
        gen_double_chain(3, 4),
        PointSet(((0, 0), (40, -10), (60, 20), (30, 50), (-10, 30), (20, 15), (28, 22))),
        PointSet(((0, 0), (30, -10), (60, 0), (70, 30), (30, 50), (-10, 30), (25, 17))),
        PointSet(tuple((i, i * i + 3) for i in range(7))),
    ]
    hulls = set()
    for ps in sets:
        for g in enumerate_geometric_triangulations(ps):
            t = to_comb(g)
            hulls.add(len(t.outer_face))
            _assert_edge_list_round_trip(t)
    assert hulls == {3, 4, 5, 6, 7}
    for t in (build_k_nested_double_chain(2), build_k_nested_regular(11)):
        _assert_edge_list_round_trip(t)


def test_tutte_counts():
    assert [tutte_count(n) for n in (1, 2, 3, 4)] == [1, 3, 13, 68]
    assert tutte_count(10) == 2 * math.comb(41, 9) // 110
    with pytest.raises(ValueError):
        tutte_count(0)
    with pytest.raises(ValueError):
        tutte_count(-3)


def test_enumeration_matches_closed_form_counts():
    assert [len(enumerate_comb_triangulations(n)) for n in range(4)] == [1, 1, 3, 13]


def test_enumeration_is_canonical_and_sorted():
    out = enumerate_comb_triangulations(2)
    codes = [canonical_code(t) for t in out]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    for t in out:
        assert t.outer_face == (0, 1, 2)
        assert t.num_vertices == 5
        assert t.edge_count == 9


def _edge_subset_enumeration(n):
    """Reference: every edge subset of the right size that embeds with
    outer face (0,1,2), deduplicated by canonical code, sorted by code."""
    nv = n + 3
    base = [(0, 1), (0, 2), (1, 2)]
    rest = [e for e in itertools.combinations(range(nv), 2) if e not in base]
    found = {}
    for extra in itertools.combinations(rest, 3 * nv - 9):
        edges = base + list(extra)
        deg = [0] * nv
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if nv > 3 and min(deg) < 3:
            continue
        try:
            t = from_edge_list(nv, edges, (0, 1, 2))
        except ValueError:
            continue
        found.setdefault(canonical_code(t), t)
    return [t for _, t in sorted(found.items())]


@pytest.mark.parametrize("n", range(4))
def test_insertion_matches_edge_subset_reference(n):
    out = enumerate_comb_triangulations(n)
    ref = _edge_subset_enumeration(n)
    assert [canonical_code(t) for t in out] == [canonical_code(t) for t in ref]
    for t in out:
        assert t.outer_face == (0, 1, 2)
        assert t.edge_count == 3 * (n + 3) - 6


def test_insertion_reaches_tutte_count_past_the_guard(monkeypatch):
    monkeypatch.setattr(comb, "ENUM_INTERIOR_GUARD", 5)
    out = enumerate_comb_triangulations(5)
    assert len({canonical_code(t) for t in out}) == tutte_count(5) == 399
    for t in out:
        assert t.outer_face == (0, 1, 2)
        assert t.edge_count == 3 * 8 - 6


def test_flip_swaps_the_diagonal_of_two_faces():
    outcomes = set()
    for n in range(4):
        for t in enumerate_comb_triangulations(n):
            rots, edges = t.rotations, t.edges()
            for u, v in sorted(edges):
                if v < 3:  # an outer edge
                    continue
                w = rots[v][rots[v].index(u) - 1]
                x = rots[u][rots[u].index(v) - 1]
                wx = comb._norm_edge(w, x)
                flipped = comb._flip(rots, u, v)
                outcomes.add(flipped is None)
                assert (flipped is None) == (wx in edges)
                if flipped is None:
                    continue
                s = CombTriangulation(t.num_vertices, t.outer_face, flipped)
                assert s.edges() == edges - {(u, v)} | {wx}
                back = comb._flip(flipped, *wx)
                assert all(comb._cyclic_eq(a, b) for a, b in zip(back, rots))
    assert outcomes == {True, False}


def test_enumeration_guard_and_cap():
    with pytest.raises(ValueError, match="guard"):
        enumerate_comb_triangulations(5)
    with pytest.raises(RuntimeError, match="cap"):
        enumerate_comb_triangulations(3, cap=5)


def test_canonical_code_is_relabeling_invariant():
    t = build_k_nested_regular(7)
    perm = {0: 0, 1: 1, 2: 2, 3: 4, 4: 5, 5: 6, 6: 3}
    rots = [None] * t.num_vertices
    for v, rot in enumerate(t.rotations):
        rots[perm[v]] = tuple(perm[u] for u in rot)
    relabeled = CombTriangulation(t.num_vertices, t.outer_face, tuple(rots))
    assert relabeled != t
    assert canonical_code(relabeled) == canonical_code(t)


def test_cap_stops_the_search_early(monkeypatch):
    calls = []
    code = comb._code_from_rotations
    monkeypatch.setattr(comb, "_code_from_rotations", lambda *a: calls.append(a) or code(*a))
    with pytest.raises(RuntimeError, match="cap=5"):
        enumerate_comb_triangulations(4, cap=5)
    assert len(calls) <= (5 + 1) * 3 * 4  # 3n flips for each structure found


@given(st.integers(0, 3))
def test_enumeration_codes_are_pairwise_distinct(n):
    codes = {canonical_code(t) for t in enumerate_comb_triangulations(n)}
    assert len(codes) == (1 if n == 0 else tutte_count(n))


def test_chain_pair_builder_small():
    t = build_k_nested_double_chain(1)
    assert t.num_vertices == 12
    assert t.edge_count == 29
    assert t.outer_face == (6, 11, 5, 0)
    degs = sorted(t.degree(v) for v in range(12))
    assert degs == [4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6]


def test_chain_pair_builder_two_rings():
    t = build_k_nested_double_chain(2)
    assert t.num_vertices == 20
    assert t.edge_count == 53
    hist = {}
    for v in range(20):
        hist[t.degree(v)] = hist.get(t.degree(v), 0) + 1
    assert hist == {4: 8, 5: 6, 6: 2, 8: 4}


@given(st.integers(1, 4))
def test_chain_pair_builder_size_formula(k):
    t = build_k_nested_double_chain(k)
    assert t.num_vertices == 8 * k + 4
    assert t.edge_count == 24 * k + 5
    assert len(t.outer_face) == 4


def test_chain_pair_builder_rejects_zero():
    with pytest.raises(ValueError):
        build_k_nested_double_chain(0)


def test_band_builder_all_degree_four_at_six():
    t = build_k_nested_regular(6)
    assert [t.degree(v) for v in range(6)] == [4] * 6


@given(st.integers(3, 12))
def test_band_builder_valid_all_sizes(n):
    t = build_k_nested_regular(n)
    assert t.num_vertices == n
    assert t.edge_count == 3 * n - 6
    assert t.outer_face == (0, 1, 2)


def test_band_builder_outer_peel_recursion():
    # removing the outermost three vertices leaves the next instance
    for n in range(9, 13):
        big = build_k_nested_regular(n)
        small = build_k_nested_regular(n - 3)
        peeled = {
            (a - 3, b - 3)
            for (a, b) in big.edges()
            if a >= 3 and b >= 3
        }
        assert peeled == set(small.edges())


def test_band_builder_rejects_tiny():
    with pytest.raises(ValueError):
        build_k_nested_regular(2)


def test_builders_and_enumeration_pass_every_check(monkeypatch):
    # Neither the builders nor the enumeration validate what they return;
    # this is their certificate.  A builder's structure is the one that its
    # reference drawing gives through every check of the straight line route.
    for k in range(1, 7):
        t, ps = build_k_nested_double_chain(k), gen_double_chain(4 * k + 2, 4 * k + 2)
        assert from_straight_line_drawing(ps.points, t.edges()) == t
    for n in range(3, 25):
        t = build_k_nested_regular(n)
        assert from_straight_line_drawing(gen_nested_triangles(n).points, t.edges()) == t
    for n in range(5):
        for t in enumerate_comb_triangulations(n):
            assert CombTriangulation(t.num_vertices, t.outer_face, t.rotations) == t
    # a layer pattern short of one edge fails the certificate
    monkeypatch.setattr(comb, "_LAYER_EDGE_PATTERN", comb._LAYER_EDGE_PATTERN[1:])
    t = build_k_nested_double_chain(1)
    with pytest.raises(ValueError, match="edge count"):
        from_straight_line_drawing(gen_double_chain(6, 6).points, t.edges())


def _orbits(t):
    """The faces of t as cycles of darts, each from its lowest dart: the
    face left of u->v continues along v->w, w before u around v.  This
    walk is the reference for `faces` and `_validate`, which read the
    faces off the rotations instead."""
    nxt = {}
    for v, rot in enumerate(t.rotations):
        for i, u in enumerate(rot):
            nxt[(u, v)] = (v, rot[i - 1])
    seen = set()
    orbits = []
    for start in sorted(nxt):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        d = nxt[start]
        while d != start:
            assert d not in seen, "face walk revisits a dart"
            seen.add(d)
            cyc.append(d)
            d = nxt[d]
        orbits.append(cyc)
    return orbits


def test_faces_are_the_triangular_face_orbits():
    # faces() reads each face off the rotation of its lowest vertex; the
    # dart walk of `_orbits` is the reference.
    heptagon = [Point(i, i * i) for i in range(7)]
    fan = [(i, i + 1) for i in range(6)] + [(0, k) for k in range(2, 7)]
    structures = [t for n in range(5) for t in enumerate_comb_triangulations(n)]
    structures += [build_k_nested_double_chain(k) for k in (1, 2)]
    structures += [build_k_nested_regular(n) for n in range(3, 13)]
    structures.append(from_straight_line_drawing(heptagon, fan))
    for t in structures:
        outer_dart = (t.outer_face[1], t.outer_face[0])
        ref = []
        for orbit in _orbits(t):
            if outer_dart not in orbit:
                tri = [d[0] for d in orbit]
                i = tri.index(min(tri))
                ref.append(tuple(tri[i:] + tri[:i]))
        assert t.faces() == sorted(ref)


FACE_ERRORS = ("designated outer face is not a face", "internal face is not a triangle")


def _face_walk_accepts(t):
    """The face checks of validation by dart walk: the orbit of
    outer_face[1]->outer_face[0] walks the outer face backwards, and
    every other orbit is a triangle."""
    outer = t.outer_face
    outer_dart = (outer[1], outer[0])
    orbits = _orbits(t)
    assert any(outer_dart in orbit for orbit in orbits), "outer face dart missing"
    for orbit in orbits:
        verts = [d[0] for d in orbit]
        if outer_dart in orbit:
            if not comb._cyclic_eq(verts, outer[::-1]):
                return False
        elif len(verts) != 3 or len(set(verts)) != 3:
            return False
    assert t.num_vertices - t.edge_count + len(orbits) == 2, "Euler check failed"
    return True


def _perturbed(rng, t):
    """The outer face and rotations of t after one or two random edits."""
    n = t.num_vertices
    outer = list(t.outer_face)
    rots = [list(r) for r in t.rotations]
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(5)
        r = rng.choice(rots)
        if kind == 0 and len(r) >= 2:  # swap two neighbours
            i, j = rng.sample(range(len(r)), 2)
            r[i], r[j] = r[j], r[i]
        elif kind == 1:  # reverse a run of neighbours
            i, j = sorted(rng.sample(range(len(r) + 1), 2))
            r[i:j] = r[i:j][::-1]
        elif kind == 2:  # start the outer face elsewhere
            k = rng.randrange(len(outer))
            outer = outer[k:] + outer[:k]
        elif kind == 3:
            outer.reverse()
        elif kind == 4:  # rewire an edge a-b as c-d, at random places
            a = rng.randrange(n)
            b = rng.choice(rots[a])
            c, d = rng.sample(range(n), 2)
            if d not in rots[c]:
                rots[a].remove(b)
                rots[b].remove(a)
                rots[c].insert(rng.randrange(len(rots[c]) + 1), d)
                rots[d].insert(rng.randrange(len(rots[d]) + 1), c)
    return tuple(outer), tuple(tuple(r) for r in rots)


def test_validation_accepts_what_the_face_walk_accepts():
    rng = random.Random(2024)
    bases = [t for n in range(5) for t in enumerate_comb_triangulations(n)]
    bases += [build_k_nested_double_chain(1)] + [build_k_nested_regular(n) for n in (9, 10, 11)]
    verdicts = Counter()
    for t in bases:
        for _ in range(60):
            outer, rots = _perturbed(rng, t)
            try:
                CombTriangulation(t.num_vertices, outer, rots)
                accepted = True
            except ValueError as exc:
                if str(exc) not in FACE_ERRORS:  # a check both validations share
                    verdicts["before the faces"] += 1
                    continue
                accepted = False
            walk = _face_walk_accepts(CombTriangulation._trusted(t.num_vertices, outer, rots))
            assert accepted == walk, (outer, rots)
            verdicts[accepted] += 1
    assert verdicts[True] > 500 and verdicts[False] > 1000
