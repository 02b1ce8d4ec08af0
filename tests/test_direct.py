"""The direct backend against references that do not read the point-set
index, and the index tables against the public predicates."""

from itertools import combinations, permutations

import pytest

from conftest import PENTAGON, SQUARE, random_set
from redraw.comb import _norm_edge, build_k_nested_regular, from_edge_list
from redraw.drawings import (
    GeomTriangulation,
    _Index,
    count_drawings,
    enumerate_geometric_triangulations,
    is_valid_drawing,
    to_comb,
)
from redraw.geometry import Orientation, orient, segments_cross
from redraw.pointsets import PointSet, gen_double_chain, gen_nested_triangles


def brute_force_images(t, ps) -> list[frozenset]:
    """Image edge sets of every assignment `is_valid_drawing` accepts, with
    the outer face pinned to the hull and the interior points permuted in
    every way."""
    hull = ps.hull()
    asg = [-1] * t.num_vertices
    for i, v in enumerate(t.outer_face):
        asg[v] = hull[i]
    free_vertices = [v for v, p in enumerate(asg) if p < 0]
    free_points = [p for p in range(len(ps)) if p not in hull]
    images = []
    for perm in permutations(free_points):
        for v, p in zip(free_vertices, perm):
            asg[v] = p
        if is_valid_drawing(t, ps, tuple(asg)):
            images.append(frozenset(_norm_edge(asg[u], asg[v]) for u, v in t.edges()))
    return images


def assert_matches_brute_force(t, ps) -> int:
    images = brute_force_images(t, ps)
    # with the boundary pinned, distinct assignments draw distinct edge sets
    assert len(images) == len(set(images))
    count, wits = count_drawings(t, ps, witnesses=True)
    assert count == len(wits) == len(set(images))
    assert {w.edges for w in wits} == set(images)
    return count


WHEEL = from_edge_list(
    5,
    [(0, 1), (0, 2), (1, 2), (1, 3), (0, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    (1, 2, 0),
)


@pytest.mark.parametrize("seed,size", [(1, 7), (2, 7), (3, 8), (4, 8)])
def test_direct_matches_brute_force_on_random_sets(seed, size):
    ps = random_set(seed, size)
    geoms = list(enumerate_geometric_triangulations(ps))
    for g in geoms[:: max(1, len(geoms) // 6)]:
        assert assert_matches_brute_force(to_comb(g), ps) >= 1
    # the same structures on another set with the same hull size, where
    # some of them have no drawing
    other = next(
        q for q in (random_set(s, size) for s in range(seed + 100, seed + 200))
        if len(q.hull()) == len(ps.hull())
    )
    for g in geoms[:: max(1, len(geoms) // 6)]:
        assert_matches_brute_force(to_comb(g), other)


@pytest.mark.parametrize("n,drawings", [(6, 2), (9, 4)])
def test_direct_matches_brute_force_on_bands(n, drawings):
    t = build_k_nested_regular(n)
    assert assert_matches_brute_force(t, gen_nested_triangles(n)) == drawings


def test_direct_matches_brute_force_without_drawings(five_point_set):
    assert assert_matches_brute_force(WHEEL, five_point_set) == 0


def test_witnesses_include_outer_face_chords():
    square = PointSet(SQUARE)
    g = GeomTriangulation(square, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    count, wits = count_drawings(to_comb(g), square, witnesses=True)
    assert count == 1 and wits == [g]
    pentagon = PointSet(PENTAGON)
    geoms = list(enumerate_geometric_triangulations(pentagon))
    assert len(geoms) == 5
    for g in geoms:
        count, wits = count_drawings(to_comb(g), pentagon, witnesses=True)
        assert count == 1 and wits == [g]


def strictly_inside(p, a, b, c) -> bool:
    s = {orient(a, b, p), orient(b, c, p), orient(c, a, p)}
    return len(s) == 1 and Orientation.COLLINEAR not in s


@pytest.mark.parametrize(
    "ps",
    [gen_double_chain(t, l) for t, l in [(3, 3), (2, 5), (5, 5), (6, 6), (7, 7)]]
    + [gen_nested_triangles(n) for n in (12, 18)]
    + [random_set(seed, size) for seed, size in [(5, 7), (6, 9), (7, 11)]],
    ids=lambda ps: f"{len(ps)}pts",
)
def test_index_tables_match_the_public_predicates(ps):
    ix = _Index(ps.points)
    pts = ps.points
    n = len(pts)
    pairs = list(combinations(range(n), 2))
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i != j:
                assert ix.cross[i] >> j & 1 == segments_cross(pts[a], pts[b], pts[c], pts[d])
    for a in range(n):
        for b in range(n):
            for c in range(n):
                is_left = len({a, b, c}) == 3 and orient(pts[a], pts[b], pts[c]) is Orientation.CCW
                assert ix.left[a][b] >> c & 1 == is_left
    for a in range(n):
        for b in range(n):
            for c in range(n):
                empty_ccw = (
                    len({a, b, c}) == 3
                    and orient(pts[a], pts[b], pts[c]) is Orientation.CCW
                    and not any(
                        strictly_inside(pts[p], pts[a], pts[b], pts[c])
                        for p in range(n)
                        if p not in (a, b, c)
                    )
                )
                assert ix.empty[a][b] >> c & 1 == empty_ccw


@pytest.mark.parametrize(
    "ps",
    [gen_double_chain(t, l) for t, l in [(3, 3), (5, 5), (4, 7)]]
    + [gen_nested_triangles(n) for n in (9, 12)]
    + [random_set(seed, size) for seed, size in [(5, 7), (6, 9), (7, 11)]],
    ids=lambda ps: f"{len(ps)}pts",
)
def test_step_table_records_match_the_public_predicates(ps):
    ix = _Index(ps.points)
    pts = ps.points
    n = len(pts)
    pairs = list(combinations(range(n), 2))
    eid = {pair: i for i, pair in enumerate(pairs)}
    sides = {}  # side p->q: its dart, its reverse, its edge, the edge and those crossing it
    for p, q in permutations(range(n), 2):
        e = eid[_norm_edge(p, q)]
        crossing = sum(1 << j for j, (c, d) in enumerate(pairs)
                       if segments_cross(pts[p], pts[q], pts[c], pts[d]))
        sides[p, q] = (1 << p * n + q, 1 << q * n + p, 1 << e, crossing | 1 << e)
    for a in range(n):
        assert ix.step_table[a * n + a] == ()
    for a, b in permutations(range(n), 2):
        apexes = [
            c for c in range(n)
            if c not in (a, b)
            and orient(pts[a], pts[b], pts[c]) is Orientation.CCW
            and not any(strictly_inside(pts[p], pts[a], pts[b], pts[c]) for p in range(n) if p not in (a, b, c))
        ]
        assert ix.step_table[a * n + b] == tuple((c, *sides[b, c], *sides[c, a]) for c in apexes)
    # one int object per dart, per edge bit and per blocking mask, shared by the records
    shared = {id(x) for records in ix.step_table for record in records for x in record[1:]}
    assert len(shared) <= n * n + 2 * len(pairs)
