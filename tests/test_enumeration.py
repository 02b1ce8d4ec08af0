"""Enumeration and counting of geometric triangulations against a
reference that reads no point-set index table, every maximal crossing-free
set of segments found with `segments_cross` alone, and the count against
the closed form on double chains."""

from itertools import combinations
from math import comb

import pytest

from conftest import random_set
import redraw.drawings as drawings
from redraw.drawings import (
    _Index,
    count_geometric_triangulations,
    enumerate_geometric_triangulations,
    to_comb,
)
from redraw.geometry import segments_cross
from redraw.pointsets import PointSet, gen_double_chain, gen_nested_triangles


def maximal_plane_graphs(ps: PointSet) -> list[frozenset]:
    """Every maximal crossing-free segment set on ps.  Segments that cross
    nothing chosen are decided in lexicographic order, in or out; one left
    out must be crossed by a segment chosen later, so each set is reached
    once, along the sequence of its own decisions."""
    pts = ps.points
    pairs = list(combinations(range(len(pts)), 2))
    crossers = {
        (a, b): {(c, d) for c, d in pairs if segments_cross(pts[a], pts[b], pts[c], pts[d])}
        for a, b in pairs
    }
    found = []

    def walk(chosen: frozenset, left_out: frozenset) -> None:
        free = [e for e in pairs if e not in chosen | left_out and not crossers[e] & chosen]
        if any(not crossers[e] & (chosen | set(free)) for e in left_out):
            return  # nothing can cross a segment left out any more
        if not free:
            found.append(chosen)
            return
        walk(chosen | {free[0]}, left_out)
        walk(chosen, left_out | {free[0]})

    walk(frozenset(), frozenset())
    return found


def convex(n: int) -> PointSet:
    return PointSet(tuple((i, i * i) for i in range(n)))


SETS = (
    [convex(n) for n in range(4, 9)]
    + [gen_double_chain(t, l) for t, l in [(2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (4, 5), (2, 7)]]
    + [gen_nested_triangles(n) for n in range(6, 10)]
    + [random_set(seed, size) for seed, size in [(11, 7), (12, 8), (13, 8), (14, 9), (15, 9)]]
)


@pytest.mark.parametrize("ps", SETS, ids=lambda ps: f"{len(ps)}pts")
def test_enumeration_matches_maximal_plane_graphs(ps):
    reference = sorted(sorted(s) for s in maximal_plane_graphs(ps))
    enumerated = sorted(sorted(g.edges) for g in enumerate_geometric_triangulations(ps))
    assert enumerated == reference
    count = len(reference)
    assert count_geometric_triangulations(ps, cap=count) == count
    with pytest.raises(RuntimeError, match=f"more than cap={count - 1} triangulations"):
        count_geometric_triangulations(ps, cap=count - 1)
    # on an index of its own, so that the search runs here: each
    # triangulation is found once, and the cap is exact
    ix = _Index(ps.points)
    with pytest.raises(RuntimeError, match=f"more than cap={count - 1} triangulations"):
        list(drawings._triangulations(ix, cap=count - 1))
    masks = list(drawings._triangulations(ix, cap=count))
    assert len(masks) == len(set(masks)) == count
    # the public order is the masks' order
    public = enumerate_geometric_triangulations(ps)
    assert [sum(1 << ix.eidm[a][b] for a, b in g.edges) for g in public] == sorted(masks)
    with pytest.raises(RuntimeError, match=f"more than cap={count - 1} triangulations"):
        list(drawings._triangulations(ix, cap=count - 1))  # searched again: the index keeps no masks


@pytest.mark.parametrize(
    "ps", [convex(10), gen_double_chain(5, 5), gen_nested_triangles(9)], ids=lambda ps: f"{len(ps)}pts"
)
def test_every_state_of_the_search_completes(monkeypatch, ps):
    # A triangle that crosses nothing drawn leaves an unclaimed region that
    # can still be triangulated, so the crossing test prunes exactly.
    dead = []
    steps = drawings._steps

    def spy(ix, opened, mask):
        below = steps(ix, opened, mask)
        if not below:
            dead.append((opened, mask))
        return below

    monkeypatch.setattr(drawings, "_steps", spy)
    assert len(list(drawings._triangulations(_Index(ps.points)))) > 0
    assert not dead


def children(ix: _Index, opened: int, mask: int) -> list[tuple[int, int]]:
    """The states one step below (opened, mask), which has an open edge."""
    return [(o, mask | new) for o, new, _ in drawings._steps(ix, opened, mask)]


def plain_search(ix: _Index, start: tuple[int, int], bound: list[int] | None = None):
    """The stack search of `_triangulations` without its memo: every state
    asks `_steps` for its children, and with a bound a child is dropped
    when any point has more than its bound of edges."""
    stack = [start]
    while stack:
        opened, mask = stack.pop()
        if not opened:
            yield mask
            continue
        for o, m in children(ix, opened, mask):
            if bound is None or within(ix, m, bound):
                stack.append((o, m))


def within(ix: _Index, mask: int, bound: list[int]) -> bool:
    return all((mask & ix.incident[p]).bit_count() <= bound[p] for p in range(ix.n))


DIFFERENTIAL_SETS = (
    [convex(10), gen_nested_triangles(9)]
    + [gen_double_chain(t, l) for t, l in [(3, 3), (3, 5), (4, 4), (4, 6), (5, 5), (5, 6)]]
    + [random_set(seed, size) for seed, size in [(21, 8), (22, 9), (23, 10), (24, 10)]]
)


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: f"{len(ps)}pts")
def test_memoized_search_yields_the_plain_search_sequence(monkeypatch, ps):
    ix = _Index(ps.points)
    root = drawings._root(ix)
    expanded = []
    steps = drawings._steps

    def spy(ix, opened, mask):
        expanded.append(opened)
        return steps(ix, opened, mask)

    monkeypatch.setattr(drawings, "_steps", spy)
    masks = list(drawings._triangulations(ix))
    monkeypatch.undo()
    assert masks == list(plain_search(ix, root))
    assert len(expanded) == len(set(expanded))  # one `_steps` call per open set
    # from the states two steps below the root, alone and all in one search
    states = [s for o, m in children(ix, *root) for s in (children(ix, o, m) if o else [(o, m)])]
    assert len(states) > 1
    below = [list(plain_search(ix, s)) for s in states]
    for state, expected in zip(states, below):
        assert list(drawings._triangulations(ix, state)) == expected
    assert list(drawings._triangulations(ix, *states)) == [m for part in below for m in part]


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: f"{len(ps)}pts")
def test_degree_walk_yields_the_plain_search_leaves_with_the_degrees(monkeypatch, ps):
    ix = _Index(ps.points)
    root = drawings._root(ix)
    masks = list(plain_search(ix, root))
    opened = []
    steps = drawings._steps

    def spy(ix, o, mask):
        opened.append(o)
        return steps(ix, o, mask)

    monkeypatch.setattr(drawings, "_steps", spy)
    list(drawings._triangulations(ix))
    every_open_set = len(opened)
    geoms = list(enumerate_geometric_triangulations(ps))
    for g in (geoms[0], geoms[len(geoms) // 2], geoms[-1]):
        t = to_comb(g)  # labelled by the points, outer face on the hull
        hull_deg = [t.degree(v) for v in t.outer_face]
        deg_ms = sorted(len(r) for r in t.rotations)
        # the reference: a plain search bounded by t's degrees (the hull
        # vertex's on the hull, the largest elsewhere), leaves filtered
        bound = [deg_ms[-1]] * ix.n
        for p, d in zip(ix.hull, hull_deg):
            bound[p] = d

        def has_the_degrees(mask):
            degs = [(mask & ix.incident[p]).bit_count() for p in range(ix.n)]
            return [degs[p] for p in ix.hull] == hull_deg and sorted(degs) == deg_ms

        expected = [m for m in masks if has_the_degrees(m)]
        assert [m for m in plain_search(ix, root, bound) if has_the_degrees(m)] == expected
        opened.clear()
        walked = list(drawings._degree_walk(ix, t))
        assert walked == expected
        assert sum(1 << ix.eidm[a][b] for a, b in g.edges) in walked
        assert len(opened) == len(set(opened)) < every_open_set  # pruned, memoized


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS, ids=lambda ps: f"{len(ps)}pts")
def test_count_expands_each_open_set_of_the_search_once(monkeypatch, ps):
    expanded = []
    steps = drawings._steps

    def spy(ix, opened, mask):
        expanded.append(opened)
        return steps(ix, opened, mask)

    monkeypatch.setattr(drawings, "_steps", spy)
    count = count_geometric_triangulations(ps)
    counted = sorted(expanded)
    expanded.clear()
    assert len(list(drawings._triangulations(_Index(ps.points)))) == count
    assert counted == sorted(expanded)


@pytest.mark.parametrize("ps", DIFFERENTIAL_SETS[:4], ids=lambda ps: f"{len(ps)}pts")
def test_steps_record_the_open_set_the_new_edges_and_the_apex(ps):
    ix = _Index(ps.points)
    n = ix.n
    darts = [sum(1 << p * n + q | 1 << q * n + p for q in range(n)) for p in range(n)]
    ends = [0] * n
    for a, b in ix.pairs:
        ends[a] |= 1 << ix.eidm[a][b]
        ends[b] |= 1 << ix.eidm[a][b]
    seen = set()
    stack = [(*drawings._root(ix), 0)]
    while stack:
        opened, mask, done = stack.pop()
        if not opened or opened in seen:
            continue
        seen.add(opened)
        a, b = divmod((opened & -opened).bit_length() - 1, n)
        for o, new, c in drawings._steps(ix, opened, mask):
            # the apex is the one point besides a and b whose darts changed
            assert [p for p in range(n) if p not in (a, b) and (opened ^ o) & darts[p]] == [c]
            # the new edges are the sides of abc not drawn yet
            assert not new & mask
            assert new == sum(1 << e for e in (ix.eidm[b][c], ix.eidm[c][a]) if not mask >> e & 1)
            # a point left without open darts has its final degree: no later step draws at it
            assert not any(done >> p & 1 and new & ends[p] for p in range(n))
            closed = sum(1 << p for p in range(n) if opened & darts[p] and not o & darts[p])
            stack.append((o, mask | new, done | closed))
    assert len(seen) > 10


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


@pytest.mark.parametrize("t, l", [(t, l) for t in range(2, 11) for l in range(t, 11)] + [(12, 12)])
def test_count_follows_the_double_chain_closed_form(t, l):
    # The forced cycle splits the hull into two convex polygons, one per
    # chain with its hull edge, and the region between the chains, which
    # triangulates like a lattice path (Garcia, Noy and Tejel, CGTA 2000).
    expected = catalan(t - 2) * catalan(l - 2) * comb(t + l - 2, t - 1)
    assert count_geometric_triangulations(gen_double_chain(t, l), max_n=24) == expected
