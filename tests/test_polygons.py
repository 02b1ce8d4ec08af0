"""Polygonalization counts against a reference that reads no point-set
index table: every cyclic order of the points, checked with
`segments_cross` alone."""

from itertools import permutations

import pytest

from conftest import random_set
from redraw.drawings import count_polygonalizations
from redraw.geometry import segments_cross
from redraw.pointsets import PointSet, gen_double_chain, gen_nested_triangles


def polygons_by_permutation(ps: PointSet) -> int:
    """Simple polygons through every point of ps.  A cycle starts at point
    0 and is walked in the one direction whose first step is to a lower
    point than its last; it is simple iff no two non-adjacent sides cross
    (general position rules out any other contact)."""
    pts = ps.points
    n = len(pts)
    count = 0
    for order in permutations(range(1, n)):
        if order[0] > order[-1]:
            continue
        cycle = (0, *order)
        sides = [(pts[cycle[i]], pts[cycle[(i + 1) % n]]) for i in range(n)]
        if not any(
            segments_cross(*sides[i], *sides[j])
            for i in range(n)
            for j in range(i + 2, n if i else n - 1)
        ):
            count += 1
    return count


SETS = (
    [PointSet(tuple((i, i * i) for i in range(n))) for n in range(4, 9)]
    + [gen_double_chain(t, l) for t, l in [(3, 3), (4, 4), (3, 5)]]
    + [gen_nested_triangles(n) for n in range(6, 10)]
    + [random_set(seed, size) for seed in (21, 22, 23, 24) for size in (6, 7, 8)]
)


@pytest.mark.parametrize("ps", SETS, ids=lambda ps: f"{len(ps)}pts")
def test_polygon_search_matches_permutations(ps):
    reference = polygons_by_permutation(ps)
    assert count_polygonalizations(ps, jobs=1) == reference
    assert count_polygonalizations(ps, jobs=2) == reference
