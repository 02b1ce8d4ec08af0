"""Polygonalization counts against a reference that reads no point-set
index table: every cyclic order of the points, checked with
`segments_cross` alone."""

from itertools import permutations

import pytest

from conftest import random_set
from redraw.drawings import _index_for, count_polygonalizations
import redraw.drawings as drawings
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


class CountingRows(list):
    """`dart_cross` rows that count how often the search reads them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_cap_stops_the_search_early(monkeypatch):
    ps = gen_double_chain(6, 6)
    ix = _index_for(ps)
    rows = CountingRows(ix.dart_cross)
    monkeypatch.setattr(ix, "dart_cross", rows)
    with pytest.raises(RuntimeError, match="more than cap=10 polygonalizations"):
        count_polygonalizations(ps, cap=10)
    capped, rows.reads = rows.reads, 0
    assert count_polygonalizations(ps) == 33094
    assert capped < 1000 and rows.reads > 100_000  # 240 and 867,090 reads


def test_cap_in_workers_and_on_the_total():
    # 3+3 has 13 polygons: 7, 5 and 1 leave point 0 towards points 1, 2, 3
    ps = gen_double_chain(3, 3)
    with pytest.raises(RuntimeError, match="more than cap=7 polygonalizations"):
        count_polygonalizations(ps, cap=7, jobs=2)  # caught by the total
    with pytest.raises(RuntimeError, match="more than cap=6 polygonalizations"):
        count_polygonalizations(ps, cap=6, jobs=2)  # raised in a worker
    with pytest.raises(RuntimeError, match="more than cap=7 polygonalizations"):
        count_polygonalizations(ps, cap=7)  # by the total, as with jobs=2
    assert count_polygonalizations(ps, cap=13, jobs=2) == 13
    assert count_polygonalizations(ps, cap=13) == 13


def test_the_cap_has_one_rule_in_this_process_and_in_workers(monkeypatch):
    # the searches from point 0 on 3+3 count 7, 5 and 1, so caps 5..13
    # stop the first search, or only the total, or nothing
    monkeypatch.setattr(drawings.os, "cpu_count", lambda: 2)
    ps = gen_double_chain(3, 3)

    def outcome(cap: int, jobs: int) -> int | str:
        try:
            return count_polygonalizations(ps, cap=cap, jobs=jobs)
        except RuntimeError as error:
            return str(error)

    for cap in range(5, 14):
        expected = 13 if cap == 13 else f"more than cap={cap} polygonalizations"
        assert outcome(cap, 1) == outcome(cap, 2) == expected
