import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redraw.geometry import Point
from redraw.pointsets import (
    DoubleChain,
    NestedTriangles,
    PointSet,
    gen_double_chain,
    gen_nested_triangles,
    validate_double_chain,
    validate_nested_triangles,
)


def test_point_set_rejects_collinear_triples():
    with pytest.raises(ValueError, match="general position"):
        PointSet(((0, 0), (1, 1), (2, 2), (5, 0)))


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError, match="general position"):
        PointSet(((0, 0), (1, 2), (0, 0)))


def test_point_set_coerces_tuples_to_points():
    ps = PointSet(((0, 0), (4, 1), (1, 5)))
    assert all(isinstance(p, Point) for p in ps.points)
    assert len(ps) == 3


@pytest.mark.parametrize("bad", [0.5, "3"])
def test_point_set_rejects_coordinates_that_are_not_integers(bad):
    # int() would move (0.5, 0) to (0, 0) and read "3" as 3
    with pytest.raises(ValueError, match="not an integer"):
        PointSet(((bad, 0), (10, 1), (0, 10)))
    blob = {"points": [[0, 0], [10, bad], [0, 10]], "family": None}
    with pytest.raises(ValueError, match="not an integer"):
        PointSet.from_json(json.dumps(blob))
    for family in ({"double_chain": [bad, 2]}, {"nested_triangles": bad}):
        blob = {"points": [[0, 0], [10, 1], [0, 10]], "family": family}
        with pytest.raises(ValueError, match="not an integer"):
            PointSet.from_json(json.dumps(blob))


def test_double_chain_shape():
    ps = gen_double_chain(4, 4)
    assert len(ps) == 8
    assert ps.family == DoubleChain(4, 4)
    # upper chain first, left to right, then lower chain
    xs_up = [p.x for p in ps.points[:4]]
    xs_lo = [p.x for p in ps.points[4:]]
    assert xs_up == sorted(xs_up) and xs_lo == sorted(xs_lo)
    assert all(p.y > 0 for p in ps.points[:4])
    assert all(p.y < 0 for p in ps.points[4:])


def test_double_chain_hull_is_the_four_extremes():
    t, l = 5, 3
    ps = gen_double_chain(t, l)
    assert set(ps.hull()) == {0, t - 1, t, t + l - 1}
    assert len(ps.hull()) == 4


def test_double_chain_degenerate_sides():
    # one side may have a single point; hull drops to a triangle
    ps = gen_double_chain(1, 4)
    assert len(ps.hull()) == 3
    with pytest.raises(ValueError):
        gen_double_chain(1, 1)
    with pytest.raises(ValueError):
        gen_double_chain(0, 5)


def test_validate_double_chain_rejects_tampering():
    ps = gen_double_chain(3, 3)
    pts = list(ps.points)
    # break left-to-right order on the upper chain
    pts[0], pts[1] = pts[1], pts[0]
    assert not validate_double_chain(PointSet(tuple(pts)), 3, 3)
    assert validate_double_chain(ps, 3, 3)
    assert not validate_double_chain(ps, 2, 4)


def test_tagged_family_is_checked_on_construction():
    with pytest.raises(ValueError, match="double chain"):
        PointSet(((0, 0), (10, 1), (3, 9), (7, 9)), family=DoubleChain(2, 2))
    with pytest.raises(ValueError, match="nested"):
        # a convex quad cannot be one triangular layer plus a leftover
        PointSet(((0, 0), (10, 1), (11, 12), (1, 10)), family=NestedTriangles(4))


CHAIN_3_3 = [[-4, 49], [0, 33], [4, 49], [-4, -49], [0, -33], [4, -49]]  # gen_double_chain(3, 3)


@pytest.mark.parametrize("points,t,l", [
    (CHAIN_3_3, 3, 2),  # the sizes miss the point count
    (CHAIN_3_3[:1] + [[0, 60]] + CHAIN_3_3[2:], 3, 3),  # the upper chain turns clockwise
    (CHAIN_3_3[:4] + [[0, 40]] + CHAIN_3_3[5:], 3, 3),  # a lower point above an upper line
    ([[0, 10], [10, 10], [4, 0], [5, 9]], 2, 2),  # an upper point below a lower line
])
def test_tagged_json_is_checked_against_its_double_chain(points, t, l):
    PointSet(tuple(map(tuple, points)))  # untagged, the points pass
    blob = json.dumps({"points": points, "family": {"double_chain": [t, l]}})
    with pytest.raises(ValueError, match="tagged double chain"):
        PointSet.from_json(blob)


@given(st.integers(1, 7), st.integers(1, 7))
def test_double_chain_generator_validates(t, l):
    if t + l < 3:
        return
    ps = gen_double_chain(t, l)
    assert validate_double_chain(ps, t, l)


def test_nested_triangles_shape():
    ps = gen_nested_triangles(9)
    assert len(ps) == 9
    assert ps.family == NestedTriangles(9)
    assert validate_nested_triangles(ps)
    assert set(ps.hull()) == {0, 1, 2}


def test_nested_triangles_leftover_points():
    # sizes not divisible by three park one or two points innermost
    for n in (7, 8, 10, 11):
        ps = gen_nested_triangles(n)
        assert len(ps) == n
        assert validate_nested_triangles(ps)


def test_nested_triangles_rejects_small_input():
    with pytest.raises(ValueError):
        gen_nested_triangles(2)


def test_validate_nested_triangles_rejects_flat_onion():
    # second peel layer is a hull of size four, not a triangle
    ps = PointSet(((0, 0), (100, 0), (50, 90),
                   (40, 20), (60, 20), (61, 40), (39, 41)))
    assert not validate_nested_triangles(ps)


@given(st.integers(3, 14))
def test_nested_generator_validates(n):
    ps = gen_nested_triangles(n)
    assert validate_nested_triangles(ps)


def test_json_round_trip_preserves_everything():
    for ps in (gen_double_chain(3, 4), gen_nested_triangles(7),
               PointSet(((0, 0), (9, 2), (4, 8)))):
        again = PointSet.from_json(ps.to_json())
        assert again == ps
        assert again.family == ps.family


def test_json_is_deterministic():
    ps = gen_double_chain(5, 5)
    a = ps.to_json()
    assert a == gen_double_chain(5, 5).to_json()
    assert ps.to_json() is a  # made once per set
    fresh = gen_double_chain(5, 5)  # no text made yet
    assert ps == fresh and hash(ps) == hash(fresh) and repr(ps) == repr(fresh)
    blob = json.loads(a)
    assert blob["family"] == {"double_chain": [5, 5]}


def test_json_rejects_unknown_family():
    blob = json.dumps({"points": [[0, 0], [5, 1], [2, 6]],
                       "family": {"tilted_grid": 3}})
    with pytest.raises(ValueError, match="unknown family"):
        PointSet.from_json(blob)
