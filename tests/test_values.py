"""Value semantics of the package's immutable classes: repr, equality,
hashing, immutability, pickling and keyword construction."""

import copy
import pickle

import pytest

from redraw.bounds import AlphaVector
from redraw.comb import CombTriangulation
from redraw.drawings import GeomTriangulation, count_geometric_triangulations
from redraw.pointsets import DoubleChain, NestedTriangles, PointSet, gen_double_chain

K4_POINTS = ((0, 0), (10, 0), (5, 10), (5, 3))
K4_PS = ("PointSet(points=(Point(x=0, y=0), Point(x=10, y=0), Point(x=5, y=10), "
         "Point(x=5, y=3)), family=None)")
K4_EDGES = frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})


def _double_chain():
    return PointSet(points=gen_double_chain(2, 2).points, family=DoubleChain(t=2, l=2))


# (make, the fields in order, the exact repr)
CASES = {
    "DoubleChain": (lambda: DoubleChain(t=2, l=3), ("t", "l"), "DoubleChain(t=2, l=3)"),
    "NestedTriangles": (lambda: NestedTriangles(n=6), ("n",), "NestedTriangles(n=6)"),
    "PointSet": (lambda: PointSet(points=K4_POINTS, family=None), ("points", "family"), K4_PS),
    "PointSet-family": (
        _double_chain, ("points", "family"),
        "PointSet(points=(Point(x=-1, y=4), Point(x=1, y=4), Point(x=-1, y=-4), "
        "Point(x=1, y=-4)), family=DoubleChain(t=2, l=2))"),
    "CombTriangulation": (
        lambda: CombTriangulation(num_vertices=4, outer_face=(0, 1, 2),
                                  rotations=((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))),
        ("num_vertices", "outer_face", "rotations"),
        "CombTriangulation(num_vertices=4, outer_face=(0, 1, 2), "
        "rotations=((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1)))"),
    "GeomTriangulation": (
        lambda: GeomTriangulation(pointset=PointSet(K4_POINTS), edges=K4_EDGES),
        ("pointset", "edges"),
        f"GeomTriangulation(pointset={K4_PS}, "
        "edges=frozenset({(0, 1), (1, 2), (0, 3), (2, 3), (0, 2), (1, 3)}))"),
    "AlphaVector": (
        lambda: AlphaVector(alpha=(0.1, 0.2, 0.3, 0.2, 0.2)), ("alpha",),
        "AlphaVector(alpha=(0.1, 0.2, 0.3, 0.2, 0.2))"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_repr_names_the_class_and_each_field(case):
    make, _, text = case
    assert repr(make()) == text


def test_equal_twins_hash_alike_as_their_field_tuples_do(case):
    make, fields, _ = case
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


def test_only_an_instance_of_the_same_class_is_equal(case):
    make, fields, _ = case
    a = make()
    values = tuple(getattr(a, f) for f in fields)
    assert a != values and values != a
    assert a != object()
    assert DoubleChain(2, 3) != (2, 3)
    assert NestedTriangles(3) != DoubleChain(3, 0)


def test_fields_can_be_neither_assigned_nor_deleted(case):
    make, fields, _ = case
    a = make()
    for f in fields:
        value = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, value)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is value
    with pytest.raises(AttributeError):
        a.other = 1


def test_pickle_and_deepcopy_round_trips_are_equal(case):
    make, _, text = case
    a = make()
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a and hash(b) == hash(a) and repr(b) == text


def test_positional_and_keyword_construction_agree():
    assert DoubleChain(2, 3) == DoubleChain(t=2, l=3) == DoubleChain(2, l=3)
    assert NestedTriangles(6) == NestedTriangles(n=6)
    assert PointSet(K4_POINTS) == PointSet(points=K4_POINTS) == PointSet(K4_POINTS, None)
    assert PointSet(K4_POINTS).family is None
    dc = gen_double_chain(2, 2)
    assert PointSet(dc.points, DoubleChain(2, 2)) == _double_chain() == dc
    rot = ((1, 3, 2), (2, 3, 0), (0, 3, 1), (2, 0, 1))
    assert CombTriangulation(4, (0, 1, 2), rot) == CASES["CombTriangulation"][0]()
    assert GeomTriangulation(PointSet(K4_POINTS), K4_EDGES) == CASES["GeomTriangulation"][0]()
    assert AlphaVector((0.1, 0.2, 0.3, 0.2, 0.2)) == CASES["AlphaVector"][0]()


def test_construction_checks_and_normalizes_its_arguments():
    with pytest.raises(TypeError):
        DoubleChain(2)
    with pytest.raises(TypeError):
        PointSet(K4_POINTS, None, None)
    with pytest.raises(ValueError, match="general position"):
        PointSet(points=((0, 0), (1, 1), (2, 2)))
    gt = GeomTriangulation(pointset=PointSet(K4_POINTS), edges={(1, 0), (2, 0), (0, 3),
                                                                (2, 1), (3, 1), (3, 2)})
    assert gt.edges == K4_EDGES and isinstance(gt.edges, frozenset)
    ct = CombTriangulation(4, [0, 1, 2], [[1, 3, 2], [2, 3, 0], [0, 3, 1], [2, 0, 1]])
    assert ct == CASES["CombTriangulation"][0]()
    assert AlphaVector([0, 0, 1, 0, 0]).alpha == (0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="sum to 1"):
        AlphaVector(alpha=(0.5, 0.5, 0.5, 0.0, 0.0))


def test_a_point_sets_cached_tables_leave_its_value_alone():
    ps, twin = PointSet(K4_POINTS), PointSet(K4_POINTS)
    text = repr(ps)
    ps.to_json()
    assert count_geometric_triangulations(ps) == 1
    assert ps._index is not None and ps._json is not None
    assert twin._index is None and twin._json is None
    assert ps == twin and hash(ps) == hash(twin) and repr(ps) == text
    for copied in (pickle.loads(pickle.dumps(ps)), copy.deepcopy(ps)):
        assert copied == twin and copied.to_json() == ps.to_json()
