"""Shared fixtures: small point sets with known hand-checked structure."""

import random

import pytest
from hypothesis import HealthCheck, settings

from redraw.geometry import general_position
from redraw.pointsets import PointSet

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# Five points: triangle (1, 2, 0) with two interior points 3, 4 side by side.
# The set admits exactly two triangulations.
FIVE_POINTS = ((30, 50), (0, 0), (60, 0), (25, 20), (35, 20))

# Nine points: triangle (1, 2, 0) around a ring 3..8 enclosing nothing.
# Two straight-line drawings of the same combinatorial triangulation live
# here with different edge sets (vertex 3 resp. 4 plays the inner hub).
NINE_POINTS = ((30, 50), (0, 0), (60, 0), (20, 15), (26, 25), (34, 25),
               (40, 15), (35, 10), (25, 10))

NINE_EDGES_A = frozenset([
    (0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 7), (1, 8),
    (2, 5), (2, 6), (2, 7), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (3, 8),
    (3, 5), (3, 6), (3, 7),
])
NINE_EDGES_B = frozenset([
    (0, 1), (0, 2), (1, 2), (0, 4), (0, 5), (0, 6), (1, 4), (1, 8), (1, 3),
    (2, 6), (2, 7), (2, 8), (4, 5), (5, 6), (6, 7), (7, 8), (3, 8), (3, 4),
    (4, 6), (4, 7), (4, 8),
])

# Convex positions for Catalan-number checks.
TRIANGLE = ((0, 0), (40, 0), (20, 30))
SQUARE = ((0, 0), (40, 0), (40, 40), (0, 40))
PENTAGON = ((0, 10), (20, 0), (40, 12), (33, 40), (7, 38))
HEXAGON = ((0, 20), (15, 0), (40, 2), (55, 25), (38, 45), (10, 42))

# Fixed unstructured sets (general position, sizes 4..9) used to compare
# the two counting backends on inputs with no generator symmetry.
AD_HOC_SETS = (
    ((59, 17), (53, 17), (14, 46), (16, 35)),
    ((8, 15), (14, 2), (1, 20), (3, 14)),
    ((13, 34), (1, 54), (59, 34), (45, 55), (14, 26)),
    ((36, 36), (30, 1), (41, 31), (33, 34), (20, 58)),
    ((26, 57), (47, 3), (56, 7), (5, 44), (32, 6)),
    ((7, 22), (5, 34), (22, 15), (39, 13), (51, 22), (10, 16)),
    ((13, 48), (42, 10), (36, 11), (36, 20), (17, 53), (46, 45)),
    ((13, 40), (33, 56), (24, 25), (50, 8), (26, 19), (32, 55)),
    ((45, 14), (47, 14), (50, 22), (33, 43), (41, 30), (1, 4)),
    ((17, 53), (39, 6), (56, 26), (37, 11), (43, 18), (44, 58), (37, 18)),
    ((52, 43), (2, 41), (47, 52), (4, 57), (13, 5), (54, 2), (38, 40)),
    ((39, 42), (20, 31), (44, 26), (20, 1), (17, 53), (44, 9), (33, 3)),
    ((43, 18), (49, 51), (7, 19), (58, 35), (44, 16), (13, 32), (6, 46)),
    ((18, 57), (29, 0), (49, 43), (30, 52), (41, 31), (27, 12), (9, 55), (39, 16)),
    ((39, 10), (30, 47), (40, 58), (45, 14), (28, 44), (56, 46), (54, 28), (4, 31)),
    ((45, 16), (38, 27), (19, 41), (17, 11), (16, 54), (20, 24), (55, 4), (30, 29)),
    ((19, 34), (17, 41), (47, 16), (9, 19), (54, 6), (46, 41), (3, 38), (50, 42)),
    ((58, 13), (34, 39), (0, 15), (33, 4), (59, 52), (38, 48), (3, 32), (33, 49), (49, 3)),
    ((16, 17), (34, 59), (35, 57), (15, 28), (41, 31), (41, 57), (29, 36), (57, 6), (12, 19)),
    ((11, 11), (45, 51), (44, 19), (24, 16), (39, 18), (49, 30), (29, 42), (29, 56), (56, 20)),
)


def random_set(seed: int, size: int) -> PointSet:
    """A seeded random set of size points in general position."""
    rng = random.Random(seed)
    while True:
        pts = tuple((rng.randrange(64), rng.randrange(64)) for _ in range(size))
        if general_position(pts):
            return PointSet(pts)


@pytest.fixture
def five_point_set():
    return PointSet(FIVE_POINTS)


@pytest.fixture
def nine_point_set():
    return PointSet(NINE_POINTS)


@pytest.fixture
def pentagon():
    return PointSet(PENTAGON)


@pytest.fixture
def hexagon():
    return PointSet(HEXAGON)
