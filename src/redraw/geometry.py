"""Exact planar predicates on integer coordinates.

Everything here is computed with Python's arbitrary-precision integers,
so the predicates are exact at any coordinate magnitude and never see
floating-point noise.
"""

from __future__ import annotations

import json
import operator
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple, Sequence


class Point(NamedTuple):
    """Planar point with exact integer coordinates."""

    x: int
    y: int


def _integer(value: object) -> int:
    """value as an int if it is an integer, by `operator.index`, and a
    ValueError for anything else, 0.5 or "3" too."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"not an integer: {value!r}") from None


def _parsed(text: str, build: Callable[[Any], Any]) -> Any:
    """build of the JSON value in text, a wrongly shaped value a ValueError."""
    try:
        return build(json.loads(text))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"wrongly shaped JSON: {type(exc).__name__}: {exc}") from None


class _Value:
    """Base of the package's immutable values.  A subclass lists its fields
    in `_fields` and sets them in `__init__` with `object.__setattr__`;
    equality, hashing and repr read those fields alone, and an instance
    equals only an instance of its own class."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")


class Orientation(Enum):
    CCW = 1
    COLLINEAR = 0
    CW = -1


def cross(p: Point, q: Point, r: Point) -> int:
    """Signed double area of the triangle pqr: (q - p) x (r - p)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def orient(p: Point, q: Point, r: Point) -> Orientation:
    """Position of r relative to the directed line through p and q."""
    c = cross(p, q, r)
    if c > 0:
        return Orientation.CCW
    if c < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def _on_segment(a: Point, p: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab (collinearity included)."""
    if cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd share a point besides a common endpoint.

    A proper interior crossing, a T-junction, and overlapping collinear
    interiors all count; two segments that meet only at a shared endpoint
    do not.
    """
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if d1 and d2 and d3 and d4:  # no endpoint on the other segment's line
        return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
    if {tuple(a), tuple(b)} == {tuple(c), tuple(d)}:
        return True
    # Degenerate contacts: an endpoint of one segment lying on the other.
    for p, u, v in ((a, c, d), (b, c, d), (c, a, b), (d, a, b)):
        if _on_segment(u, p, v):
            shared = (tuple(p) in (tuple(a), tuple(b))) and (
                tuple(p) in (tuple(c), tuple(d))
            )
            if not shared:
                return True
    return False


def convex_hull(points: Sequence[Point]) -> list[int]:
    """Indices of the convex hull in CCW order.

    Starts at the lexicographically smallest point; collinear points on
    the hull boundary are excluded.  Raises ValueError for fewer than
    three points or an everywhere-collinear set ("degenerate hull").
    """
    if len(points) < 3:
        raise ValueError("degenerate hull: need at least 3 points")
    if len(set(map(tuple, points))) != len(points):
        raise ValueError("duplicate points")
    idx = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1]))

    def build(order: Iterable[int]) -> list[int]:
        chain: list[int] = []
        for i in order:
            while (
                len(chain) >= 2
                and cross(points[chain[-2]], points[chain[-1]], points[i]) <= 0
            ):
                chain.pop()
            chain.append(i)
        return chain

    lower = build(idx)
    upper = build(reversed(idx))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("degenerate hull: all points collinear")
    return hull


def general_position(points: Sequence[Point]) -> bool:
    """True iff the points are pairwise distinct with no collinear triple."""
    if len(set(map(tuple, points))) != len(points):
        return False
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if cross(points[i], points[j], points[k]) == 0:
                    return False
    return True
