"""Point-set families: double chains and nested triangular layers.

Both generators are deterministic (same arguments, same bytes) and
validate their own output before returning it.  The validators, not the
construction constants, are the source of truth: any integer placement
that passes the checks is an acceptable member of the family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .geometry import Orientation, Point, convex_hull, general_position, orient


@dataclass(frozen=True)
class DoubleChain:
    """Family tag: t upper-chain points and l lower-chain points."""

    t: int
    l: int


@dataclass(frozen=True)
class NestedTriangles:
    """Family tag: n points in nested triangular convex layers."""

    n: int


Family = object  # DoubleChain | NestedTriangles


@dataclass(frozen=True)
class PointSet:
    """Immutable labeled point set, optionally tagged with its family.

    `_index` holds the search tables of `drawings`, built on first use and
    dropped with the set; it takes no part in equality, hashing or repr."""

    points: tuple[Point, ...]
    family: Optional[Family] = None
    _index: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(Point(int(x), int(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if not general_position(pts):
            raise ValueError("points must be distinct and in general position")
        if isinstance(self.family, DoubleChain):
            if not validate_double_chain(self, self.family.t, self.family.l):
                raise ValueError("points do not form the tagged double chain")
        elif isinstance(self.family, NestedTriangles):
            if self.family.n != len(pts) or not validate_nested_triangles(self):
                raise ValueError("points do not form nested triangular layers")

    def __len__(self) -> int:
        return len(self.points)

    def hull(self) -> list[int]:
        return convex_hull(self.points)

    def to_json(self) -> str:
        if isinstance(self.family, DoubleChain):
            fam = {"double_chain": [self.family.t, self.family.l]}
        elif isinstance(self.family, NestedTriangles):
            fam = {"nested_triangles": self.family.n}
        else:
            fam = None
        return json.dumps(
            {"points": [[p.x, p.y] for p in self.points], "family": fam},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> "PointSet":
        data = json.loads(text)
        fam_data = data.get("family")
        family: Optional[Family] = None
        if fam_data is not None:
            if "double_chain" in fam_data:
                t, l = fam_data["double_chain"]
                family = DoubleChain(int(t), int(l))
            elif "nested_triangles" in fam_data:
                family = NestedTriangles(int(fam_data["nested_triangles"]))
            else:
                raise ValueError(f"unknown family tag: {fam_data}")
        pts = tuple(Point(int(x), int(y)) for x, y in data["points"])
        return PointSet(pts, family)


def gen_double_chain(t: int, l: int) -> PointSet:
    """Double chain with t upper and l lower points.

    The first t points are the upper convex chain left to right, the last
    l the lower concave chain left to right.  Both chains span the same
    x-range so the hull cycle always starts at the lower-left point.
    """
    if t < 1 or l < 1 or t + l < 3:
        raise ValueError("double chain needs t, l >= 1 and t + l >= 3")
    w = max(1, t - 1) * max(1, l - 1)
    g = 2 * w * w + 1

    def xs(m: int) -> list[int]:
        if m == 1:
            return [0]
        step = (2 * w) // (m - 1)
        return [-w + step * i for i in range(m)]

    upper = [Point(x, g + x * x) for x in xs(t)]
    lower = [Point(x, -(g + x * x)) for x in xs(l)]
    return PointSet(tuple(upper + lower), DoubleChain(t, l))


def validate_double_chain(ps: PointSet, t: int, l: int) -> bool:
    """Check the two-chain mutual-visibility conditions exactly.

    (a) the first t points form a convex chain and the last l a concave
    chain, both strictly left to right; (b) every lower point lies
    strictly below every line through two upper points; (c) every upper
    point lies strictly above every line through two lower points.
    """
    pts = ps.points
    if t < 1 or l < 1 or t + l != len(pts):
        return False
    upper, lower = pts[:t], pts[t:]
    for chain, turn in ((upper, Orientation.CCW), (lower, Orientation.CW)):
        if any(a.x >= b.x for a, b in zip(chain, chain[1:])):
            return False
        if any(
            orient(a, b, c) is not turn
            for a, b, c in zip(chain, chain[1:], chain[2:])
        ):
            return False
    for i in range(t):
        for j in range(i + 1, t):
            if any(orient(upper[i], upper[j], q) is not Orientation.CW for q in lower):
                return False
    for i in range(l):
        for j in range(i + 1, l):
            if any(orient(lower[i], lower[j], q) is not Orientation.CCW for q in upper):
                return False
    return True


FPoint = tuple[Fraction, Fraction]


def _fmix(a: FPoint, b: FPoint, c: FPoint, wa: int, wb: int, wc: int, den: int) -> FPoint:
    return (
        (wa * a[0] + wb * b[0] + wc * c[0]) / den,
        (wa * a[1] + wb * b[1] + wc * c[1]) / den,
    )


def gen_nested_triangles(n: int) -> PointSet:
    """n points in floor(n/3) nested triangular convex layers.

    Each layer is a shrunk copy of the enclosing triangle whose corners
    stay close to the enclosing corners but are rotated slightly, so both
    band orientations between consecutive layers stay drawable and no
    radial triple is collinear.  For n % 3 == 1 one extra point sits near
    the innermost centroid; for n % 3 == 2 two extra points straddle it.
    """
    if n < 3:
        raise ValueError("nested triangles need n >= 3")
    layers = n // 3
    tri: list[FPoint] = [
        (Fraction(0), Fraction(0)),
        (Fraction(1000), Fraction(0)),
        (Fraction(430), Fraction(880)),
    ]
    coords: list[FPoint] = list(tri)
    for _ in range(layers - 1):
        tri = [
            _fmix(tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3], 24, 5, 3, 32)
            for i in range(3)
        ]
        coords.extend(tri)
    a, b, c = tri
    cen = _fmix(a, b, c, 1, 1, 1, 3)
    rem = n % 3
    if rem == 1:
        coords.append(_fmix(cen, a, b, 48, 9, 7, 64))
    elif rem == 2:
        # One point pulled toward edge ab, one toward corner c; the
        # asymmetry keeps every triple of the final set non-collinear.
        coords.append(_fmix(cen, a, b, 40, 13, 11, 64))
        coords.append(_fmix(cen, c, a, 44, 17, 3, 64))
    den = lcm(*{f.denominator for p in coords for f in p})
    pts = tuple(Point(int(px * den), int(py * den)) for px, py in coords)
    return PointSet(pts, NestedTriangles(n))


def validate_nested_triangles(ps: PointSet) -> bool:
    """Onion-peel: every hull layer is a triangle until <= 2 points remain."""
    remaining = list(range(len(ps.points)))
    if len(remaining) < 3:
        return False
    while len(remaining) >= 3:
        hull = convex_hull([ps.points[i] for i in remaining])
        if len(hull) != 3:
            return False
        dropped = {remaining[i] for i in hull}
        remaining = [i for i in remaining if i not in dropped]
    return True
