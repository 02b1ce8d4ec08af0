"""Growth rate estimates from degree distributions.

The counting argument behind these bounds encodes a triangulation drawing
by the multiset of vertex degrees it uses, with degrees clamped to the
range 2..6.  A distribution over that range, written alpha =
(a2, a3, a4, a5, a6), yields roughly

    2 ** ((a3 + a5 + a4*log2(3) + H(alpha)) / 8)

drawings per vertex, where H is the base 2 entropy.  This module keeps
the objective, its gradient, its maximizer over the simplex under an
optional linear side constraint, in closed form (a Gibbs distribution),
and an exact multinomial check that the entropy term is the right
large-n stand-in for the counting.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

from .geometry import _Value

DEGREES = (2, 3, 4, 5, 6)
_LOG2_3 = math.log2(3.0)
# per coordinate linear weight of the exponent, indexed like alpha
_C = (0.0, 1.0, _LOG2_3, 1.0, 0.0)
_INV_LN2 = 1.0 / math.log(2.0)
# how far a probability vector's sum may stray from 1
_SUM_TOL = 1e-9


def entropy(probs: Sequence[float]) -> float:
    """Base 2 entropy of a probability vector; zero entries contribute 0."""
    if any(p < 0 for p in probs):
        raise ValueError("negative probability")
    total = sum(probs)
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return -sum(p * math.log2(p) for p in probs if p > 0)


class AlphaVector(_Value):
    """Distribution over clamped degrees 2..6, in that order."""

    _fields = ("alpha",)

    def __init__(self, alpha: Sequence[float]) -> None:
        object.__setattr__(self, "alpha", tuple(float(a) for a in alpha))
        if len(self.alpha) != 5:
            raise ValueError("alpha has 5 entries, one per degree 2..6")
        if any(a < 0 for a in self.alpha):
            raise ValueError("alpha entries must be nonnegative")
        if abs(sum(self.alpha) - 1.0) > _SUM_TOL:
            raise ValueError("alpha must sum to 1")

    def __iter__(self):
        return iter(self.alpha)

    def mean_degree(self) -> float:
        return sum(d * a for d, a in zip(DEGREES, self.alpha))


def exponent_rate(alpha: Sequence[float]) -> float:
    """Linear term plus entropy, before the 1/8 scaling.

    Defined for any nonnegative vector (no sum check), which keeps the
    function differentiable coordinate by coordinate for gradient tests.
    """
    lin = sum(c * a for c, a in zip(_C, alpha))
    ent = -sum(a * math.log2(a) for a in alpha if a > 0)
    return lin + ent


def exponent_rate_gradient(alpha: Sequence[float]) -> tuple[float, ...]:
    """Analytic partials of exponent_rate: c_i - log2(alpha_i) - 1/ln 2."""
    return tuple(
        c - math.log2(a) - _INV_LN2 for c, a in zip(_C, alpha)
    )


def growth_objective(alpha: AlphaVector | Sequence[float]) -> float:
    """Per vertex growth factor 2 ** (exponent_rate / 8)."""
    if not isinstance(alpha, AlphaVector):
        alpha = AlphaVector(tuple(alpha))
    return 2.0 ** (exponent_rate(alpha.alpha) / 8.0)


class ConstraintKind(Enum):
    """Optional linear side condition on the degree distribution.

    DEGREE_MASS balances degree weighted mass below 4 against above 4
    (2*a2 + 3*a3 = 5*a5 + 6*a6).  MEAN_DEGREE pins the mean clamped
    degree to 4 (2*a2 + a3 = a5 + 2*a6).  FREE imposes nothing beyond
    the simplex.
    """

    DEGREE_MASS = "degree-mass"
    MEAN_DEGREE = "mean-degree"
    FREE = "free"


_CONSTRAINT_ROWS: dict[ConstraintKind, tuple[float, ...]] = {
    ConstraintKind.DEGREE_MASS: (2.0, 3.0, 0.0, -5.0, -6.0),
    ConstraintKind.MEAN_DEGREE: (2.0, 1.0, 0.0, -1.0, -2.0),
    ConstraintKind.FREE: (0.0,) * 5,
}


def optimize_growth(
    constraint: ConstraintKind | None = ConstraintKind.FREE,
) -> tuple[AlphaVector, float]:
    """Maximize growth_objective on the simplex with r . alpha = 0.

    The exponent c . alpha + H(alpha) is linear plus entropy, so the
    maximizer is the Gibbs distribution alpha_i ~ 2 ** (c_i - lam * r_i).
    The sum r_i * 2 ** (c_i - lam * r_i) has derivative -ln 2 times the
    positive sum r_i**2 * 2 ** (c_i - lam * r_i), so it strictly decreases
    in lam for a nonzero row: widen a bracket by doubling, then bisect
    until the midpoint is an endpoint.  FREE (a zero row, also for None)
    and MEAN_DEGREE balance at lam = 0, which gives (1,2,3,2,1)/9.
    """
    row = _CONSTRAINT_ROWS[constraint or ConstraintKind.FREE]

    def weights(lam: float) -> list[float]:
        return [2.0 ** (c - lam * r) for c, r in zip(_C, row)]

    def excess(lam: float) -> float:
        return sum(r * w for r, w in zip(row, weights(lam)))

    lo, hi = -1.0, 1.0
    while excess(lo) < 0:
        lo *= 2.0
    while excess(hi) > 0:
        hi *= 2.0
    lam = 0.0
    while lo < lam < hi and (e := excess(lam)) != 0:
        lo, hi = (lam, hi) if e > 0 else (lo, lam)
        lam = (lo + hi) / 2.0
    w = weights(lam)
    total = sum(w)
    vec = AlphaVector(tuple(x / total for x in w))
    return vec, growth_objective(vec)


# -- exact multinomial cross check -------------------------------------------


def largest_remainder_parts(n: int, alpha: Sequence[float]) -> tuple[int, ...]:
    """Split n into integer parts proportional to alpha.

    Floors first, then hands the leftover units to the largest fractional
    remainders (ties to the lower index), so the parts always sum to n.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    raw = [a * n for a in alpha]
    parts = [int(math.floor(r)) for r in raw]
    missing = n - sum(parts)
    order = sorted(range(len(alpha)), key=lambda i: (parts[i] - raw[i], i))
    for i in order[:missing]:
        parts[i] += 1
    return tuple(parts)


def multinomial_rate_check(n: int, alpha: AlphaVector | Sequence[float]) -> float:
    """Exact log2(n choose parts)/n for the rounded split of n by alpha.

    Converges to entropy(alpha) as n grows; the gap at finite n measures
    how much the entropy shorthand overstates the exact count.
    """
    if not isinstance(alpha, AlphaVector):
        alpha = AlphaVector(tuple(alpha))
    parts = largest_remainder_parts(n, alpha.alpha)
    num = math.factorial(n)
    den = 1
    for p in parts:
        den *= math.factorial(p)
    coeff = num // den
    assert coeff * den == num
    return math.log2(coeff) / n
