import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redraw.bounds import (
    DEGREES,
    AlphaVector,
    ConstraintKind,
    entropy,
    exponent_rate,
    exponent_rate_gradient,
    growth_objective,
    largest_remainder_parts,
    multinomial_rate_check,
    optimize_growth,
)

FREE_OPTIMUM = (1 / 9, 2 / 9, 3 / 9, 2 / 9, 1 / 9)


def test_degrees_axis():
    assert DEGREES == (2, 3, 4, 5, 6)


def test_entropy_examples():
    assert entropy((0.5, 0.5)) == pytest.approx(1.0)
    assert entropy((1.0, 0.0, 0.0)) == 0.0
    assert entropy((0.125,) * 8) == pytest.approx(3.0)


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError, match="negative"):
        entropy((1.2, -0.2))
    with pytest.raises(ValueError, match="sum"):
        entropy((0.3, 0.3))


def test_alpha_vector_validation():
    a = AlphaVector(FREE_OPTIMUM)
    assert len(list(a)) == 5
    assert a.mean_degree() == pytest.approx(4.0)
    with pytest.raises(ValueError, match="nonnegative"):
        AlphaVector((0.5, 0.5, 0.5, -0.25, -0.25))
    with pytest.raises(ValueError, match="sum"):
        AlphaVector((0.1, 0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="5 entries"):
        AlphaVector((0.5, 0.5))


def test_degenerate_distribution_has_unit_growth():
    assert growth_objective((1.0, 0.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)


def test_growth_at_known_optimum():
    assert growth_objective(FREE_OPTIMUM) == pytest.approx(9 ** 0.125, abs=1e-12)


def test_unconstrained_optimum():
    alpha, growth = optimize_growth()
    assert growth == pytest.approx(9 ** 0.125, abs=1e-9)
    for got, want in zip(alpha, FREE_OPTIMUM):
        assert got == pytest.approx(want, abs=1e-9)
    assert sum(alpha) == pytest.approx(1.0, abs=1e-12)
    assert alpha.mean_degree() == pytest.approx(4.0, abs=1e-9)


def test_none_means_unconstrained():
    assert optimize_growth(None)[1] == pytest.approx(9 ** 0.125, abs=1e-9)


def test_mean_degree_constraint_is_inactive_at_the_optimum():
    alpha, growth = optimize_growth(ConstraintKind.MEAN_DEGREE)
    assert growth == pytest.approx(9 ** 0.125, abs=1e-9)
    for got, want in zip(alpha, FREE_OPTIMUM):
        assert got == pytest.approx(want, abs=1e-8)


def test_degree_mass_constrained_optimum():
    alpha, growth = optimize_growth(ConstraintKind.DEGREE_MASS)
    assert growth == pytest.approx(1.310023379398294, abs=1e-9)
    a2, a3, _, a5, a6 = alpha
    assert 2 * a2 + 3 * a3 == pytest.approx(5 * a5 + 6 * a6, abs=1e-9)
    assert sum(alpha) == pytest.approx(1.0, abs=1e-12)
    # tighter side condition can only lower the objective
    assert growth <= optimize_growth()[1]


# the side rows as ConstraintKind documents them, written out independently
SIDE_ROWS = {
    ConstraintKind.DEGREE_MASS: (2, 3, 0, -5, -6),
    ConstraintKind.MEAN_DEGREE: (2, 1, 0, -1, -2),
    ConstraintKind.FREE: (0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("kind", list(ConstraintKind))
def test_optimum_satisfies_first_order_conditions(kind):
    row = SIDE_ROWS[kind]
    alpha, _ = optimize_growth(kind)
    assert abs(sum(r * a for r, a in zip(row, alpha))) <= 1e-12
    assert abs(sum(alpha) - 1.0) <= 1e-12
    # least squares fit of the gradient as mu * 1 + lam * row: project it
    # off an orthonormal basis of span{1, row}; a maximizer leaves nothing
    basis = []
    for v in ((1.0,) * 5, row):
        for u in basis:
            d = sum(x * y for x, y in zip(v, u))
            v = [x - d * y for x, y in zip(v, u)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 0:
            basis.append([x / norm for x in v])
    resid = list(exponent_rate_gradient(alpha))
    for u in basis:
        d = sum(x * y for x, y in zip(resid, u))
        resid = [x - d * y for x, y in zip(resid, u)]
    assert math.sqrt(sum(x * x for x in resid)) < 1e-9


def test_optimizer_is_deterministic():
    assert optimize_growth(ConstraintKind.DEGREE_MASS) == optimize_growth(
        ConstraintKind.DEGREE_MASS
    )


def test_rounded_mass_distribution_growth():
    printed = (0.136, 0.299, 0.345, 0.151, 0.069)
    assert growth_objective(printed) == pytest.approx(1.3100223571689034, abs=1e-12)


def test_constraint_kind_tokens():
    assert ConstraintKind.DEGREE_MASS.value == "degree-mass"
    assert ConstraintKind.MEAN_DEGREE.value == "mean-degree"
    assert ConstraintKind.FREE.value == "free"


positive_alpha = st.lists(
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False), min_size=5, max_size=5
).map(tuple)


@given(positive_alpha)
def test_gradient_matches_finite_differences(alpha):
    grad = exponent_rate_gradient(alpha)
    h = 1e-6
    for i in range(5):
        up = list(alpha)
        dn = list(alpha)
        up[i] += h
        dn[i] -= h
        fd = (exponent_rate(up) - exponent_rate(dn)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-4)


@given(positive_alpha, positive_alpha)
def test_rate_is_concave(x, y):
    mid = tuple((a + b) / 2 for a, b in zip(x, y))
    assert exponent_rate(mid) >= (exponent_rate(x) + exponent_rate(y)) / 2 - 1e-9


def test_integer_parts_examples():
    assert largest_remainder_parts(10, FREE_OPTIMUM) == (1, 2, 4, 2, 1)
    assert largest_remainder_parts(1, (0.2,) * 5) == (1, 0, 0, 0, 0)
    assert largest_remainder_parts(2, (0.5, 0.5, 0, 0, 0)) == (1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        largest_remainder_parts(0, FREE_OPTIMUM)


@given(st.integers(1, 500))
def test_integer_parts_sum_to_n(n):
    parts = largest_remainder_parts(n, FREE_OPTIMUM)
    assert sum(parts) == n
    assert all(p >= 0 for p in parts)


def test_multinomial_rate_small_cases():
    assert multinomial_rate_check(1, (0.2,) * 5) == 0.0
    # parts (1,1,1,1,0): 4!/(1*1*1*1) = 24 arrangements
    assert multinomial_rate_check(4, (0.25, 0.25, 0.25, 0.25, 0.0)) == pytest.approx(
        math.log2(24) / 4
    )


def test_multinomial_rate_approaches_entropy():
    alpha = FREE_OPTIMUM
    target = entropy(alpha)
    gaps = [abs(multinomial_rate_check(n, alpha) - target) for n in (90, 900, 9000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.02
