"""Budget split and private-comparison variance tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtkit import allocation
from svtkit.allocation import Variant

SQRT2 = math.sqrt(2.0)


def test_optimal_w_closed_forms():
    c = 50
    assert allocation.optimal_w(Variant.EXP_OPT_CORR, c) == pytest.approx((SQRT2 * c) ** (2 / 3))
    assert allocation.optimal_w(Variant.GUM, c) == pytest.approx((math.pi * c / math.sqrt(3)) ** (2 / 3))
    assert allocation.optimal_w(Variant.LAP, c) == pytest.approx((2 * c) ** (2 / 3))
    assert allocation.optimal_w(Variant.GAU, c) == pytest.approx((2 * c) ** (2 / 3))
    assert allocation.optimal_w(Variant.EXP_OPT_CORR, c, monotonic=True) == pytest.approx((c / SQRT2) ** (2 / 3))
    assert allocation.optimal_w(Variant.GUM, c, monotonic=True) == pytest.approx((math.pi * c / (2 * math.sqrt(3))) ** (2 / 3))
    assert allocation.optimal_w(Variant.LAP, c, monotonic=True) == pytest.approx(c ** (2 / 3))
    assert allocation.optimal_w(Variant.GAU, c, monotonic=True) == pytest.approx(c ** (2 / 3))


# The w coefficient a of each variant, w = (a * c)^(2/3), as literals.
W_COEFF = {Variant.LAP: 2.0, Variant.GAU: 2.0,
           Variant.GUM: math.pi / math.sqrt(3.0),
           Variant.EXP_NO_CORR: SQRT2, Variant.EXP_MEAN_CORR: SQRT2,
           Variant.EXP_OPT_CORR: SQRT2}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("monotonic", [False, True])
def test_optimal_w_equals_literal_coefficients_exactly(variant, monotonic):
    """optimal_w derives a from the laws' variances; it must equal the
    literal coefficient bit for bit."""
    for c in (1, 5, 50, 500):
        want = (W_COEFF[variant] * c * (0.5 if monotonic else 1.0)) ** (2.0 / 3.0)
        assert allocation.optimal_w(variant, c, monotonic) == want


def test_optimal_w_frozen_value():
    # (sqrt(2) * 50)^(2/3), computed once by hand
    assert allocation.optimal_w(Variant.EXP_OPT_CORR, 50) == pytest.approx(17.09975946676697, abs=1e-12)


def test_optimal_w_laplace_monotonic_c1_is_one():
    assert allocation.optimal_w(Variant.LAP, 1, monotonic=True) == 1.0


def test_optimal_w_rejects_c_below_one():
    with pytest.raises(ValueError):
        allocation.optimal_w(Variant.LAP, 0)


def test_split_equal_when_w_is_one():
    s = allocation.split(1.0, Variant.LAP, 1, monotonic=True)
    assert s.eps1 == pytest.approx(0.5)
    assert s.eps2 == pytest.approx(0.5)


def test_split_laplace_c1():
    """w = 2^(2/3) puts ~38.65% of the budget on the threshold noise."""
    s = allocation.split(1.0, Variant.LAP, 1)
    assert s.w == pytest.approx(2 ** (2 / 3))
    assert s.eps1 == pytest.approx(0.3866, abs=5e-4)
    assert s.eps2 == pytest.approx(0.6134, abs=5e-4)


@settings(max_examples=1000, deadline=None)
@given(eps=st.floats(min_value=1e-3, max_value=20.0),
       c=st.integers(min_value=1, max_value=2000),
       variant=st.sampled_from(list(Variant)),
       monotonic=st.booleans())
def test_split_identities(eps, c, variant, monotonic):
    s = allocation.split(eps, variant, c, monotonic)
    assert abs(s.eps1 + s.eps2 - eps) <= 1e-12 * max(1.0, eps)
    assert abs(s.eps2 - s.w * s.eps1) <= 1e-12 * max(1.0, s.eps2)
    assert s.variant is variant
    assert s.monotonic is monotonic


def test_variance_exponential_unit_case():
    """Lap(1) threshold noise plus Exp(mean 2) query noise: 2 + 4 = 6."""
    v = allocation.comparison_variance(Variant.EXP_OPT_CORR, 1.0, 1.0, 1, 1.0)
    assert v == pytest.approx(6.0, rel=1e-12)


def test_variance_scales_quadratically_in_sensitivity():
    for variant in (Variant.EXP_NO_CORR, Variant.GUM, Variant.LAP):
        v1 = allocation.comparison_variance(variant, 0.3, 0.7, 5, 1.0)
        v2 = allocation.comparison_variance(variant, 0.3, 0.7, 5, 2.0)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_variance_gaussian_frozen():
    # kappa^2 = 2 ln(1.25/1e-4); eps1=eps2=c=delta=1 gives kappa^2 * (1 + 4)
    v = allocation.comparison_variance(Variant.GAU, 1.0, 1.0, 1, 1.0,
                                       delta_dp=1e-4)
    assert v == pytest.approx(94.33483923290392, rel=1e-12)


def test_variance_gaussian_requires_delta_dp():
    with pytest.raises(ValueError):
        allocation.comparison_variance(Variant.GAU, 1.0, 1.0, 1, 1.0)


def test_gaussian_kappa():
    assert allocation.gaussian_kappa(1e-4) == pytest.approx(math.sqrt(2 * math.log(1.25e4)), rel=1e-14)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            allocation.gaussian_kappa(bad)


def _grid_best_variance(variant, eps, c, monotonic, n=2000):
    grid = np.geomspace(0.01, 1e4, n)
    best = math.inf
    for w in grid:
        eps1 = eps / (1.0 + w)
        v = allocation.comparison_variance(variant, eps1, eps - eps1, c, 1.0,
                                           monotonic, delta_dp=1e-4)
        best = min(best, v)
    return best


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("c", [1, 50])
def test_formula_w_beats_grid(variant, c):
    """The closed-form w is within 0.1% of a dense grid search's optimum."""
    for monotonic in (False, True):
        s = allocation.split(1.0, variant, c, monotonic)
        v_formula = allocation.comparison_variance(variant, s.eps1, s.eps2, c,
                                                   1.0, monotonic, delta_dp=1e-4)
        v_grid = _grid_best_variance(variant, 1.0, c, monotonic)
        assert v_formula <= v_grid * 1.001


@pytest.mark.parametrize("c", [1, 5, 50, 500])
@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 2.0])
def test_exponential_variance_smallest(c, eps):
    """At optimal splits the exponential family minimizes the comparison
    variance against each baseline."""
    def at_split(variant):
        s = allocation.split(eps, variant, c)
        return allocation.comparison_variance(variant, s.eps1, s.eps2, c, 1.0,
                                              delta_dp=1e-4)

    v_exp = at_split(Variant.EXP_OPT_CORR)
    assert v_exp <= at_split(Variant.LAP)
    assert v_exp <= at_split(Variant.GUM)
    assert v_exp <= at_split(Variant.GAU)


def test_query_family_mapping():
    assert Variant.EXP_NO_CORR.query_kind.value == "exponential"
    assert Variant.EXP_MEAN_CORR.query_kind.value == "exponential"
    assert Variant.EXP_OPT_CORR.query_kind.value == "exponential"
    assert Variant.LAP.query_kind.value == "laplace"
    assert Variant.GAU.query_kind.value == "gaussian"
    assert Variant.GUM.query_kind.value == "gumbel"


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
def test_split_rejects_non_finite_or_non_positive_total(eps):
    with pytest.raises(ValueError):
        allocation.split(eps, Variant.EXP_OPT_CORR, 5)


def test_budget_split_rejects_inconsistent_parts():
    with pytest.raises(ValueError, match="eps1 \\+ eps2 must equal eps_total"):
        allocation.BudgetSplit(eps_total=1, w=1, eps1=0.3, eps2=0.3,
                               variant=Variant.LAP, monotonic=False)
    with pytest.raises(ValueError, match="eps2 must equal w \\* eps1"):
        allocation.BudgetSplit(eps_total=1, w=2, eps1=0.5, eps2=0.5,
                               variant=Variant.LAP, monotonic=False)
