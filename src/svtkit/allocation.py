"""Privacy-budget splitting and noise calibration.

The total budget eps splits into a threshold part eps1 and a query part
eps2 = w * eps1. :func:`calibrate` turns (variant, eps1, eps2, c, delta)
into the (threshold, query) noise laws, following Lyu, Su & Li 2017; every
noise scale, rate, variance and correction input elsewhere derives from
it. For each variant the comparison variance, as a function of w, has a
unique closed-form minimizer given by :func:`optimal_w`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import checks
from .noise import Kind, law_variance

_SPLIT_TOL = 1e-12


class Variant(enum.Enum):
    """Mechanism variants, one row each: token, threshold noise kind, query
    noise kind and threshold-correction rule ("none", "mean" for the
    query-noise mean, or "optimal" for the numerical optimizer's argmax).

    Following Lyu, Su & Li 2017, the threshold noise is Laplace for every
    variant except the Gaussian baseline.
    """

    LAP = "lap", Kind.LAPLACE, Kind.LAPLACE, "none"
    GAU = "gau", Kind.GAUSSIAN, Kind.GAUSSIAN, "none"
    GUM = "gum", Kind.LAPLACE, Kind.GUMBEL, "mean"
    EXP_NO_CORR = "exp-none", Kind.LAPLACE, Kind.EXPONENTIAL, "none"
    EXP_MEAN_CORR = "exp-mean", Kind.LAPLACE, Kind.EXPONENTIAL, "mean"
    EXP_OPT_CORR = "exp-opt", Kind.LAPLACE, Kind.EXPONENTIAL, "optimal"

    def __new__(cls, token: str, threshold_kind: Kind, query_kind: Kind,
                correction: str) -> "Variant":
        member = object.__new__(cls)
        member._value_ = token
        member.threshold_kind, member.query_kind = threshold_kind, query_kind
        member.correction = correction
        return member


@dataclass(frozen=True)
class BudgetSplit:
    eps_total: float
    w: float
    eps1: float
    eps2: float
    variant: Variant
    monotonic: bool

    def __post_init__(self) -> None:
        checks.positive(eps_total=self.eps_total, w=self.w, eps1=self.eps1,
                        eps2=self.eps2)
        checks.flag(monotonic=self.monotonic)
        checks.instance(Variant, variant=self.variant)
        if abs(self.eps1 + self.eps2 - self.eps_total) > _SPLIT_TOL * self.eps_total:
            raise ValueError("eps1 + eps2 must equal eps_total")
        if abs(self.eps2 - self.w * self.eps1) > _SPLIT_TOL * max(self.eps2, 1.0):
            raise ValueError("eps2 must equal w * eps1")


def optimal_w(variant: Variant, c: int, monotonic: bool = False) -> float:
    """Closed-form budget ratio w = eps2/eps1 minimizing the comparison variance.

    Args:
        variant: mechanism variant (only its two noise kinds matter).
        c: positive-answer budget.
        monotonic: True when neighboring datasets move all query results the
            same way, which halves the query-noise scale.

    Returns:
        w = (a*c)^(2/3), a = 2*sqrt(Vqry/Vthr) from the laws' unit variances.
    """
    checks.instance(Variant, variant=variant)
    thr, qry = variant.threshold_kind, variant.query_kind
    checks.count(1, c=c)
    checks.flag(monotonic=monotonic)
    a = 2.0 * math.sqrt(law_variance(qry, 1.0) / law_variance(thr, 1.0))
    return (a * c * (0.5 if monotonic else 1.0)) ** (2.0 / 3.0)


def split(eps_total: float, variant: Variant, c: int,
          monotonic: bool = False) -> BudgetSplit:
    """Split a total budget at the variant's optimal ratio."""
    checks.positive(eps_total=eps_total)
    w = optimal_w(variant, c, monotonic)
    eps1 = eps_total / (1.0 + w)
    return BudgetSplit(eps_total=eps_total, w=w, eps1=eps1,
                       eps2=eps_total - eps1, variant=variant,
                       monotonic=monotonic)


def gaussian_kappa(delta_dp: float) -> float:
    """Calibration constant for the Gaussian baseline: sigma = kappa*delta/eps."""
    checks.probability(delta_dp=delta_dp)
    return math.sqrt(2.0 * math.log(1.25 / delta_dp))


def query_sensitivity(c: int, delta: float, monotonic: bool = False) -> float:
    """Query-noise sensitivity: 2c*delta, or c*delta when monotonic."""
    checks.count(1, c=c)
    checks.positive(delta=delta)
    checks.flag(monotonic=monotonic)
    return (c if monotonic else 2 * c) * delta


def calibrate(variant: Variant, eps1: float, eps2: float, c: int, delta: float,
              monotonic: bool = False, delta_dp: float | None = None
              ) -> tuple[tuple[Kind, float], tuple[Kind, float]]:
    """The (kind, scale) of a variant's threshold and query noise laws.

    The kinds come from the variant's row. The threshold scale is
    delta/eps1 and the query scale query_sensitivity/eps2, both times
    kappa = sqrt(2 ln(1.25/delta_dp)) for the Gaussian baseline; delta_dp
    is required there and ignored elsewhere.
    """
    checks.instance(Variant, variant=variant)
    thr, qry = variant.threshold_kind, variant.query_kind
    checks.positive(eps1=eps1, eps2=eps2)
    scale = query_sensitivity(c, delta, monotonic) / eps2
    kappa = gaussian_kappa(delta_dp) if qry is Kind.GAUSSIAN else 1.0
    return (thr, kappa * delta / eps1), (qry, kappa * scale)


def comparison_variance(variant: Variant, eps1: float, eps2: float, c: int,
                        delta: float, monotonic: bool = False,
                        delta_dp: float | None = None) -> float:
    """Variance of the private comparison: threshold plus query noise. Reads
    :func:`calibrate` directly, as building NoiseDists is slow in w searches."""
    thr, qry = calibrate(variant, eps1, eps2, c, delta, monotonic, delta_dp)
    return law_variance(*thr) + law_variance(*qry)
