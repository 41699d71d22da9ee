"""Calibrated noise distributions with seeded sampling and tail diagnostics.

All four laws used by the mechanism variants live here, one row each of the
law table ``_LAWS``: Laplace (threshold noise and one query-noise baseline),
exponential (the one-sided query noise), Gaussian, and Gumbel. Each has a kind,
a scale and a location, and exposes pdf, cdf, quantile, and inverse-cdf
sampling from a single uniform stream. The log-survival helpers back the tail
Lipschitz check that decides whether a law is eligible as pure-DP query noise.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import checks

EULER_GAMMA = 0.5772156649015329

# Smallest positive double; keeps inverse-cdf sampling finite if the
# underlying uniform stream ever returns exactly 0.
_TINY_U = 5e-324


class Kind(enum.Enum):
    LAPLACE = "laplace"
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    GUMBEL = "gumbel"


@dataclass(frozen=True)
class NoiseDist:
    """A noise law: kind, scale, location.

    The scale carries each law's usual parameter: Laplace b, exponential
    mean (reciprocal of the rate), Gaussian sigma, Gumbel beta. Location
    defaults to 0, which is what every mechanism here uses.
    """

    kind: Kind
    scale: float
    location: float = 0.0

    def __post_init__(self) -> None:
        checks.positive(scale=self.scale)
        checks.finite(location=self.location)

    def mean(self) -> float:
        return self.location + _LAWS[self.kind].mean * self.scale

    def variance(self) -> float:
        return law_variance(self.kind, self.scale)


def law_variance(kind: Kind, scale: float) -> float:
    """Variance of the ``kind`` law at ``scale``; the location plays no part."""
    return _LAWS[kind].variance * scale**2


def laplace(scale: float, location: float = 0.0) -> NoiseDist:
    return NoiseDist(Kind.LAPLACE, scale, location)


def exponential(mean: float, location: float = 0.0) -> NoiseDist:
    """Exponential law parameterized by its mean (= 1/rate)."""
    return NoiseDist(Kind.EXPONENTIAL, mean, location)


def gaussian(sigma: float, location: float = 0.0) -> NoiseDist:
    return NoiseDist(Kind.GAUSSIAN, sigma, location)


def gumbel(beta: float, location: float = 0.0) -> NoiseDist:
    return NoiseDist(Kind.GUMBEL, beta, location)


def _standardize(d: NoiseDist, x) -> np.ndarray:
    return (np.asarray(x, dtype=float) - d.location) / d.scale


def _as_given(value: np.ndarray, like) -> float | np.ndarray:
    """Return a Python float for scalar input, an array otherwise."""
    if np.isscalar(like) or getattr(like, "ndim", 1) == 0:
        return float(np.asarray(value).ravel()[0])
    return value


def pdf(d: NoiseDist, x) -> float | np.ndarray:
    """Density of ``d`` at ``x`` (scalar or array).

    Zero below the location for the exponential law, which is supported on
    [location, infinity).
    """
    return _as_given(_LAWS[d.kind].pdf(_standardize(d, x), d.scale), x)


def cdf(d: NoiseDist, x) -> float | np.ndarray:
    """P[X <= x] for ``d`` at ``x`` (scalar or array)."""
    return _as_given(_LAWS[d.kind].cdf(_standardize(d, x)), x)


def log_sf(d: NoiseDist, x) -> float | np.ndarray:
    """log(1 - cdf) evaluated stably far into the upper tail.

    Returns -inf where the survival probability underflows to zero in
    double precision; callers probing tails should treat such points as
    "cdf is exactly 1 here" (see :func:`lipschitz_tail_check`).
    """
    return _as_given(_LAWS[d.kind].log_sf(_standardize(d, x)), x)


def quantile(d: NoiseDist, p) -> float | np.ndarray:
    """Inverse cdf of ``d`` at probability ``p`` in the open interval (0, 1)."""
    checks.instance(numbers.Real, p=p)
    parr = np.asarray(p, dtype=float)
    if not np.all((0.0 < parr) & (parr < 1.0)):
        raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
    return _as_given(d.location + d.scale * _LAWS[d.kind].quantile(parr), p)


class _Law(NamedTuple):
    """One law at location 0 and scale 1, at the standardized point z.

    ``mean`` and ``variance`` are per unit of scale and of scale squared
    (the symmetric laws' -0.0 keeps location + mean * scale the location,
    bit for bit); ``pdf`` divides by the scale inside its own expression.
    ``quantile`` takes p, a float or an array, in (0, 1), where no
    logarithm's argument reaches zero (the Laplace 2(1 - p) stays at or
    above 2**-52): no law needs clipping or an errstate guard, and the
    Laplace array form may evaluate both branches everywhere.
    """

    mean: float
    variance: float
    pdf: Callable
    cdf: Callable
    log_sf: Callable
    quantile: Callable


def _laplace_quantile(p):
    if isinstance(p, float):
        return np.log(2.0 * p) if p < 0.5 else -np.log(2.0 * (1.0 - p))
    return np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))


def _gaussian(name: str) -> Callable:
    """The Gaussian law's ``name`` (cdf, log_sf or quantile) until its
    first call. Only the Gaussian law needs special functions, and
    scipy.special takes longer to import than the rest of svtkit, so that
    call imports it and puts scipy's functions in the law's row."""
    def first_call(x):
        from scipy.special import log_ndtr, ndtr, ndtri
        law = _LAWS[Kind.GAUSSIAN] = _LAWS[Kind.GAUSSIAN]._replace(
            cdf=ndtr, log_sf=lambda z: log_ndtr(-z), quantile=ndtri)
        return getattr(law, name)(x)
    return first_call


def _gumbel_exp(z):
    # exp(-z) overflows to inf below z of about -709; every Gumbel
    # expression built on it still reaches its limit there.
    with np.errstate(over="ignore"):
        return np.exp(-z)


def _gumbel_log_sf(z):
    # 1 - exp(-exp(-z)); -expm1 keeps precision while exp(-z) > 0.
    with np.errstate(divide="ignore"):
        return np.log(-np.expm1(-_gumbel_exp(z)))


_LAWS = {
    Kind.LAPLACE: _Law(
        -0.0, 2.0, lambda z, s: np.exp(-np.abs(z)) / (2.0 * s),
        lambda z: np.where(z < 0, 0.5 * np.exp(np.clip(z, None, 0)),
                           1.0 - 0.5 * np.exp(-np.clip(z, 0, None))),
        lambda z: np.where(z < 0, np.log1p(-0.5 * np.exp(np.clip(z, None, 0))),
                           math.log(0.5) - z), _laplace_quantile),
    Kind.EXPONENTIAL: _Law(
        1.0, 1.0,
        lambda z, s: np.where(z < 0, 0.0, np.exp(-np.clip(z, 0, None)) / s),
        lambda z: np.where(z < 0, 0.0, -np.expm1(-np.clip(z, 0, None))),
        lambda z: np.where(z < 0, 0.0, -np.clip(z, 0, None)),
        lambda p: -np.log1p(-p)),
    Kind.GAUSSIAN: _Law(
        -0.0, 1.0,
        lambda z, s: np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi)),
        _gaussian("cdf"), _gaussian("log_sf"), _gaussian("quantile")),
    Kind.GUMBEL: _Law(
        EULER_GAMMA, math.pi**2 / 6.0,
        lambda z, s: np.exp(-z - _gumbel_exp(z)) / s,
        lambda z: np.exp(-_gumbel_exp(z)), _gumbel_log_sf,
        lambda p: -np.log(-np.log(p))),
}


def sample(d: NoiseDist, rng: np.random.Generator,
           size: int | None = None) -> float | np.ndarray:
    """Inverse-cdf draw(s) from ``d`` using ``rng``'s uniform stream.

    Every law samples through its quantile function from a single
    ``rng.random()`` stream, so a fixed seed fixes the entire draw sequence
    across all distributions. A draw equals ``quantile(d, u)`` bit for bit,
    with u the uniform raised to the smallest positive double.

    Args:
        d: the law to sample.
        rng: a seeded numpy Generator.
        size: None for one scalar draw, else the number of draws.

    Returns:
        A float when ``size`` is None, otherwise an array of length ``size``.
    """
    std = _LAWS[d.kind].quantile
    if size is None:
        return float(d.location + d.scale * std(max(rng.random(), _TINY_U)))
    out = std(np.maximum(rng.random(size), _TINY_U))
    out *= d.scale
    out += d.location
    return out


@dataclass(frozen=True)
class TailCheckResult:
    """Outcome of a survival-ratio Lipschitz probe.

    max_violation is the largest observed
    |log sf(x) - log sf(x + shift)| - k2*|shift| over the usable grid
    points; a law eligible as pure-DP query noise stays <= 0 up to float
    noise. Grid points where the cdf is exactly 1 (survival underflows)
    are skipped and listed in ``skipped``.
    """

    max_violation: float
    skipped: tuple[float, ...] = field(default=())


def lipschitz_tail_check(d: NoiseDist, k2: float, shift: float,
                         grid) -> TailCheckResult:
    """Probe the survival-function Lipschitz bound with constant ``k2``.

    Evaluates |log(1-F(x)) - log(1-F(x+shift))| - k2*|shift| over ``grid``
    and returns the maximum. Points where either survival probability is
    exactly zero in double precision are undefined and reported instead of
    evaluated; if every point is skipped the violation is -inf.
    """
    checks.finite(shift=shift)
    checks.positive(k2=k2, abs_shift=abs(shift))
    xs = np.asarray(grid, dtype=float)
    left = np.asarray(log_sf(d, xs))
    right = np.asarray(log_sf(d, xs + shift))
    usable = np.isfinite(left) & np.isfinite(right)
    skipped = tuple(float(x) for x in xs[~usable])
    if not np.any(usable):
        return TailCheckResult(float("-inf"), skipped)
    violation = np.abs(left[usable] - right[usable]) - k2 * abs(shift)
    return TailCheckResult(float(np.max(violation)), skipped)
