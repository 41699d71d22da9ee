"""Calibrated noise distributions with seeded sampling and tail diagnostics.

All four laws used by the mechanism variants live here, one row each of the
law table ``_LAWS``: Laplace (threshold noise and one query-noise baseline),
exponential (the one-sided query noise), Gaussian, and Gumbel. Each has a kind,
a scale and a location, and exposes pdf, cdf, quantile, and inverse-cdf
sampling from a single uniform stream, array draws made in place. Scalar draws
keep numpy's log and log1p: on an AVX-512 host, the math module's differ from
them bitwise in 35,032 of 10^7 values of log(2u) and 737,311 of log1p(-u). The
log-survival helpers back the tail Lipschitz check that decides whether a law
is eligible as pure-DP query noise.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import checks

EULER_GAMMA = 0.5772156649015329

# Smallest positive double; keeps inverse-cdf sampling finite if the
# underlying uniform stream ever returns exactly 0. Arrays are clamped to a
# read-only 0-d copy, which numpy 2 takes faster than a Python float.
_TINY_U = 5e-324
_TINY_0D = np.broadcast_to(_TINY_U, ())


class Kind(enum.Enum):
    LAPLACE = "laplace"
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    GUMBEL = "gumbel"
    __hash__ = object.__hash__  # each draw's _LAWS lookup: skip Enum's hash


def field_state(record) -> dict:
    """A dataclass's fields by name, what its pickles and copies carry:
    values kept from first use are computed anew by the copy."""
    return {name: vars(record)[name] for name in record.__dataclass_fields__}


def sealed(array: np.ndarray) -> np.ndarray:
    """A read-only view of an array the library made, itself marked
    read-only so that no view of it can be made writable again."""
    array.setflags(False)
    return array.view()


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

    # Read-only 0-d copies of (scale, -scale, location), the operands of
    # the array draws, kept from the first one and not pickled.
    _operands = cached_property(lambda d: tuple(
        sealed(np.array(float(v))) for v in (d.scale, -d.scale, d.location)))
    __getstate__ = field_state

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
    return _as_given(_cdf_into(d, np.array(x, dtype=float)), x)


def _cdf_into(d: NoiseDist, x: np.ndarray) -> np.ndarray:
    """:func:`cdf` of ``d`` at the float array ``x``, written over x."""
    if d.location:  # x - 0.0 is x; each cdf maps -0.0 as it maps +0.0
        x -= d.location
    x /= d.scale
    return _LAWS[d.kind].cdf(x, x)


def _edge_cdf(d: NoiseDist, m: int, u: float) -> tuple[int, np.ndarray]:
    """(j, F): F[i] the :func:`cdf` of ``d`` at the edge k*u, k = i - m + 1,
    for the 2m - 1 edges from -(m - 1)u to (m - 1)u, bit for bit.

    An exponential law's cdf is +0.0 at the j edges below its location,
    which are neither built nor evaluated (j = 0 for the other laws). A
    Laplace law at location +-0.0 is evaluated on the m edges from
    -(m - 1)u to 0 only: the edge k*u is the exact negative of -k*u, and
    its cdf, 1 - 0.5 exp(-k*u/b), is 1 less the cdf at -k*u."""
    cdf = np.empty(2 * m - 1)
    if d.kind is Kind.LAPLACE and not d.location:
        np.multiply(np.arange(1 - m, 1, dtype=float), u, cdf[:m])
        _cdf_into(d, cdf[:m])
        np.subtract(1.0, cdf[m - 2::-1], cdf[m:])
        return 0, cdf
    j = (bisect.bisect_left(range(1 - m, m), d.location, key=u.__mul__)
         if d.kind is Kind.EXPONENTIAL else 0)
    cdf[:j] = 0.0
    np.multiply(np.arange(j + 1 - m, m, dtype=float), u, cdf[j:])
    _cdf_into(d, cdf[j:])
    return j, cdf


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
    parr = np.array(p, dtype=float)
    if not np.all((0.0 < parr) & (parr < 1.0)):
        raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
    return _as_given(from_uniform(d, parr), p)


class _Law(NamedTuple):
    """One law at location 0 and scale 1, at the standardized point z.

    ``mean`` and ``variance`` are per unit of scale and of scale squared
    (the symmetric laws' -0.0 keeps location + mean * scale the location,
    bit for bit); ``pdf`` divides by the scale inside its own expression.
    ``cdf(z, out)`` writes into ``out`` when given (``out`` may be z), else
    into a new array. ``quantile`` takes p in (0, 1), a float or, as
    ``quantile(p, p)``, an array it overwrites (:func:`from_uniform` makes
    exponential arrays itself); no logarithm's argument reaches zero there
    (the Laplace 2(1 - p) is at least 2**-52), so no law needs clipping or
    errstate.
    """

    mean: float
    variance: float
    pdf: Callable
    cdf: Callable
    log_sf: Callable
    quantile: Callable


def _into(z, out):
    """``out``, or a new float array shaped like z (0-d for a scalar)."""
    return np.empty_like(z, dtype=float) if out is None else out


def _laplace_cdf(z, out=None):
    # 0.5 exp(-|z|) is 0.5 exp(z) below 0; from 0 up the cdf is 1 minus it.
    # The mask is taken first: out may be z.
    upper = z >= 0
    out = np.abs(z, _into(z, out))
    np.exp(np.negative(out, out), out)
    out *= 0.5
    return np.subtract(1.0, out, out, where=upper)


def _exponential_cdf(z, out=None):
    # -expm1(-clip(z, 0)) is already +0.0 wherever z < 0
    out = np.clip(z, 0, None, _into(z, out))
    np.expm1(np.negative(out, out), out)
    return np.negative(out, out)


# The array quantile's constants, as read-only 0-d operands.
_HALF_UP, _ONE, _TWO = (np.broadcast_to(v, ()) for v in (0.5000000000000001,
                                                         1.0, 2.0))


def _laplace_quantile(p, out=None):
    if out is None:
        return np.log(2.0 * p) if p < 0.5 else -np.log(2.0 * (1.0 - p))
    # min(p, 1 - p) is each branch's operand, p - (1/2 + 2**-53) its sign
    sign = p - _HALF_UP
    np.multiply(np.minimum(p, _ONE - p, out=out), _TWO, out)
    return np.copysign(np.log(out, out), sign, out)


def _gaussian(name: str) -> Callable:
    """The Gaussian law's ``name`` (cdf, log_sf or quantile) until its
    first call. Only the Gaussian law needs special functions, and
    scipy.special takes longer to import than the rest of svtkit, so that
    call imports it and puts scipy's functions in the law's row."""
    def first_call(*args):
        from scipy.special import log_ndtr, ndtr, ndtri
        law = _LAWS[Kind.GAUSSIAN] = _LAWS[Kind.GAUSSIAN]._replace(
            cdf=ndtr, log_sf=lambda z: log_ndtr(-z), quantile=ndtri)
        return getattr(law, name)(*args)
    return first_call


def _gumbel_exp(z, out=None):
    # exp(-z) overflows to inf below z of about -709; every Gumbel
    # expression built on it still reaches its limit there.
    with np.errstate(over="ignore"):
        return np.exp(np.negative(z, out), out)


def _gumbel_cdf(z, out=None):
    out = _gumbel_exp(z, _into(z, out))
    return np.exp(np.negative(out, out), out)


def _gumbel_log_sf(z):
    # 1 - exp(-exp(-z)); -expm1 keeps precision while exp(-z) > 0.
    with np.errstate(divide="ignore"):
        return np.log(-np.expm1(-_gumbel_exp(z)))


_LAWS = {
    Kind.LAPLACE: _Law(
        -0.0, 2.0, lambda z, s: np.exp(-np.abs(z)) / (2.0 * s),
        _laplace_cdf,
        lambda z: np.where(z < 0, np.log1p(-0.5 * np.exp(np.clip(z, None, 0))),
                           math.log(0.5) - z), _laplace_quantile),
    Kind.EXPONENTIAL: _Law(
        1.0, 1.0,
        lambda z, s: np.where(z < 0, 0.0, np.exp(-np.clip(z, 0, None)) / s),
        _exponential_cdf,
        lambda z: np.where(z < 0, 0.0, -np.clip(z, 0, None)),
        lambda p: -np.log1p(-p)),
    Kind.GAUSSIAN: _Law(
        -0.0, 1.0,
        lambda z, s: np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi)),
        _gaussian("cdf"), _gaussian("log_sf"), _gaussian("quantile")),
    Kind.GUMBEL: _Law(
        EULER_GAMMA, math.pi**2 / 6.0,
        lambda z, s: np.exp(-z - _gumbel_exp(z)) / s,
        _gumbel_cdf, _gumbel_log_sf,
        lambda p, out=None: np.negative(
            np.log(np.negative(np.log(p, out), out), out), out)),
}
_EXPONENTIAL = Kind.EXPONENTIAL  # read per draw: an alias skips EnumType


def from_uniform(d: NoiseDist, u: float | np.ndarray) -> float | np.ndarray:
    """The draw(s) of ``d`` at uniform(s) ``u`` in [0, 1) raised to the
    smallest positive double: a float for a float, else written into ``u``."""
    law = _LAWS[d.kind]
    if isinstance(u, float):
        q = float(law.quantile(max(u, _TINY_U)))
        return float(d.location + d.scale * q)  # fields may be numpy's
    scale, negative_scale, location = d._operands
    np.maximum(u, _TINY_0D, out=u)
    if d.kind is not _EXPONENTIAL:
        np.multiply(law.quantile(u, u), scale, u)
    else:  # = -log1p(-u) * scale bitwise; never -0.0, so + 0.0 changes nothing
        np.multiply(np.log1p(np.negative(u, u), u), negative_scale, u)
        if not d.location:
            return u
    u += location
    return u


def sample(d: NoiseDist, rng: np.random.Generator,
           size: int | None = None) -> float | np.ndarray:
    """Inverse-cdf draw(s) from ``d`` using ``rng``'s uniform stream.

    Every law samples through its quantile function from a single
    ``rng.random()`` stream, so a fixed seed fixes the entire draw sequence
    across all distributions. A draw equals ``quantile(d, u)`` bit for bit,
    with u the uniform raised to the smallest positive double.

    Args:
        d: the law to sample.
        rng: a seeded ``numpy.random.Generator`` (``ValueError`` otherwise).
        size: None for one scalar draw, else the number of draws.

    Returns:
        A float when ``size`` is None, otherwise an array of length ``size``.
    """
    if not isinstance(rng, np.random.Generator):
        checks.instance(np.random.Generator, rng=rng)
    return from_uniform(d, rng.random(size))


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
