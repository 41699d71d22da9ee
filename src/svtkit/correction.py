"""Threshold-correction engine.

The corrected mechanism adds an offset r to the noisy threshold to counter
the one-sided query noise. The right r maximizes the success probability

    p(r) = Gamma(r + alpha)^k * (1 - Gamma(r - alpha)),

where Gamma is the cdf of Z = X - Y for X the exponential query noise
(rate lambda) and Y the Laplace threshold noise (scale b), k the expected
number of negatives answered before a positive, and alpha the score
tolerance. The optimizer is numerical: it discretizes both laws on a
shared mesh, convolves them with FFT into the law of Z, reads Gamma off
that law's step cdf, and takes the grid argmax of p. The bracket
bookkeeping keeps the probability mass outside the finite grid accounted
for.

The two transforms are the floor of a cold call; every other pass over the
grid is cut to what the result needs. Each law's cdf at the mesh edges
comes from ``noise``, which evaluates the exponential only from its
location up and the Laplace at location 0 only on the edges up to 0. At
the grid's own values r, r +- alpha is the grid moved by about alpha/mesh
chunks, so the optimizer finds each step-cdf index with one search over
the grid values so moved, a window of the grid; at alpha = 0 it is a slice
of the running cdf. It reads log p only in a window that holds its maximum
(checked; else the whole grid), and exponentiates it only near that
maximum. Each keeps every result bit.

The closed-form Gamma of the same difference is kept as an independent
oracle: the tests and the benchmark check the grid against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from . import checks, noise
from .allocation import query_sensitivity
from .noise import NoiseDist, _as_given

DEFAULT_MESH_COUNT = 20001
DEFAULT_TAIL_MASS = 1e-10

# Above this value of z*(mu - b)/(b*mu) the expm1 orientation of the
# survival's first term would overflow; the direct difference of
# exponentials is then itself cancellation-free.
_EXPM1_ARG_CAP = 50.0


@dataclass(frozen=True, eq=False)
class DiscretePmf:
    """A distribution discretized on a uniform mesh, plus tail brackets.

    Chunk i covers [i*u, (i+1)*u) and is represented at its left edge i*u;
    ``mass[j]`` is the mass of chunk ``origin_index + j``. Everything below
    the lowest chunk edge sits in ``neg_inf_mass`` and everything at or
    above the highest right edge in ``pos_inf_mass``, so the three parts
    always sum to 1.
    """

    mesh: float
    origin_index: int
    mass: np.ndarray
    neg_inf_mass: float
    pos_inf_mass: float

    def values(self) -> np.ndarray:
        """Left-edge value of each chunk."""
        values = np.arange(self.origin_index,
                           self.origin_index + len(self.mass), dtype=float)
        values *= self.mesh
        return values

    def total_mass(self) -> float:
        return float(self.neg_inf_mass + self.mass.sum() + self.pos_inf_mass)

    @cached_property
    def _cum(self) -> np.ndarray:
        """Running cdf: cum[0] is the mass below every chunk, cum[i + 1]
        the step cdf at chunk i's value."""
        cum = np.empty(len(self.mass) + 1)
        cum[0] = self.neg_inf_mass
        np.cumsum(self.mass, out=cum[1:])
        cum[1:] += self.neg_inf_mass
        if cum[-1] > 1.0:  # rounding can carry the sum past 1
            np.minimum(cum, 1.0, out=cum)
        return cum

    @cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(chunk values, :attr:`_cum`) for :func:`pmf_cdf`, whose
        searchsorted indices map straight into the cdf."""
        return self.values(), self._cum


@dataclass(frozen=True)
class CorrectionQuery:
    """Inputs of a correction-term optimization.

    Args:
        b: Laplace threshold-noise scale.
        lam: exponential query-noise rate.
        alpha: score tolerance (nonnegative).
        k: expected negatives answered per positive, at least 1.
        m: mesh count per side for the numerical path.
        e: tail mass left outside the grid boundary, in (2^-54, 0.5): a
            smaller e leaves 1 - e at 1.0.
    """

    b: float
    lam: float
    alpha: float
    k: int
    m: int = DEFAULT_MESH_COUNT
    e: float = DEFAULT_TAIL_MASS

    def __post_init__(self) -> None:
        checks.positive(b=self.b, lam=self.lam)
        checks.nonnegative(alpha=self.alpha)
        checks.count(1, k=self.k)
        checks.count(2, m=self.m)
        checks.within(2.0 ** -54, 0.5, e=self.e)
        e_up = 1.0 - (1.0 - self.e)  # the upper tail at 1 - e, as rounded
        if 2.0 * max(self.b * -math.log(2.0 * min(self.e, e_up)),  # the
                     -math.log(e_up) / self.lam) == math.inf:  # grid's reach
            raise ValueError(f"b, lam and e overflow the grid bound: {self}")

    @classmethod
    def from_budget(cls, eps1: float, eps2: float, c: int, delta: float,
                    monotonic: bool, alpha: float, k: int,
                    m: int = DEFAULT_MESH_COUNT,
                    e: float = DEFAULT_TAIL_MASS) -> "CorrectionQuery":
        """The query of the optimally corrected exponential variant:
        b = delta/eps1 and lam = eps2/query_sensitivity(c, delta, monotonic)."""
        checks.positive(eps1=eps1, eps2=eps2)
        lam = eps2 / query_sensitivity(c, delta, monotonic)
        return cls(b=delta / eps1, lam=lam, alpha=alpha, k=k, m=m, e=e)


def discretize(d: NoiseDist, m: int, B: float) -> DiscretePmf:
    """Discretize ``d`` on 2m-2 chunks covering [-(m-1)u, (m-1)u), u = B/(m-1).

    Chunk i in [-m+1, m-2] receives cdf((i+1)u) - cdf(iu); the mass below
    -(m-1)u and at or above (m-1)u goes to the brackets. The pieces
    telescope, so total mass is exactly 1 up to float summation.
    """
    checks.count(2, m=m)
    checks.positive(B=B)
    return _discretize(d, m, B, np.empty(2 * m - 2))


def _discretize(d: NoiseDist, m: int, B: float, mass: np.ndarray) -> DiscretePmf:
    """:func:`discretize`, its masses written into ``mass`` (any view)."""
    u = B / (m - 1)
    zeros, cdf_edges = noise._edge_cdf(d, m, u)  # 2m-1 edges, 2m-2 chunks
    j = max(zeros - 1, 0)  # the chunks between two +0.0 edges hold 0.0
    mass[:j], rest = 0.0, mass[j:]
    np.subtract(cdf_edges[j + 1:], cdf_edges[j:-1], rest)
    np.maximum(rest, 0.0, out=rest)
    return DiscretePmf(mesh=u, origin_index=-m + 1, mass=mass,
                       neg_inf_mass=float(cdf_edges[0]),
                       pos_inf_mass=float(1.0 - cdf_edges[-1]))


def convolve_difference(x: DiscretePmf, y: DiscretePmf) -> DiscretePmf:
    """Law of Z = X - Y for independent discretized X and Y.

    Reflects y's grid and convolves the mass arrays with FFT, both forward
    transforms as one ``rfft`` of a new (2, nf) block whose rows are x.mass
    and y.mass[::-1] zero-padded. Bracket algebra: a pair with one infinite
    operand lands in that bracket, two matching infinities stay there, and
    the mass of the opposing pairs (-inf of one with +inf of the other) is
    split evenly between both brackets -- with the default tail mass that
    product is around 1e-20 and only kept so the total stays exactly 1.
    """
    if abs(x.mesh - y.mesh) > 1e-12 * max(x.mesh, y.mesh):
        raise ValueError(f"mismatched mesh: {x.mesh} vs {y.mesh}")
    rows = np.zeros((2, _fast_len(len(x.mass) + len(y.mass) - 1)))
    rows[0, :len(x.mass)], rows[1, :len(y.mass)] = x.mass, y.mass[::-1]
    return _convolve_rows(x, y, rows)


def _convolve_rows(x: DiscretePmf, y: DiscretePmf,
                   rows: np.ndarray) -> DiscretePmf:
    """:func:`convolve_difference` over ``rows``, a C-contiguous (2, nf)
    block holding x.mass and y.mass[::-1], each zero-padded to nf."""
    r_mass = y.mass[::-1]
    r_origin = -(y.origin_index + len(y.mass) - 1)
    r_neg, r_pos = y.pos_inf_mass, y.neg_inf_mass
    n, nf = len(x.mass) + len(r_mass) - 1, rows.shape[1]
    # numpy's pocketfft transforms rows in SIMD pairs, bits equal to one row
    # at a time, but only rows already nf long: a row it pads runs alone
    spectrum, r_spectrum = np.fft.rfft(rows, axis=1)
    spectrum *= r_spectrum
    # the product's inverse overwrites r_spectrum, whose nf/2+1 complex
    # entries hold the nf reals
    z_mass = np.fft.irfft(spectrum, nf, out=r_spectrum.view(float)[:nf])[:n]
    np.maximum(z_mass, 0.0, out=z_mass)
    x_fin = float(x.mass.sum())
    y_fin = float(r_mass.sum())
    opposing = 0.5 * (x.pos_inf_mass * r_neg + x.neg_inf_mass * r_pos)
    pos = x_fin * r_pos + x.pos_inf_mass * y_fin + x.pos_inf_mass * r_pos + opposing
    neg = x_fin * r_neg + x.neg_inf_mass * y_fin + x.neg_inf_mass * r_neg + opposing
    return DiscretePmf(mesh=x.mesh, origin_index=x.origin_index + r_origin,
                       mass=z_mass, neg_inf_mass=neg, pos_inf_mass=pos)


def _fast_len(n: int) -> int:
    """The least 2**a * 3**b * 5**c at or above n, the padded length
    ``scipy.fft.next_fast_len(n, True)`` gives a real transform."""
    below = n - 1
    best = 1 << below.bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of 2 reaching n
            fit = p35 << (below // p35).bit_length()
            if fit < best:
                best = fit
            p35 *= 3
        p5 *= 5
    return best


def pmf_cdf(pmf: DiscretePmf, t) -> float | np.ndarray:
    """Step cdf of a discretized law: P[Z <= t] counting chunks by left edge,
    NaN at a NaN t."""
    values, cum = pmf._steps
    tarr = np.asarray(t, dtype=float)
    idx = np.searchsorted(values, tarr, side="right")
    return _as_given(np.where(np.isnan(tarr), np.nan, cum[idx]), t)


def difference_cdf(z, b: float, lam: float) -> float | np.ndarray:
    """Closed-form cdf of Z = X - Y, X ~ Exp(rate lam), Y ~ Laplace(b)."""
    checks.positive(b=b, lam=lam)
    cdf, _ = _difference_cdf_sf(z, b, 1.0 / lam)
    return _as_given(cdf, z)


def difference_sf(z, b: float, lam: float) -> float | np.ndarray:
    """Closed-form survival 1 - cdf of Z = X - Y, cancellation-free tails."""
    checks.positive(b=b, lam=lam)
    _, sf = _difference_cdf_sf(z, b, 1.0 / lam)
    return _as_given(sf, z)


def _sf_positive(zh: np.ndarray, b: float, mu: float) -> np.ndarray:
    """Survival of Exp(mean mu) - Laplace(b) at z > 0, cancellation-free.

    The textbook form

        mu^2/(mu^2 - b^2) * exp(-z/mu) + b/(2(b - mu)) * exp(-z/b)

    subtracts two terms of size ~b/(2|mu - b|) and loses all precision as
    mu approaches b. Rearranged exactly (D = mu - b):

        sf = exp(-z/b) * (b/(2D)) * expm1(z*D/(b*mu))
             + exp(-z/mu) * (2*mu + b) / (2*(mu + b))

    Both terms are nonnegative for every mu, b, z > 0, and the first has
    the exact limit z/(2*mu) * exp(-z/b) at D = 0. For large positive
    expm1 arguments (only possible when mu > b) the orientation flips back
    to the plain difference of exponentials, which is then itself far from
    cancellation.
    """
    d = mu - b
    second = np.exp(-zh / mu) * (2.0 * mu + b) / (2.0 * (mu + b))
    if d == 0.0:
        return np.exp(-zh / b) * zh / (2.0 * mu) + second
    arg = zh * (d / (b * mu))
    first = np.empty_like(zh)
    small = arg <= _EXPM1_ARG_CAP
    first[small] = (np.exp(-zh[small] / b) * (b / (2.0 * d))
                    * np.expm1(arg[small]))
    big = ~small
    first[big] = (b / (2.0 * d)) * (np.exp(-zh[big] / mu)
                                    - np.exp(-zh[big] / b))
    return first + second


def _difference_cdf_sf(z, b: float, mu: float):
    """cdf and survival of Exp(mean mu) - Laplace(b)."""
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    cdf = np.empty_like(zarr)
    sf = np.empty_like(zarr)

    low = zarr <= 0
    zl = zarr[low]
    cdf_low = b * np.exp(zl / b) / (2.0 * (mu + b))
    cdf[low] = cdf_low
    sf[low] = 1.0 - cdf_low

    sf_high = _sf_positive(zarr[~low], b, mu)
    sf[~low] = sf_high
    cdf[~low] = 1.0 - sf_high
    return np.clip(cdf, 0.0, 1.0), np.clip(sf, 0.0, 1.0)


def _log_difference_cdf(z, b: float, mu: float) -> np.ndarray:
    """log of the difference cdf, stable in both tails (mu = 1/rate)."""
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(zarr)
    low = zarr <= 0
    out[low] = math.log(b / (2.0 * (mu + b))) + zarr[low] / b
    sf_high = np.clip(_sf_positive(zarr[~low], b, mu), 0.0, 1.0)
    out[~low] = np.log1p(-sf_high)
    return out


def success_probability_analytical(r, q: CorrectionQuery) -> float | np.ndarray:
    """Closed-form p(r) = Gamma(r+alpha)^k * (1 - Gamma(r-alpha)).

    Evaluates the piecewise closed form of Gamma; the three branches in r
    (below -alpha, between, above alpha) come from which side of 0 the two
    shifted arguments land on. On the line b = 1/lam, where the raw closed
    form is singular, the exact removable limit is used.
    """
    rarr = np.atleast_1d(np.asarray(r, dtype=float))
    mu = 1.0 / q.lam
    log_gamma_plus = _log_difference_cdf(rarr + q.alpha, q.b, mu)
    _, sf_minus = _difference_cdf_sf(rarr - q.alpha, q.b, mu)
    with np.errstate(divide="ignore"):
        log_p = q.k * log_gamma_plus + np.log(sf_minus)
    out = np.clip(np.exp(log_p), 0.0, 1.0)
    return _as_given(out, r)


# glibc's malloc serves a block above its mmap threshold (128 KB at start)
# from freshly mapped pages and unmaps them on free, and returns free heap
# top beyond a trim threshold to the system. Freeing a mapped block of up to
# 32 MB raises the mmap threshold to its size and the trim threshold to
# twice that. So one 4 MB block, made and freed before the first grid, keeps
# every grid's arrays (up to 1.28 MB each) on heap pages that the grid
# before freed, not on pages faulted in anew. Elsewhere it is one spare block.
@cache
def _raise_mmap_threshold() -> None:
    np.empty(1 << 19)


def _difference_grid(q: CorrectionQuery) -> DiscretePmf:
    """Discretized Z = X - Y for q's query law X and threshold law Y, on the
    mesh bounded by the largest |quantile| of either law at e and 1 - e
    (four scalar draws). Nothing keeps it or its arrays after the call. A
    cold :func:`optimal_correction` call on the default grid (m = 20001)
    makes a (2, 80000) block of both laws' zero-padded masses and one of
    their spectra, Z's mass written over the second (1.28 MB each); per law
    an array of its cdf at the 2m - 1 edges (320 KB) and one of the m edges
    it evaluates (160 KB); Z's running cdf (640 KB); and arrays of the
    window's size per read, at alpha = 0 one copy of the cdf's window.
    numpy.fft adds its own scratch."""
    _raise_mmap_threshold()
    laws = noise.exponential(1.0 / q.lam), noise.laplace(q.b)
    B = max(abs(noise.from_uniform(d, p)) for d in laws
            for p in (q.e, 1.0 - q.e))
    return _block_difference(*laws, q.m, B)


def _block_difference(x_law: NoiseDist, y_law: NoiseDist, m: int,
                      B: float) -> DiscretePmf:
    """``convolve_difference`` of both laws discretized on (m, B), their
    masses written into the block it transforms, y's reversed into row 1."""
    n = 2 * m - 2
    rows = np.empty((2, _fast_len(2 * n - 1)))
    rows[:, n:] = 0.0
    x_mass, r_mass = rows[:, :n]
    return _convolve_rows(_discretize(x_law, m, B, x_mass),
                          _discretize(y_law, m, B, r_mass[::-1]), rows)


def _log_success(q: CorrectionQuery, gamma_plus: np.ndarray,
                 gamma_minus: np.ndarray) -> np.ndarray:
    """log p = k log Gamma(r + alpha) + log1p(-Gamma(r - alpha)), written
    over gamma_minus, and over gamma_plus unless it is gamma_minus."""
    with np.errstate(divide="ignore"):
        log_plus = np.log(gamma_plus,
                          None if gamma_plus is gamma_minus else gamma_plus)
        log_plus *= q.k
        log_p = np.log1p(np.negative(gamma_minus, gamma_minus), gamma_minus)
    log_p += log_plus
    return log_p


def _grid_cdf(pmf: DiscretePmf, shift: float, start: int,
              stop: int) -> np.ndarray:
    """``pmf_cdf(pmf, values + shift)`` at the values of index start to
    stop - 1, bit for bit, each value (origin + i) * mesh, in a new array.
    At shift +-0.0 value i's step cdf is cum[i + 1], as the grid's values
    are distinct (a query's grid reaches a finite 2B). Else value i plus
    shift lies within two grid values of value i + d, for
    d = floor(shift / mesh) clipped to +-(n + 2). So one search over the
    grid values of index start + d - 2 to stop + d + 1 (those in the grid),
    offset by that window's start, finds each step-cdf index."""
    cum, n, o, u = pmf._cum, len(pmf.mass), pmf.origin_index, pmf.mesh
    if not shift:  # a copy: the caller writes over it
        return cum[start + 1:stop + 1].copy()
    d = int(min(max(shift // u, -n - 2), n + 2))
    a = min(max(start + d - 2, 0), n)
    b = min(max(stop + d + 2, a), n)
    first = min(start, a)
    values = np.arange(o + first, o + max(stop, b), dtype=float) * u
    t = values[start - first:stop - first] + shift
    return cum[a + np.searchsorted(values[a - first:b - first], t, "right")]


def _read(q: CorrectionQuery, z: DiscretePmf, lo: int,
          hi: int) -> tuple[np.ndarray, float]:
    """log p at the grid indices lo to hi - 1, and a bound on it at every
    other index: k log Gamma(r + alpha) at lo bounds it below lo, and
    log1p(-Gamma(r - alpha)) at hi - 1 from hi on, as both Gammas grow."""
    gamma_plus = _grid_cdf(z, q.alpha, lo, hi)
    gamma_minus = _grid_cdf(z, -q.alpha, lo, hi) if q.alpha else gamma_plus
    with np.errstate(divide="ignore"):
        below = q.k * np.log(gamma_plus[0]) if lo else -np.inf
        above = np.log1p(-gamma_minus[-1]) if hi < len(z.mass) else -np.inf
    return _log_success(q, gamma_plus, gamma_minus), max(below, above)


def _first_argmax_exp(log_p: np.ndarray) -> tuple[int, float]:
    """``np.argmax(np.exp(log_p))`` and the p there, exponentiating only
    entries within 1e-3 of the maximum. exp is monotone and exp(max) is
    normal, so every tie of the maximum after rounding is among them; a
    NaN maximum or a subnormal one, where ties widen, takes the full exp."""
    top = log_p.max()
    near = (np.flatnonzero(log_p >= top - 1e-3) if top >= -700.0
            else np.arange(len(log_p)))
    p = np.exp(log_p[near])
    best = int(np.argmax(p))
    return int(near[best]), float(p[best])


@lru_cache(maxsize=64)
def optimal_correction(q: CorrectionQuery) -> tuple[float, float]:
    """Grid argmax of the success probability on the discretized difference law.

    Discretizes both laws out to the boundary where each leaves at most
    ``q.e`` mass behind, convolves to the law of Z = Exp - Lap, and
    maximizes p(r) over the chunk grid. Ties break toward the smaller r.
    The result is memoized (the grid is not): a simulation re-runs one
    configuration many times and the argmax is pure.

    Returns:
        (r_op, p_at_r_op): the maximizing grid value and p there.
    """
    z = _difference_grid(q)
    cum, n = z._cum, len(z.mass)
    # The window: where k log Gamma(r + alpha) and log1p(-Gamma(r - alpha)),
    # bounds of log p, both reach 1 below its value at the first Gamma >= k/(k+1).
    i = min(np.searchsorted(cum[1:], q.k / (q.k + 1)), n - 1)
    level = _read(q, z, i, i + 1)[0][0] - 1.0
    w = math.ceil(min(q.alpha / z.mesh, n)) + 3
    lo = min(max(np.searchsorted(cum, math.exp(level / q.k)) - w, 0), i)
    hi = max(min(np.searchsorted(cum, -math.expm1(level), "right") + w, n), i + 1)
    log_p, outside = _read(q, z, lo, hi)
    top = log_p.max()
    # The whole grid where an index outside may come within 1e-3 of the top
    # (0.5 is far above rounding) or top < -700.
    if hi - lo < n and not (top >= -700.0 and outside <= top - 0.5):
        lo, log_p = 0, _read(q, z, 0, n)[0]
    best, p = _first_argmax_exp(log_p)
    return float((z.origin_index + lo + best) * z.mesh), p


def correction_sweep(q: CorrectionQuery, r_grid) -> list[tuple[float, float]]:
    """Evaluate the numerical success probability on caller-chosen r values.

    Points outside the discretized support are evaluated against the step
    cdf's flat extensions (0 below, 1 minus the bracket above), which is
    the honest reading of the grid; keep the grid inside the support for
    plot-quality values. A NaN r gives a NaN p. ``r_grid`` is 1-d.
    """
    rarr = np.asarray(r_grid, dtype=float)
    if rarr.ndim != 1:
        raise ValueError(f"r_grid must be 1-d, got shape {rarr.shape}")
    z = _difference_grid(q)
    p = np.exp(_log_success(q, pmf_cdf(z, rarr + q.alpha),
                            pmf_cdf(z, rarr - q.alpha)))
    return [(float(r), float(v)) for r, v in zip(rarr, p)]
