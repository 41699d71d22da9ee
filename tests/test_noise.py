"""Noise distribution tests: closed-form point values, sampling laws,
quadrature and round-trip identities, and the log-tail Lipschitz diagnostic.
"""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from svtkit import noise

# Frozen independently of the implementation.
STD_NORMAL_Q975 = 1.959963984540054


def test_pdf_point_values():
    assert noise.pdf(noise.laplace(1.0), 0.0) == 0.5
    assert noise.pdf(noise.exponential(2.0), -1.0) == 0.0
    assert noise.pdf(noise.gumbel(1.0), 0.0) == pytest.approx(math.exp(-1), rel=1e-14)


def test_cdf_point_values():
    assert noise.cdf(noise.exponential(1.0), 0.0) == 0.0
    assert noise.cdf(noise.laplace(3.0), 0.0) == 0.5
    assert noise.cdf(noise.gumbel(1.0), 0.0) == pytest.approx(math.exp(-1), rel=1e-14)


def test_quantile_point_values():
    assert noise.quantile(noise.exponential(1.0), 1 - math.exp(-1)) == pytest.approx(1.0, rel=1e-12)
    assert noise.quantile(noise.laplace(1.0), 0.5) == 0.0
    assert noise.quantile(noise.gaussian(1.0), 0.975) == pytest.approx(STD_NORMAL_Q975, abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_quantile_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        noise.quantile(noise.laplace(1.0), p)


@pytest.mark.parametrize("build", [noise.laplace, noise.exponential,
                                   noise.gaussian, noise.gumbel])
def test_scale_must_be_positive(build):
    with pytest.raises(ValueError):
        build(0.0)
    with pytest.raises(ValueError):
        build(-1.0)


def test_sample_mean_exponential():
    """Law of large numbers: 1e6 draws from Exp(mean 2) average to 2 +- 0.01."""
    rng = np.random.default_rng(42)
    draws = noise.sample(noise.exponential(2.0), rng, size=1_000_000)
    assert abs(draws.mean() - 2.0) < 0.01


def test_sample_variance_laplace():
    """Var(Lap(b=1)) = 2b^2 = 2, estimated to +-0.05 from 1e6 draws."""
    rng = np.random.default_rng(43)
    draws = noise.sample(noise.laplace(1.0), rng, size=1_000_000)
    assert abs(draws.var() - 2.0) < 0.05


def test_sample_deterministic_given_seed():
    d = noise.gumbel(2.5, location=1.0)
    a = noise.sample(d, np.random.default_rng(7), size=100)
    b = noise.sample(d, np.random.default_rng(7), size=100)
    np.testing.assert_array_equal(a, b)


def test_sample_scalar_without_size():
    value = noise.sample(noise.laplace(1.0), np.random.default_rng(0))
    assert isinstance(value, float)


ALL_DISTS = [noise.laplace(1.5), noise.exponential(2.0, location=-1.0),
             noise.gaussian(0.7), noise.gumbel(3.0, location=2.0)]


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.kind.value)
def test_sampling_matches_cdf_ks(d):
    """KS statistic of 1e5 draws stays below the 1% critical value."""
    n = 100_000
    draws = noise.sample(d, np.random.default_rng(44), size=n)
    stat, _ = stats.kstest(draws, lambda x: noise.cdf(d, x))
    assert stat < 1.628 / math.sqrt(n)


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.kind.value)
def test_pdf_integrates_to_one(d):
    """Quadrature over a truncated support holding >= 1 - 1e-9 of the mass."""
    lo = noise.quantile(d, 5e-10)
    hi = noise.quantile(d, 1 - 5e-10)
    total, err = integrate.quad(lambda x: noise.pdf(d, x), lo, hi, limit=200)
    assert abs(total - 1.0) < 1e-6
    assert err < 1e-8


@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.kind.value)
@settings(max_examples=200, deadline=None)
@given(p=st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_cdf_quantile_roundtrip(d, p):
    back = noise.cdf(d, noise.quantile(d, p))
    assert back == pytest.approx(p, rel=1e-12)


def test_mean_and_variance_accessors():
    assert noise.exponential(2.0).mean() == 2.0
    assert noise.laplace(3.0).variance() == 18.0
    assert noise.gumbel(1.0).mean() == pytest.approx(noise.EULER_GAMMA)
    assert noise.gaussian(2.0, location=5.0).mean() == 5.0


# --- log-tail Lipschitz diagnostic -----------------------------------------

def test_tail_check_exponential_is_tight():
    """ln sf moves at exactly the rate lam on the exponential's support."""
    lam = 0.25
    d = noise.exponential(1.0 / lam)
    grid = np.linspace(0.0, 40.0, 200)
    result = noise.lipschitz_tail_check(d, k2=lam, shift=3.0, grid=grid)
    assert abs(result.max_violation) <= 1e-9
    assert result.skipped == ()


def test_tail_check_gumbel_satisfied():
    beta = 4.0
    d = noise.gumbel(beta)
    grid = np.linspace(-10.0, 60.0, 400)
    result = noise.lipschitz_tail_check(d, k2=1.0 / beta, shift=2.0, grid=grid)
    assert result.max_violation <= 1e-9


def test_tail_check_gaussian_fails_far_out():
    """No fixed rate caps the Gaussian log tail; violations grow with x."""
    d = noise.gaussian(1.0)
    grid = np.linspace(0.0, 8.0, 100)
    result = noise.lipschitz_tail_check(d, k2=2.0, shift=1.0, grid=grid)
    assert result.max_violation > 0


def test_tail_check_reports_skipped_points():
    """Grid points where the tail is numerically exhausted are skipped."""
    d = noise.gumbel(1.0)
    grid = [0.0, 800.0, 1000.0]
    result = noise.lipschitz_tail_check(d, k2=1.0, shift=1.0, grid=grid)
    assert result.skipped == (800.0, 1000.0)
    assert math.isfinite(result.max_violation)


def test_tail_check_rejects_zero_shift():
    with pytest.raises(ValueError):
        noise.lipschitz_tail_check(noise.laplace(1.0), k2=1.0, shift=0.0,
                                   grid=[0.0])


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=-50, max_value=50),
       shift=st.floats(min_value=-20, max_value=20),
       lam=st.floats(min_value=0.01, max_value=5.0))
def test_exponential_tail_lipschitz_property(x, shift, lam):
    """|ln sf(x) - ln sf(x+shift)| <= lam*|shift| for exponential noise."""
    d = noise.exponential(1.0 / lam)
    a = noise.log_sf(d, x)
    b = noise.log_sf(d, x + shift)
    assert abs(a - b) <= lam * abs(shift) + 1e-9


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=-60, max_value=60),
       shift=st.floats(min_value=-30, max_value=30),
       b=st.floats(min_value=0.5, max_value=10.0))
def test_laplace_density_lipschitz_property(x, shift, b):
    """|ln f(x) - ln f(x+shift)| <= |shift|/b for the Laplace density."""
    d = noise.laplace(b)
    a = math.log(noise.pdf(d, x))
    bb = math.log(noise.pdf(d, x + shift))
    assert abs(a - bb) <= abs(shift) / b + 1e-9


NAN, INF = float("nan"), float("inf")
LAWS = [noise.laplace(1.7), noise.exponential(2.5, location=-0.3),
        noise.gaussian(0.9, location=4.0), noise.gumbel(3.0)]
EDGE_U = [0.5, noise._TINY_U, 1.0 - 2.0**-53]


def reference_quantile(d, p):
    """The clipped, both-branch inverse cdf that sampling used before its
    per-law paths; kept as the oracle of their output bits."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        if d.kind is noise.Kind.LAPLACE:
            out = np.where(p < 0.5, np.log(2.0 * p),
                           -np.log(np.clip(2.0 * (1.0 - p), noise._TINY_U, None)))
        elif d.kind is noise.Kind.EXPONENTIAL:
            out = -np.log1p(-p)
        elif d.kind is noise.Kind.GAUSSIAN:
            out = special.ndtri(p)
        else:
            out = -np.log(-np.log(p))
    return d.location + d.scale * out


class FixedUniform(np.random.Generator):
    """A Generator whose uniform stream is ``values`` (``noise.sample``
    takes only a Generator); its bit generator is never read."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.kind.value)
def test_sample_paths_bit_identical_to_quantile(d):
    u = EDGE_U + np.random.default_rng(7).random(10_000).tolist()
    want = bits(reference_quantile(d, u))
    assert np.array_equal(bits(noise.quantile(d, u)), want)
    assert np.array_equal(bits(noise.sample(d, FixedUniform(u), size=len(u))), want)
    scalars = [noise.sample(d, FixedUniform([x])) for x in u]
    assert all(type(x) is float for x in scalars)
    assert np.array_equal(bits(scalars), want)
    assert np.array_equal(bits([noise.quantile(d, x) for x in EDGE_U]), want[:3])


@pytest.mark.parametrize("d", LAWS, ids=lambda d: d.kind.value)
def test_sample_raises_a_zero_uniform_to_the_smallest_double(d):
    want = bits(noise.quantile(d, noise._TINY_U))
    assert bits(noise.sample(d, FixedUniform([0.0]))) == want
    assert bits(noise.sample(d, FixedUniform([0.0]), size=1)) == want


@pytest.mark.parametrize("p", [NAN, [0.5, NAN], INF, -INF])
def test_quantile_rejects_non_finite(p):
    with pytest.raises(ValueError):
        noise.quantile(noise.laplace(1.0), p)


@pytest.mark.parametrize("scale", [INF, NAN, -INF])
def test_scale_must_be_finite(scale):
    with pytest.raises(ValueError):
        noise.NoiseDist(noise.Kind.LAPLACE, scale)


@pytest.mark.parametrize("k2, shift", [(INF, 1.0), (NAN, 1.0), (1.0, NAN),
                                       (1.0, INF), (1.0, -INF)])
def test_tail_check_rejects_non_finite(k2, shift):
    with pytest.raises(ValueError):
        noise.lipschitz_tail_check(noise.laplace(1.0), k2=k2, shift=shift,
                                   grid=[0.0, 1.0])


def test_tail_check_with_every_point_skipped():
    result = noise.lipschitz_tail_check(noise.gumbel(1.0), 1.0, 1.0, [1000.0])
    assert result.max_violation == -INF
    assert result.skipped == (1000.0,)


# --- law table: pdf, cdf, log_sf, mean and variance bit for bit -------------

def reference_law(d, x):
    """(pdf, cdf, log_sf) of ``d`` at ``x`` by the per-kind formulas the
    module used before its law table; kept as the oracle of their bits."""
    z = (np.asarray(x, dtype=float) - d.location) / d.scale
    with np.errstate(all="ignore"):
        if d.kind is noise.Kind.LAPLACE:
            pdf = np.exp(-np.abs(z)) / (2.0 * d.scale)
            cdf = np.where(z < 0, 0.5 * np.exp(np.clip(z, None, 0)),
                           1.0 - 0.5 * np.exp(-np.clip(z, 0, None)))
            log_sf = np.where(z < 0,
                              np.log1p(-0.5 * np.exp(np.clip(z, None, 0))),
                              math.log(0.5) - z)
        elif d.kind is noise.Kind.EXPONENTIAL:
            pdf = np.where(z < 0, 0.0, np.exp(-np.clip(z, 0, None)) / d.scale)
            cdf = np.where(z < 0, 0.0, -np.expm1(-np.clip(z, 0, None)))
            log_sf = np.where(z < 0, 0.0, -np.clip(z, 0, None))
        elif d.kind is noise.Kind.GAUSSIAN:
            pdf = np.exp(-0.5 * z * z) / (d.scale * math.sqrt(2.0 * math.pi))
            cdf = special.ndtr(z)
            log_sf = special.log_ndtr(-z)
        else:
            pdf = np.exp(-z - np.exp(-z)) / d.scale
            cdf = np.exp(-np.exp(-z))
            log_sf = np.log(-np.expm1(-np.exp(-z)))
    return pdf, cdf, log_sf


def reference_moments(d):
    """(mean, variance) of ``d`` by the formulas before the law table."""
    if d.kind is noise.Kind.EXPONENTIAL:
        mean = d.location + d.scale
    elif d.kind is noise.Kind.GUMBEL:
        mean = d.location + noise.EULER_GAMMA * d.scale
    else:
        mean = d.location
    coeff = {noise.Kind.LAPLACE: 2.0, noise.Kind.EXPONENTIAL: 1.0,
             noise.Kind.GAUSSIAN: 1.0, noise.Kind.GUMBEL: math.pi**2 / 6.0}
    return mean, coeff[d.kind] * d.scale**2


TABLE_LAWS = LAWS + ALL_DISTS + [
    noise.NoiseDist(kind, 0.8, location=-0.0) for kind in noise.Kind]
# Standardized points: both sides of 0, signed zeros, and tails deep
# enough that exp, expm1 and log_ndtr underflow or overflow.
TABLE_Z = [-1000.0, -745.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.5,
           1.5, 40.0, 745.0, 1000.0]


@pytest.mark.parametrize("d", TABLE_LAWS,
                         ids=lambda d: f"{d.kind.value}@{d.location}")
def test_law_table_bit_identical_to_per_kind_formulas(d):
    xs = [d.location + d.scale * z for z in TABLE_Z] + [d.location]
    xs += (d.location + 30.0 * np.random.default_rng(3).standard_normal(
        200)).tolist()
    funcs = (noise.pdf, noise.cdf, noise.log_sf)
    with np.errstate(all="ignore"):
        for f, want in zip(funcs, reference_law(d, xs)):
            got = f(d, np.array(xs))
            assert type(got) is np.ndarray
            assert np.array_equal(bits(got), bits(want)), f.__name__
        for x in xs[:len(TABLE_Z) + 1]:
            for value in (x, np.float64(x), np.array(x)):
                for f, want in zip(funcs, reference_law(d, x)):
                    got = f(d, value)
                    assert type(got) is float
                    assert bits(got) == bits(want), (f.__name__, x)
    mean, variance = reference_moments(d)
    assert bits(d.mean()) == bits(mean)
    assert bits(d.variance()) == bits(variance)
    assert bits(noise.law_variance(d.kind, d.scale)) == bits(variance)


@pytest.mark.parametrize("d", ALL_DISTS,
                         ids=lambda d: f"{d.kind.value}@{d.location}")
def test_scalar_draw_is_first_of_a_batch(d):
    """A scalar draw equals the first draw of a batch from the same seed,
    bit for bit: a per-call threshold draw may come from either path.
    The seeds' first uniforms fall on both sides of 0.5, the two branches
    of the Laplace quantile."""
    seeds = range(3000)
    first = [np.random.default_rng(s).random() for s in seeds]
    assert min(first) < 0.5 <= max(first)
    scalars = [noise.sample(d, np.random.default_rng(s)) for s in seeds]
    batches = [noise.sample(d, np.random.default_rng(s), size=3)[0]
               for s in seeds]
    assert np.array_equal(bits(scalars), bits(batches))


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
    np.random.Philox, np.random.SFC64], ids=lambda g: g.__name__)
@pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.kind.value)
def test_scalar_draws_are_one_block(d, bit_generator):
    """h consecutive scalar draws equal one draw of size h, bit for bit,
    and leave the generator in the same state: a run may draw its
    thresholds one by one or as one block."""
    for seed in range(6):
        for h in (1, 2, 7, 51, 4099):
            one, block = (np.random.Generator(bit_generator(seed))
                          for _ in range(2))
            scalars = [noise.sample(d, one) for _ in range(h)]
            assert np.array_equal(bits(scalars),
                                  bits(noise.sample(d, block, size=h)))
            np.testing.assert_equal(one.bit_generator.state,
                                    block.bit_generator.state)


@pytest.mark.parametrize("n", [1, 51, 4096, 4097])
@pytest.mark.parametrize("d", LAWS + ALL_DISTS + [
    noise.laplace(1.3, -0.0),
    noise.gumbel(np.float64(1.3), np.float64(0.5))],  # numpy fields
    ids=lambda d: f"{d.kind.value}@{d.location}")
def test_in_place_draws_equal_sample(d, n):
    """Draws made in place from the offset view u[1:] of one block, as a
    run draws its query noise after rho, are noise.sample's draws of the
    same uniforms bit for bit, signed zeros included (a location of -0.0
    keeps the Laplace draw's -0.0 at u = 0.5), and are the view itself; a
    scalar draw is a Python float, from a law with numpy fields too."""
    block = np.random.default_rng(n).random(1 + n)
    block[1:4] = [0.5, 0.0, 1.0 - 2.0**-53][:n]
    u = block[1:].tolist()
    want = bits(noise.sample(d, FixedUniform(u), size=n))
    assert np.array_equal(
        want, bits(reference_quantile(d, np.maximum(u, noise._TINY_U))))
    view = block[1:]
    got = noise.from_uniform(d, view)
    assert got is view and np.shares_memory(got, block)
    assert np.array_equal(bits(got), want)
    assert type(noise.from_uniform(d, block[0].item())) is float


def test_gumbel_far_lower_tail_is_quiet():
    """exp(-z) overflows to inf below z of about -709, where the Gumbel
    density, cdf and log-survival still reach their limits: no warning."""
    d = noise.gumbel(1.0)
    xs = np.array([-1000.0, -710.0, 0.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (noise.pdf, noise.cdf, noise.log_sf):
            assert f(d, -1000.0) == 0.0
            out = f(d, xs)
            assert out[0] == 0.0 and np.isfinite(out[2])


# --- law rows: cdf into a given array ----------------------------------------

# Signed zeros, infinities, NaN, subnormals, and points past exp's range.
OUT_Z = [0.0, -0.0, INF, -INF, NAN, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
         750.0, -750.0, 1.5, -1.5, 1e-17, -1e-17, 40.0, -40.0]


@pytest.mark.parametrize("kind", list(noise.Kind), ids=lambda k: k.value)
def test_law_cdf_into_out_equals_cdf(kind):
    """Each row's cdf(z, out), into a separate array or over z itself, is
    its out-of-place cdf(z) bit for bit, and that is the per-kind formula;
    noise.cdf keeps its (d, x) signature."""
    cdf = noise._LAWS[kind].cdf
    z = np.array(OUT_Z + np.random.default_rng(5).normal(0, 30, 200).tolist())
    d = noise.NoiseDist(kind, 1.0)
    with np.errstate(all="ignore"):
        want = cdf(z)
        assert np.array_equal(bits(want), bits(reference_law(d, z)[1]))
        out = np.full_like(z, 7.0)
        assert cdf(z, out) is out
        assert np.array_equal(bits(out), bits(want))
        inplace = z.copy()
        assert cdf(inplace, inplace) is inplace
        assert np.array_equal(bits(inplace), bits(want))
        for i, x in enumerate(OUT_Z):
            assert bits(noise.cdf(d, x)) == bits(want[i]), x
    assert list(inspect.signature(noise.cdf).parameters) == ["d", "x"]
