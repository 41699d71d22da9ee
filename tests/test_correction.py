"""Threshold-correction engine tests.

The analytical CDF of Z = Exp - Lap is cross-checked three independent
ways (hand-frozen closed-form points, numeric quadrature, direct Monte
Carlo sampling) before it serves as the oracle for the discretize /
convolve / argmax pipeline.
"""

import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import svtkit
from svtkit import allocation, correction, noise
from svtkit.allocation import Variant
from svtkit.correction import CorrectionQuery, DiscretePmf

# Hand-derived values of P[Exp(mean 1) - Lap(2) <= z] at b=2, mean=1:
#   z <= 0: b*exp(z/b) / (2(mean+b))
#   z  > 0: 1 - mean^2/(mean^2-b^2)*exp(-z/mean) - b/(2(b-mean))*exp(-z/b)
FROZEN_CDF = [
    (0.0, 1.0 / 3.0),
    (-1.0, math.exp(-0.5) / 3.0),
    (2.5, 1.0 + math.exp(-2.5) / 3.0 - math.exp(-1.25)),
]


@pytest.mark.parametrize("z,expected", FROZEN_CDF)
def test_difference_cdf_frozen_points(z, expected):
    assert correction.difference_cdf(z, b=2.0, lam=1.0) == pytest.approx(expected, rel=1e-12)


def test_difference_sf_complements_cdf():
    for z in (-3.0, -0.1, 0.0, 0.4, 5.0):
        c = correction.difference_cdf(z, b=1.5, lam=0.4)
        s = correction.difference_sf(z, b=1.5, lam=0.4)
        assert c + s == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("z", [-3.0, -0.5, 0.0, 1.0, 7.0])
def test_difference_cdf_against_quadrature(z):
    """P[X - Y <= z] = integral of f_Lap(y) * F_Exp(z + y) dy."""
    b, mean = 2.0, 3.0
    lap = noise.laplace(b)
    exp = noise.exponential(mean)
    val, err = integrate.quad(
        lambda y: noise.pdf(lap, y) * noise.cdf(exp, z + y),
        -60 * b, 60 * b, limit=400, points=[0.0, -z])
    assert err < 1e-10
    assert correction.difference_cdf(z, b=b, lam=1.0 / mean) == pytest.approx(val, abs=1e-9)


def test_difference_cdf_against_sampling():
    """1e6 draws of Exp(20) - Lap(10) vs the closed form, three stderr."""
    b, lam = 10.0, 0.05
    rng = np.random.default_rng(45)
    z = (noise.sample(noise.exponential(1.0 / lam), rng, size=1_000_000)
         - noise.sample(noise.laplace(b), rng, size=1_000_000))
    for r in (0.0, 20.0, 40.0):
        p_hat = float((z <= r).mean())
        p = correction.difference_cdf(r, b=b, lam=lam)
        stderr = math.sqrt(p * (1 - p) / len(z))
        assert abs(p_hat - p) <= 3 * stderr


def test_difference_cdf_monotone_and_bounded():
    zs = np.linspace(-80, 120, 3001)
    vals = correction.difference_cdf(zs, b=4.0, lam=0.2)
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] >= 0.0 and vals[-1] <= 1.0
    assert vals[0] < 1e-8 and vals[-1] > 1 - 1e-8


def test_difference_cdf_singular_line_exact_limit():
    """b = 1/lam makes the raw closed form 0/0; the limit form stays exact.

    At mu = b the survival for z > 0 collapses to
    exp(-z/b) * (z/(2b) + 3/4), derived by l'Hopital on the raw form.
    """
    value = correction.difference_cdf(1.0, b=2.0, lam=0.5)
    expected = 1.0 - math.exp(-0.5) * (1.0 / 4.0 + 3.0 / 4.0)
    assert value == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("wobble", [1 - 1e-6, 1 - 1e-9, 1 - 1e-12,
                                    1 + 1e-12, 1 + 1e-9, 1 + 1e-6])
def test_difference_cdf_near_singular_against_quadrature(wobble):
    """Rates close to (not on) the singular line keep full accuracy."""
    b = 2.0
    lam = wobble / b
    mean = 1.0 / lam
    lap, exp = noise.laplace(b), noise.exponential(mean)
    for z in (0.7, 3.0):
        val, err = integrate.quad(
            lambda y: noise.pdf(lap, y) * noise.cdf(exp, z + y),
            -60 * b, 60 * b, limit=400, points=[0.0, -z])
        assert err < 1e-10
        got = correction.difference_cdf(z, b=b, lam=lam)
        assert got == pytest.approx(val, abs=1e-9)


# --- discretizer ------------------------------------------------------------

def test_discretize_two_point_hand_case():
    pmf = correction.discretize(noise.exponential(1.0), m=2, B=1.0)
    assert pmf.mesh == 1.0
    assert pmf.origin_index == -1
    np.testing.assert_allclose(pmf.mass, [0.0, 1 - math.exp(-1)], rtol=1e-15)
    assert pmf.neg_inf_mass == 0.0
    assert pmf.pos_inf_mass == pytest.approx(math.exp(-1), rel=1e-15)


@pytest.mark.parametrize("d", [noise.laplace(2.0), noise.gaussian(1.5)],
                         ids=["laplace", "gaussian"])
def test_discretize_symmetric_mirror(d):
    """For a symmetric law the chunk [i*u, (i+1)*u) mirrors [-(i+1)*u, -i*u)."""
    pmf = correction.discretize(d, m=101, B=10.0)
    assert pmf.mass.shape == (200,)
    mirrored = pmf.mass[::-1]
    np.testing.assert_allclose(pmf.mass, mirrored, atol=1e-12)
    assert pmf.neg_inf_mass == pytest.approx(pmf.pos_inf_mass, abs=1e-15)


@pytest.mark.parametrize("d,m,B", [
    (noise.exponential(5.0), 2001, 120.0),
    (noise.laplace(1.0), 400, 30.0),
    (noise.gumbel(2.0), 1001, 50.0),
])
def test_discretize_mass_conservation(d, m, B):
    pmf = correction.discretize(d, m, B)
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert np.all(pmf.mass >= 0)


def test_discretize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        correction.discretize(noise.laplace(1.0), m=1, B=1.0)
    with pytest.raises(ValueError):
        correction.discretize(noise.laplace(1.0), m=10, B=0.0)


# --- difference convolution -------------------------------------------------

def _point_mass(index: int, mesh: float) -> DiscretePmf:
    return DiscretePmf(mesh=mesh, origin_index=index,
                       mass=np.array([1.0]), neg_inf_mass=0.0,
                       pos_inf_mass=0.0)


def test_convolve_identity_with_point_mass_at_zero():
    x = correction.discretize(noise.exponential(2.0), m=501, B=40.0)
    out = correction.convolve_difference(x, _point_mass(0, x.mesh))
    assert out.origin_index == x.origin_index
    np.testing.assert_allclose(out.mass, x.mass, atol=1e-15)
    assert out.neg_inf_mass == x.neg_inf_mass
    assert out.pos_inf_mass == x.pos_inf_mass


def test_convolve_two_point_masses():
    """delta_a - delta_b = delta_(a-b)."""
    out = correction.convolve_difference(_point_mass(3, 0.5), _point_mass(1, 0.5))
    values = out.values()
    assert out.mass.shape == (1,)
    assert out.mass[0] == pytest.approx(1.0)
    assert values[0] == pytest.approx(1.0)  # (3 - 1) * 0.5


def test_convolve_rejects_mesh_mismatch():
    with pytest.raises(ValueError):
        correction.convolve_difference(_point_mass(0, 0.5), _point_mass(0, 0.75))


def test_convolve_difference_cdf_matches_analytical():
    """Full-resolution grid CDF of Exp - Lap vs the closed form."""
    b, lam, m, e = 10.0, 0.05, 20001, 1e-10
    B = max(noise.quantile(noise.exponential(1.0 / lam), 1 - e),
            noise.quantile(noise.laplace(b), 1 - e),
            abs(noise.quantile(noise.laplace(b), e)))
    x = correction.discretize(noise.exponential(1.0 / lam), m, B)
    y = correction.discretize(noise.laplace(b), m, B)
    z = correction.convolve_difference(x, y)
    assert z.total_mass() == pytest.approx(1.0, abs=1e-9)
    ts = np.linspace(-5 / lam, 8 / lam, 400)
    grid_cdf = correction.pmf_cdf(z, ts)
    exact = correction.difference_cdf(ts, b=b, lam=lam)
    assert float(np.max(np.abs(grid_cdf - exact))) < 1e-3


def test_pmf_cdf_is_a_step_function_to_one():
    pmf = correction.discretize(noise.gaussian(1.0), m=801, B=10.0)
    ts = np.linspace(-12, 12, 2000)
    vals = correction.pmf_cdf(pmf, ts)
    assert np.all(np.diff(vals) >= 0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert vals[0] == pytest.approx(pmf.neg_inf_mass, abs=1e-12)


# --- success probability and the argmax -------------------------------------

def test_success_probability_vanishes_at_extremes():
    q = CorrectionQuery(b=3.0, lam=1.0 / 7.0, alpha=0.0, k=5)
    assert correction.success_probability_analytical(1e9, q) <= 1e-12
    assert correction.success_probability_analytical(-1e9, q) <= 1e-12


def test_success_probability_max_lower_bound_k1():
    """max_r Gamma(r)(1 - Gamma(r)) reaches 1/4 since Gamma is continuous
    onto (0, 1)."""
    q = CorrectionQuery(b=3.0, lam=1.0 / 7.0, alpha=0.0, k=1)
    grid = np.linspace(-35.0, 70.0, 4001)
    best = max(correction.success_probability_analytical(r, q) for r in grid)
    assert best >= 0.25 - 1e-3


def test_success_probability_matches_direct_formula():
    """p(r) = Gamma(r + alpha)^k * (1 - Gamma(r - alpha)), checked
    term by term."""
    q = CorrectionQuery(b=2.0, lam=0.125, alpha=1.5, k=12)
    for r in (-4.0, 0.0, 3.0, 11.0, 30.0):
        direct = (correction.difference_cdf(r + q.alpha, q.b, q.lam) ** q.k
                  * correction.difference_sf(r - q.alpha, q.b, q.lam))
        assert correction.success_probability_analytical(r, q) == pytest.approx(direct, rel=1e-9)


def test_optimal_correction_low_budget_row():
    """A tight budget pushes the argmax well past the query-noise mean."""
    s = allocation.split(0.1, Variant.EXP_OPT_CORR, 50)
    lam = s.eps2 / (2 * 50 * 1.0)
    q = CorrectionQuery(b=1.0 / s.eps1, lam=lam, alpha=0.0, k=200)
    r_op, p_op = correction.optimal_correction(q)
    mean = 1.0 / lam
    assert r_op > mean
    assert 1.5 * mean <= r_op <= 10 * mean
    assert 0.0 < p_op < 1.0


def test_optimal_correction_nonincreasing_in_alpha():
    base = dict(b=8.0, lam=0.02, k=40)
    mean = 1.0 / base["lam"]
    rs = [correction.optimal_correction(CorrectionQuery(alpha=a, **base))[0]
          for a in (0.0, 0.5 * mean, mean, 2 * mean)]
    for earlier, later in zip(rs, rs[1:]):
        assert later <= earlier + 1e-9


def test_optimal_correction_stable_under_refinement():
    coarse = CorrectionQuery(b=5.0, lam=0.04, alpha=0.0, k=30, m=5001)
    fine = CorrectionQuery(b=5.0, lam=0.04, alpha=0.0, k=30, m=20001)
    e = coarse.e
    B = max(noise.quantile(noise.exponential(1.0 / coarse.lam), 1 - e),
            noise.quantile(noise.laplace(coarse.b), 1 - e),
            abs(noise.quantile(noise.laplace(coarse.b), e)))
    coarse_mesh = B / (coarse.m - 1)
    r_coarse, _ = correction.optimal_correction(coarse)
    r_fine, _ = correction.optimal_correction(fine)
    assert abs(r_coarse - r_fine) < 2 * coarse_mesh


def test_optimal_correction_is_an_interior_maximum():
    q = CorrectionQuery(b=10.0, lam=0.05, alpha=0.0, k=10)
    r_op, p_op = correction.optimal_correction(q)
    lo = correction.correction_sweep(q, [-1e6])[0][1]
    hi = correction.correction_sweep(q, [1e6])[0][1]
    assert p_op > lo
    assert p_op > hi


def test_sweep_argmax_moves_right_with_more_negatives():
    grid = np.linspace(0.0, 400.0, 2001)
    q10 = CorrectionQuery(b=10.0, lam=0.05, alpha=0.0, k=10)
    q100 = CorrectionQuery(b=10.0, lam=0.05, alpha=0.0, k=100)
    arg10 = grid[np.argmax([p for _, p in correction.correction_sweep(q10, grid)])]
    arg100 = grid[np.argmax([p for _, p in correction.correction_sweep(q100, grid)])]
    assert arg100 > arg10


def test_sweep_argmax_moves_left_with_larger_budget():
    """Scaling (b, 1/lam) down by 10x scales the argmax down too."""
    grid_small = np.linspace(0.0, 4000.0, 2001)
    grid_large = np.linspace(0.0, 400.0, 2001)
    tight = CorrectionQuery(b=100.0, lam=0.005, alpha=0.0, k=50)
    loose = CorrectionQuery(b=10.0, lam=0.05, alpha=0.0, k=50)
    arg_tight = grid_small[np.argmax([p for _, p in correction.correction_sweep(tight, grid_small)])]
    arg_loose = grid_large[np.argmax([p for _, p in correction.correction_sweep(loose, grid_large)])]
    assert arg_tight > arg_loose


def test_sweep_matches_analytical_within_tolerance():
    q = CorrectionQuery(b=10.0, lam=0.05, alpha=0.0, k=10)
    grid = np.linspace(-40.0, 160.0, 500)
    swept = np.array([p for _, p in correction.correction_sweep(q, grid)])
    exact = np.array([correction.success_probability_analytical(r, q)
                      for r in grid])
    assert float(np.max(np.abs(swept - exact))) < 1e-2


def test_optimal_correction_scales_linearly_with_budget():
    """(b, 1/lam) -> (s*b, s/lam) rescales the whole problem by s, so the
    argmax index is unchanged and r_op scales exactly."""
    q1 = CorrectionQuery(b=20.0, lam=0.01, alpha=0.0, k=80)
    q2 = CorrectionQuery(b=10.0, lam=0.02, alpha=0.0, k=80)
    r1, p1 = correction.optimal_correction(q1)
    r2, p2 = correction.optimal_correction(q2)
    assert r1 == pytest.approx(2.0 * r2, rel=1e-12)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_correction_query_validation():
    with pytest.raises(ValueError):
        CorrectionQuery(b=0.0, lam=0.1, alpha=0.0, k=1)
    with pytest.raises(ValueError):
        CorrectionQuery(b=1.0, lam=-0.1, alpha=0.0, k=1)
    with pytest.raises(ValueError):
        CorrectionQuery(b=1.0, lam=0.1, alpha=-1.0, k=1)
    with pytest.raises(ValueError):
        CorrectionQuery(b=1.0, lam=0.1, alpha=0.0, k=0)
    with pytest.raises(ValueError):
        CorrectionQuery(b=1.0, lam=0.1, alpha=0.0, k=1, m=1)
    with pytest.raises(ValueError):
        CorrectionQuery(b=1.0, lam=0.1, alpha=0.0, k=1, e=0.6)


def test_singular_query_is_silent_and_stays_continuous():
    q = CorrectionQuery(b=4.0, lam=0.25, alpha=0.0, k=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = correction.success_probability_analytical(2.0, q)
    assert not any(issubclass(w.category, RuntimeWarning) for w in caught)
    near = correction.success_probability_analytical(
        2.0, CorrectionQuery(b=4.0, lam=0.25 * (1 + 1e-7), alpha=0.0, k=3))
    assert p == pytest.approx(near, abs=1e-5)


def _fresh_stdout(code: str) -> str:
    """What ``code`` prints in a fresh interpreter importing this svtkit:
    this test process has scipy loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(svtkit.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_neither_scipy_signal_nor_stats():
    code = ("import sys, svtkit; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.signal', 'scipy.stats', "
            "'scipy.integrate'))))")
    assert _fresh_stdout(code).strip() == "[]"


SCIPY_FREE_RUN = """
import sys
import numpy as np
import svtkit
from svtkit import Variant, noise

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stream = svtkit.QueryStream(range(1, 60), [float(i) for i in range(1, 60)],
                            30.0)
for variant in (Variant.LAP, Variant.EXP_MEAN_CORR, Variant.EXP_OPT_CORR):
    cfg = svtkit.SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=3, k_max=59,
                           variant=variant, k_est=10)
    svtkit.run_svt(stream, cfg, np.random.default_rng(0))
svtkit.optimal_correction(
    svtkit.CorrectionQuery(b=2.5, lam=0.3, alpha=1.0, k=7, m=2001))
print(scipy_modules())
noise.sample(noise.gaussian(1.0), np.random.default_rng(0))
from scipy.special import ndtri
print("scipy.special" in scipy_modules(),
      noise._LAWS[noise.Kind.GAUSSIAN].quantile is ndtri)
"""


def test_exponential_paths_load_no_scipy_until_a_gaussian_draw():
    """svtkit itself needs numpy only: the lap, exp-mean and exp-opt engine
    and a cold optimizer call load no scipy module; the Gaussian law loads
    scipy.special at its first call and then calls scipy's functions
    directly."""
    assert _fresh_stdout(SCIPY_FREE_RUN).split("\n")[:2] == ["[]",
                                                            "True True"]


def test_fast_len_equals_scipy_next_fast_len_up_to_2e5():
    from scipy.fft import next_fast_len
    assert all(correction._fast_len(n) == next_fast_len(n, True)
               for n in range(1, 200_001))


def _laws_and_bound(q: CorrectionQuery) -> tuple:
    """q's query and threshold laws and the grid bound B: the exponential
    quantile at 1 - e or the Laplace |quantile| at e or 1 - e."""
    exp_d, lap_d = noise.exponential(1.0 / q.lam), noise.laplace(q.b)
    B = max(noise.quantile(exp_d, 1 - q.e), noise.quantile(lap_d, 1 - q.e),
            abs(noise.quantile(lap_d, q.e)))
    return exp_d, lap_d, B


def _discretized_pair(q: CorrectionQuery) -> tuple[DiscretePmf, DiscretePmf]:
    exp_d, lap_d, B = _laws_and_bound(q)
    return (correction.discretize(exp_d, q.m, B),
            correction.discretize(lap_d, q.m, B))


@pytest.mark.parametrize("q", [
    CorrectionQuery(b=2.0, lam=0.25, alpha=0.0, k=200),
    CorrectionQuery(b=20.0, lam=0.003, alpha=3.0, k=200),
    CorrectionQuery(b=1.5, lam=0.7, alpha=0.5, k=4, m=13),
    CorrectionQuery(b=1.5, lam=0.7, alpha=0.5, k=4, m=8),
    CorrectionQuery(b=1.5, lam=0.7, alpha=0.5, k=4, m=12),
    CorrectionQuery(b=2.0, lam=0.25, alpha=0.0, k=20, m=1000),
], ids=["default", "wide", "small-odd-mesh", "n27-unpadded", "n43-to-45",
        "n3995-to-4000"])
def test_convolve_difference_matches_fftconvolve_bit_for_bit(q):
    from scipy.signal import fftconvolve
    x, y = _discretized_pair(q)
    want = np.maximum(fftconvolve(x.mass, y.mass[::-1]), 0.0)
    got = correction.convolve_difference(x, y).mass
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.fixture
def grids(monkeypatch):
    """Weak references to every difference grid built while it is active."""
    built = []

    def recording(x, y, rows):
        z = convolve(x, y, rows)
        built.append(weakref.ref(z))
        return z

    convolve = correction._convolve_rows
    monkeypatch.setattr(correction, "_convolve_rows", recording)
    correction.optimal_correction.cache_clear()
    return built


def test_one_grid_per_optimizer_call(grids):
    q = CorrectionQuery(b=3.25, lam=0.125, alpha=1.0, k=9, m=2001)
    correction.optimal_correction(q)
    assert len(grids) == 1
    correction.optimal_correction(q)  # a hit builds nothing
    assert len(grids) == 1
    correction.correction_sweep(q, [0.0, 1.0])
    correction.correction_sweep(q, [2.0])
    assert len(grids) == 3


def test_no_grid_outlives_its_call(grids):
    q = CorrectionQuery(b=3.5, lam=0.125, alpha=1.0, k=9, m=2001)
    for call in (correction.optimal_correction,
                 lambda q: correction.correction_sweep(q, [0.0, 1.0])):
        call(q)
        gc.collect()
        assert grids[-1]() is None
    assert len(grids) == 2


# --- the optimizer's grid read and argmax -----------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_workloads():
    """perfbench's workloads module."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture(scope="module")
def bench_queries(perfbench_workloads):
    """perfbench's correction-cold queries: (seed, batch) -> 16 queries."""
    return perfbench_workloads.correction_queries


def _mesh(b: float, lam: float, m: int) -> float:
    pair = _discretized_pair(CorrectionQuery(b=b, lam=lam, alpha=0.0, k=1, m=m))
    return pair[0].mesh


def _edge_queries() -> list:
    """Tiny meshes, alpha on a multiple of the mesh and its two float
    neighbours (ties under side="right"), and alpha beyond the grid."""
    out = []
    for m in (2, 3, 101, 20001):
        for b, lam in ((10.0, 0.05), (0.7, 3.0), (150.0, 0.002)):
            u = _mesh(b, lam, m)
            for alpha in (0.0, u, 3 * u, 7.5 * u, np.nextafter(u, 0.0),
                          np.nextafter(u, 1.0), 1e-300, 1.0, 1e308):
                out += [CorrectionQuery(b=b, lam=lam, alpha=float(alpha), k=k,
                                        m=m) for k in (1, 50)]
    return out


def test_grid_bound_is_the_library_s_and_perfbench_s(perfbench_workloads,
                                                     bench_queries):
    """The grid the optimizer builds is the restated one, and perfbench's
    traced discretize spans use the same bound."""
    queries = bench_queries(0, 0) + _edge_queries()
    for b, lam, m in sorted({(q.b, q.lam, q.m) for q in queries}):
        q = CorrectionQuery(b=b, lam=lam, alpha=0.0, k=1, m=m)
        got = correction._difference_grid(q)
        want = correction.convolve_difference(*_discretized_pair(q))
        assert (got.mesh, got.origin_index, got.neg_inf_mass,
                got.pos_inf_mass) == (want.mesh, want.origin_index,
                                      want.neg_inf_mass, want.pos_inf_mass), q
        assert got.mass.tobytes() == want.mass.tobytes(), q
        bound = perfbench_workloads._difference_laws(q)[2]
        assert bound == _laws_and_bound(q)[2], q


def _two_searches_full_exp(q: CorrectionQuery, z: DiscretePmf):
    """The optimizer as first written: a binary search of the step cdf at
    values + alpha and at values - alpha, then exp of the whole grid."""
    values, _ = z._steps
    gamma_plus = correction.pmf_cdf(z, values + q.alpha)
    gamma_minus = correction.pmf_cdf(z, values - q.alpha)
    with np.errstate(divide="ignore"):
        p = np.exp(q.k * np.log(gamma_plus) + np.log1p(-gamma_minus))
    best = int(np.argmax(p))
    return float(values[best]), float(p[best])


@pytest.fixture
def last_grid(monkeypatch):
    """The difference grid of the latest optimizer call, for the oracle."""
    seen = []

    def recording(q):
        seen[:] = [build(q)]  # one grid alive at a time: each is ~2 MB
        return seen[0]

    build = correction._difference_grid
    monkeypatch.setattr(correction, "_difference_grid", recording)
    return seen


def _assert_matches_oracle(queries, last_grid) -> None:
    for q in queries:
        correction.optimal_correction.cache_clear()
        got = correction.optimal_correction(q)
        want = _two_searches_full_exp(q, last_grid[-1])
        assert np.array(got).tobytes() == np.array(want).tobytes(), q


@pytest.mark.parametrize("seed_batches", [range(0, 10), range(10, 20)],
                         ids=["batches-0-9", "batches-10-19"])
def test_optimal_correction_matches_oracle_on_bench_queries(
        seed_batches, bench_queries, last_grid):
    _assert_matches_oracle([q for j in seed_batches
                            for q in bench_queries(7, j)], last_grid)


def test_optimal_correction_matches_oracle_on_edge_queries(last_grid):
    _assert_matches_oracle(_edge_queries(), last_grid)


def test_optimal_correction_matches_oracle_where_p_is_subnormal(last_grid):
    q = CorrectionQuery(b=100.0, lam=0.7, alpha=0.0, k=32)
    _assert_matches_oracle([q], last_grid)
    values, _ = last_grid[-1]._steps
    gamma = correction.pmf_cdf(last_grid[-1], values)
    with np.errstate(divide="ignore"):
        p = np.exp(q.k * np.log(gamma) + np.log1p(-gamma))
    assert ((p > 0) & (p < np.finfo(float).tiny)).sum() > 10_000


@pytest.fixture
def windows(monkeypatch):
    """The (lo, hi) of every read of log p; an optimizer call's first is
    its one-index read of the level."""
    seen = []

    def recording(q, z, lo, hi):
        seen.append((int(lo), int(hi)))
        return read(q, z, lo, hi)

    read = correction._read
    monkeypatch.setattr(correction, "_read", recording)
    return seen


def _window_kind(reads: list, n: int) -> str:
    if len(reads) == 3 and reads[2] == (0, n):
        return "whole grid after a window"
    (lo, hi), = reads[1:]
    return {(True, True): "inner", (False, True): "clipped at 0",
            (True, False): "clipped at n",
            (False, False): "clipped at both ends"}[lo > 0, hi < n]


# One query per branch of the window, with the branch it takes.
WINDOW_BRANCHES = [
    # log p is below -700 everywhere (p = 0.0, first at the grid's first
    # value): the whole grid, where _first_argmax_exp takes every entry
    (CorrectionQuery(b=2.0, lam=0.5, alpha=0.0, k=10**30),
     "whole grid after a window"),
    (CorrectionQuery(b=10.0, lam=0.05, alpha=1e308, k=50, m=2),
     "clipped at both ends"),
    (CorrectionQuery(b=10.0, lam=0.05, alpha=1e308, k=50, m=3),
     "clipped at both ends"),
    (CorrectionQuery(b=1.0, lam=1.0, alpha=0.0, k=10**9), "clipped at n"),
    # large k with large alpha: a window of about 20,000 indices, then one
    # that alpha/mesh (about 42,000) pushes to the grid's end
    (CorrectionQuery(b=1.0, lam=1.0, alpha=20.0, k=10**9), "inner"),
    (CorrectionQuery(b=10.0, lam=0.05, alpha=1000.0, k=10**9), "clipped at n"),
    (CorrectionQuery(b=10.0, lam=0.05, alpha=37.0, k=300), "inner"),
]


@pytest.mark.parametrize("q, kind", WINDOW_BRANCHES,
                         ids=[kind for _, kind in WINDOW_BRANCHES])
def test_optimal_correction_matches_oracle_in_each_window_branch(
        q, kind, last_grid, windows):
    windows.clear()
    _assert_matches_oracle([q], last_grid)
    assert _window_kind(windows, len(last_grid[-1].mass)) == kind


def test_a_window_that_misses_the_maximum_falls_back_to_the_whole_grid(
        monkeypatch, bench_queries, last_grid, windows):
    """A level read 100 above its value makes a one-index window around
    the index it was read at; the edge check rejects it, and the whole
    grid gives the oracle's (r, p)."""
    def raised(q, z, lo, hi):
        log_p, outside = read(q, z, lo, hi)
        return (log_p + 100.0 if len(windows) == 1 else log_p), outside

    read = correction._read
    monkeypatch.setattr(correction, "_read", raised)
    for q in bench_queries(0, 1)[:4]:
        windows.clear()
        _assert_matches_oracle([q], last_grid)
        n = len(last_grid[-1].mass)
        (i, _), (lo, hi), whole = windows
        assert (lo, hi, whole) == (i, i + 1, (0, n)), q


def test_a_cdf_summed_above_one_is_clipped_at_one(last_grid):
    """On this coarse grid with e = 1e-16 the running cdf sums to 4.4e-16
    above 1, first past it near index 297 of 400 (297 with numpy's AVX2
    kernels, 296 without them). Clipped at 1, it makes
    log1p(-Gamma(r - alpha)) -inf there, not NaN: the optimizer and the
    sweep give finite p without a warning, and the full read's (r, p)."""
    q = CorrectionQuery(b=250.08870189657935, lam=0.8074762124510707,
                        alpha=0.0, k=1, m=101, e=1e-16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_oracle([q], last_grid)
        z = last_grid[-1]
        sweep = correction.correction_sweep(q, [0.0, 1000.0, 9000.0])
    _, summed = reference_steps(z)
    above = summed > 1.0
    assert len(summed) == 400 and above.any()
    first = int(np.argmax(above))  # where the reference sum passes 1.0
    assert z._cum[first] == 1.0 and (z._cum[:first] <= 1.0).all()
    assert z._cum.tobytes() == np.minimum(summed, 1.0).tobytes()
    assert correction.optimal_correction(q) == (0.0, 0.25)
    assert all(math.isfinite(p) for _, p in sweep)


@pytest.mark.parametrize("m", [2, 3, 101, 2001])
def test_grid_cdf_equals_a_binary_search(m):
    """On the whole grid and on windows at either end, in the middle and
    of one index."""
    z = correction._difference_grid(CorrectionQuery(b=3.0, lam=0.2, alpha=0.0,
                                                    k=1, m=m))
    values, cum = z._steps
    u, n = z.mesh, len(values)
    windows = {(0, n), (0, 1), (n - 1, n), (1, n - 1), (n // 3, 2 * n // 3),
               (n // 2, n // 2 + 1)}
    for shift in (0.0, u, 3 * u, 7.5 * u, np.nextafter(u, 0.0),
                  np.nextafter(u, 1.0), 1e-300, 1.0, 1e308, 0.5 * values[-1]):
        for s in (shift, -shift):
            want = cum[np.searchsorted(values, values + s, side="right")]
            for lo, hi in windows:
                got = correction._grid_cdf(z, s, lo, hi)
                assert got.tobytes() == want[lo:hi].tobytes(), (s, lo, hi)


@pytest.mark.parametrize("log_p", [
    [-3.0, -1.0, -1.0, -2.0],
    [-1.0, np.nextafter(-1.0, 0.0), -1.0],
    [np.nextafter(-1e-3, -1.0), -1e-3],
    [-1.0, np.nan, -0.5, np.nan],
    [-np.inf, -np.inf],
    [-720.0, -710.0, -710.0 - 1e-13, -900.0],
    [-744.0, -745.0, -744.2, -800.0],
    [-744.99, -744.5],
], ids=["tie", "ulp-apart", "equal-after-exp", "nan", "all-zero",
        "subnormal-max", "deep-subnormal", "equal-after-exp-subnormal"])
def test_first_argmax_exp_matches_full_exp(log_p):
    log_p = np.array(log_p)
    with np.errstate(invalid="ignore"):
        p = np.exp(log_p)
        best = int(np.argmax(p))
        got = correction._first_argmax_exp(log_p)
    assert np.array(got).tobytes() == np.array((best, p[best])).tobytes()


@pytest.fixture
def grid_work(monkeypatch):
    """Elements an optimizer call sends to the binary search (the fallback
    of the shifted read goes through pmf_cdf) and to np.exp in this module."""
    work = {"searched": 0, "exp": 0, "log": 0, "log1p": 0}

    def searching(pmf, t):
        work["searched"] += np.size(t)
        return search(pmf, t)

    def counted(name):
        ufunc = getattr(np, name)

        def counting(x, *args, **kwargs):
            if sys._getframe(1).f_code.co_filename == correction.__file__:
                work[name] += np.size(x)
            return ufunc(x, *args, **kwargs)
        return counting

    search = correction.pmf_cdf
    monkeypatch.setattr(correction, "pmf_cdf", searching)
    for name in ("exp", "log", "log1p"):
        monkeypatch.setattr(np, name, counted(name))
    return work


def test_cold_call_searches_and_exponentiates_little(grid_work, bench_queries):
    split = allocation.split(0.1, Variant.EXP_OPT_CORR, 50)
    table = [CorrectionQuery.from_budget(split.eps1, split.eps2, 50, 1.0,
                                         False, alpha, 200)
             for alpha in (0.0, 3.0)]
    for q in table + bench_queries(0, 0):
        correction.optimal_correction.cache_clear()
        grid_work.update(searched=0, exp=0)
        correction.optimal_correction(q)
        assert grid_work["searched"] <= (0 if q.alpha == 0 else 48), q
        assert 0 < grid_work["exp"] <= 400, q


def test_cold_call_takes_logs_of_a_tenth_of_the_grid(grid_work,
                                                     bench_queries):
    """Gamma and log p are read only in the window (at most 4,150 of the
    79,999 grid points over seed 0's 320 benchmark queries), so a silent
    read of the whole grid fails here."""
    split = allocation.split(0.1, Variant.EXP_OPT_CORR, 50)
    table = [CorrectionQuery.from_budget(split.eps1, split.eps2, 50, 1.0,
                                         False, alpha, 200)
             for alpha in (0.0, 3.0)]
    tenth = (4 * correction.DEFAULT_MESH_COUNT - 5) // 10
    for q in table + bench_queries(0, 0) + bench_queries(3, 7):
        correction.optimal_correction.cache_clear()
        grid_work.update(log=0, log1p=0)
        correction.optimal_correction(q)
        assert 0 < grid_work["log"] <= tenth, q
        assert 0 < grid_work["log1p"] <= tenth, q


# --- the grid built in place, bit for bit ------------------------------------
# Each reference is the allocating formula the module used before it wrote
# every stage into the one array that stage owns; kept as the oracle.

def reference_cdf(d, x):
    z = (np.asarray(x, dtype=float) - d.location) / d.scale
    with np.errstate(over="ignore"):
        if d.kind is noise.Kind.LAPLACE:
            return np.where(z < 0, 0.5 * np.exp(np.clip(z, None, 0)),
                            1.0 - 0.5 * np.exp(-np.clip(z, 0, None)))
        if d.kind is noise.Kind.EXPONENTIAL:
            return np.where(z < 0, 0.0, -np.expm1(-np.clip(z, 0, None)))
        if d.kind is noise.Kind.GAUSSIAN:
            return special.ndtr(z)
        return np.exp(-np.exp(-z))


def reference_discretize(d, m, B):
    u = B / (m - 1)
    cdf_edges = reference_cdf(d, np.arange(-m + 1, m) * u)
    return DiscretePmf(mesh=u, origin_index=-m + 1,
                       mass=np.maximum(np.diff(cdf_edges), 0.0),
                       neg_inf_mass=float(cdf_edges[0]),
                       pos_inf_mass=float(1.0 - cdf_edges[-1]))


def reference_convolved_mass(x, y):
    r_mass = y.mass[::-1]
    n = len(x.mass) + len(r_mass) - 1
    nf = correction._fast_len(n)
    z = np.fft.irfft(np.fft.rfft(x.mass, nf) * np.fft.rfft(r_mass, nf), nf)
    return np.maximum(z[:n], 0.0)


def reference_convolve(x, y):
    """The whole :func:`correction.convolve_difference`, its mass by the
    three-call formula and its brackets by the same algebra."""
    r_neg, r_pos = y.pos_inf_mass, y.neg_inf_mass
    x_fin, y_fin = float(x.mass.sum()), float(y.mass[::-1].sum())
    opposing = 0.5 * (x.pos_inf_mass * r_neg + x.neg_inf_mass * r_pos)
    return DiscretePmf(
        mesh=x.mesh, origin_index=x.origin_index - y.origin_index
        - len(y.mass) + 1, mass=reference_convolved_mass(x, y),
        neg_inf_mass=x_fin * r_neg + x.neg_inf_mass * y_fin
        + x.neg_inf_mass * r_neg + opposing,
        pos_inf_mass=x_fin * r_pos + x.pos_inf_mass * y_fin
        + x.pos_inf_mass * r_pos + opposing)


def reference_steps(pmf):
    values = (pmf.origin_index + np.arange(len(pmf.mass))) * pmf.mesh
    cum = np.concatenate(([pmf.neg_inf_mass],
                          pmf.neg_inf_mass + np.cumsum(pmf.mass)))
    return values, cum


def _same_pmf(got: DiscretePmf, want: DiscretePmf) -> bool:
    return ((got.mesh, got.origin_index) == (want.mesh, want.origin_index)
            and np.array([got.neg_inf_mass, got.pos_inf_mass]).tobytes()
            == np.array([want.neg_inf_mass, want.pos_inf_mass]).tobytes()
            and got.mass.dtype == want.mass.dtype
            and got.mass.tobytes() == want.mass.tobytes())


GRID_LAWS = [noise.exponential(7.5), noise.laplace(3.0),
             noise.laplace(0.4, location=1.25), noise.gaussian(2.0),
             noise.gaussian(0.5, location=-3.0), noise.gumbel(1.5),
             noise.exponential(0.2, location=-0.7),
             noise.exponential(2.0, location=1.5)]


@pytest.mark.parametrize("m", [2, 3, 801, 20001])
@pytest.mark.parametrize("d", GRID_LAWS,
                         ids=lambda d: f"{d.kind.value}@{d.location}")
def test_discretize_equals_the_allocating_formula(d, m):
    for B in (0.01, 3.0, 60.0, 1e4):
        assert _same_pmf(correction.discretize(d, m, B),
                         reference_discretize(d, m, B)), B


def _pmf(origin: int, mass, neg: float = 0.0, pos: float = 0.0,
         mesh: float = 0.25) -> DiscretePmf:
    return DiscretePmf(mesh=mesh, origin_index=origin,
                       mass=np.asarray(mass, dtype=float), neg_inf_mass=neg,
                       pos_inf_mass=pos)


@pytest.mark.parametrize("m", [2, 8, 13, 20, 2001, 20001])
def test_convolve_difference_equals_the_allocating_formula(m):
    """Padded lengths odd (m = 2, 8, 20: n = 3, 27, 75) and even (m = 13,
    2001, 20001: n = 47, 7999, 79999 padded to 48, 8000, 80000)."""
    for b, lam in ((2.0, 0.25), (150.0, 0.002)):
        x, y = _discretized_pair(CorrectionQuery(b=b, lam=lam, alpha=0.0,
                                                 k=1, m=m))
        z = correction.convolve_difference(x, y)
        want = reference_convolved_mass(x, y)
        assert z.mass.dtype == want.dtype
        assert z.mass.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2, 3, 101, 2001, 20001])
def test_two_row_transform_equals_the_three_call_formula(m):
    """Both forward transforms in one two-row rfft give the bits of one
    padded rfft per law, through the copy into a new block (a direct call
    on discretize's arrays) and through the block the grid writes into,
    for every ordered pair of GRID_LAWS. Which rows numpy pairs depends on
    its build, so this runs on each host the tests run on."""
    B = 9.0
    for xd in GRID_LAWS:
        for yd in GRID_LAWS:
            x, y = (correction.discretize(d, m, B) for d in (xd, yd))
            want = reference_convolve(x, y)
            assert _same_pmf(correction.convolve_difference(x, y),
                             want), (xd, yd)
            assert _same_pmf(correction._block_difference(xd, yd, m, B),
                             want), (xd, yd)


def test_convolve_difference_copies_masses_that_sit_in_a_block():
    """Masses placed as the rows of a (2, nf) block whose padding is not
    zero give the bits of a fresh block: the public path always copies."""
    x, y = (correction.discretize(d, 101, 9.0) for d in GRID_LAWS[:2])
    want, n = correction.convolve_difference(x, y), len(x.mass)
    rows = np.full((2, correction._fast_len(2 * n - 1)), 7.0)
    rows[0, :n], rows[1, :n] = x.mass, y.mass[::-1]
    got = correction.convolve_difference(
        DiscretePmf(x.mesh, x.origin_index, rows[0, :n], x.neg_inf_mass,
                    x.pos_inf_mass),
        DiscretePmf(y.mesh, y.origin_index, rows[1, :n][::-1],
                    y.neg_inf_mass, y.pos_inf_mass))
    assert _same_pmf(got, want)
    assert (rows[:, n:] == 7.0).all()


@pytest.fixture
def transforms(monkeypatch):
    """(name, shape, C-contiguous, n) of every numpy.fft call while active."""
    calls = []

    def recorded(name):
        fft = getattr(np.fft, name)

        def recording(a, *args, **kwargs):
            a = np.asarray(a)
            calls.append((name, a.shape, a.flags.c_contiguous,
                          args[0] if args else kwargs.get("n")))
            return fft(a, *args, **kwargs)
        return recording

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, recorded(name))
    return calls


def test_cold_call_makes_one_two_row_rfft_and_one_irfft(transforms,
                                                       bench_queries):
    """A silent return to one transform per law, or to rows numpy pads
    (an n longer than the rows), fails here."""
    for q in bench_queries(0, 0)[:4] + [
            CorrectionQuery(b=2.0, lam=0.25, alpha=1.0, k=3, m=m)
            for m in (2, 3, 101)]:
        correction.optimal_correction.cache_clear()
        transforms.clear()
        correction.optimal_correction(q)
        nf = correction._fast_len(4 * q.m - 5)
        assert transforms == [("rfft", (2, nf), True, None),
                              ("irfft", (nf // 2 + 1,), True, nf)], q


@pytest.mark.parametrize("lengths", [(7, 4), (4, 7), (1, 6), (5, 5)])
def test_convolve_difference_of_unequal_lengths(lengths):
    rng = np.random.default_rng(sum(lengths))
    x, y = (_pmf(-2, rng.random(n) / n, 0.01, 0.02) for n in lengths)
    got = correction.convolve_difference(x, y).mass
    want = reference_convolved_mass(x, y)
    assert len(got) == sum(lengths) - 1 and got.tobytes() == want.tobytes()


def _step_grids() -> list:
    q = CorrectionQuery(b=3.0, lam=0.2, alpha=0.0, k=1, m=801)
    return [_pmf(0, [1.0]), _pmf(-3, [0.25, 0.0, 0.5], 0.125, 0.125),
            _pmf(5, [0.5, 0.5], -0.0), *_discretized_pair(q),
            correction._difference_grid(q),
            correction._difference_grid(CorrectionQuery(b=2.0, lam=0.25,
                                                        alpha=0.0, k=1))]


def test_steps_equal_the_allocating_formula():
    for pmf in _step_grids():
        values, cum = pmf._steps
        want_values, want_cum = reference_steps(pmf)
        assert values.tobytes() == want_values.tobytes()
        assert cum.tobytes() == want_cum.tobytes()
        assert pmf.values().tobytes() == want_values.tobytes()


@pytest.mark.parametrize("m", [2, 3, 801, 20001])
def test_grid_cdf_equals_the_allocating_formula(m):
    z = correction._difference_grid(CorrectionQuery(b=10.0, lam=0.05,
                                                    alpha=0.0, k=1, m=m))
    values, cum = reference_steps(z)
    for alpha in (0.0, z.mesh, 1.0):
        for shift in (alpha, -alpha):
            want = cum[np.searchsorted(values, values + shift, side="right")]
            got = correction._grid_cdf(z, shift, 0, len(z.mass))
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 50, 2**60 + 1])
def test_log_success_equals_the_allocating_formula(k):
    """Into separate arrays (alpha > 0) and into one shared by both reads
    (alpha = 0), with Gamma at 0, 1 and between."""
    q = CorrectionQuery(b=1.0, lam=1.0, alpha=0.0, k=k)
    gamma = np.concatenate(([0.0, 1.0, 5e-324, 1.0 - 2**-53],
                            np.random.default_rng(k % 97).random(500)))
    plus, minus = gamma.copy(), gamma[::-1].copy()
    with np.errstate(divide="ignore"):
        want = q.k * np.log(plus) + np.log1p(-minus)
        same = q.k * np.log(gamma) + np.log1p(-gamma)
    got = correction._log_success(q, plus.copy(), minus.copy())
    assert got.tobytes() == want.tobytes()
    shared = gamma.copy()
    got = correction._log_success(q, shared, shared)
    assert got.tobytes() == same.tobytes()


def _quantile_bound(q: CorrectionQuery) -> float:
    laws = noise.exponential(1.0 / q.lam), noise.laplace(q.b)
    return max(abs(noise.quantile(d, p)) for d in laws
               for p in (q.e, 1.0 - q.e))


def _extreme_queries() -> list:
    """e from its least allowed value to near 0.5, with b and lam far apart."""
    extremes = (1e-300, 1e-5, 1.0, 1e5, 1e300)
    return [CorrectionQuery(b=b, lam=lam, alpha=0.0, k=1, m=3, e=e)
            for e in (2.0**-54 * 1.0001, 1e-16, 1e-10, 0.3, 0.49)
            for b in extremes for lam in extremes]


def test_one_call_bound_equals_the_four_quantiles(monkeypatch,
                                                  bench_queries):
    """One from_uniform call per law on [e, 1 - e] gives the largest
    |quantile| of the four, bit for bit."""
    bounds = []  # the B that _difference_grid hands on
    monkeypatch.setattr(correction, "_block_difference",
                        lambda x_law, y_law, m, B: bounds.append(B))
    for q in ([q for j in range(20) for q in bench_queries(0, j)]
              + _extreme_queries()):
        correction._difference_grid(q)
        assert type(bounds[-1]) is float, q
        assert bounds[-1].hex() == _quantile_bound(q).hex(), q


def test_grid_results_share_no_memory():
    """Every DiscretePmf the grid returns owns its arrays: two discretize
    results, two convolutions (of equal and of unequal inputs), and the
    step tables of all of them share no byte."""
    pmfs = []
    for q in (CorrectionQuery(b=3.0, lam=0.2, alpha=0.0, k=1, m=801),) * 2 + (
            CorrectionQuery(b=5.0, lam=0.1, alpha=0.0, k=1, m=801),):
        x, y = _discretized_pair(q)
        pmfs += [x, y, correction.convolve_difference(x, y)]
    arrays = [a for pmf in pmfs for a in (pmf.mass, *pmf._steps)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_pmf_cdf_is_nan_at_nan():
    z = correction._difference_grid(CorrectionQuery(b=3.0, lam=0.2, alpha=0.0,
                                                    k=1, m=101))
    got = correction.pmf_cdf(z, math.nan)
    assert type(got) is float and math.isnan(got)
    got = correction.pmf_cdf(z, np.array([0.0, np.nan, np.inf, -np.inf]))
    values, cum = z._steps
    assert np.isnan(got[1])
    assert (got[0], got[2], got[3]) == (
        cum[np.searchsorted(values, 0.0, side="right")], cum[-1], cum[0])
