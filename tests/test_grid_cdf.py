"""The shifted read of the step cdf, ``correction._grid_cdf``, at rounding
ties: shifts at a mesh multiple or one ulp off it, shifts far below the
grid's ulp and shifts beyond the grid, each read exactly by one search; a
zero shift read as a copy of the running cdf; and the half-grid cdf that
``correction.discretize`` takes from ``noise``, byte for byte the
allocating formula."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtkit import correction, noise
from svtkit.correction import CorrectionQuery
from test_correction import (_same_pmf, grid_work,  # noqa: F401 (a fixture)
                             reference_discretize)


def _grid(m: int):
    return correction._difference_grid(CorrectionQuery(b=10.0, lam=0.05,
                                                       alpha=0.0, k=1, m=m))


def _whole_grid(q: CorrectionQuery, z) -> tuple[float, float]:
    """The argmax read off every grid value: a binary search at values +-
    alpha, log p, a full exp and the first argmax."""
    values, _ = z._steps
    gamma_plus = correction.pmf_cdf(z, values + q.alpha)
    gamma_minus = correction.pmf_cdf(z, values - q.alpha)
    p = np.exp(correction._log_success(q, gamma_plus, gamma_minus))
    best = int(np.argmax(p))
    return float(values[best]), float(p[best])


def test_ties_send_nothing_to_the_binary_search(grid_work):
    z = _grid(correction.DEFAULT_MESH_COUNT)
    u = z.mesh
    for alpha in (u, np.nextafter(u, 0.0), 7 * u, 1e-300):
        for k in (1, 50, 200):
            q = CorrectionQuery(b=10.0, lam=0.05, alpha=float(alpha), k=k)
            correction.optimal_correction.cache_clear()
            grid_work.update(searched=0)
            got = correction.optimal_correction(q)
            assert grid_work["searched"] == 0, q
            assert np.array(got).tobytes() == np.array(
                _whole_grid(q, z)).tobytes(), q


GRIDS = {m: _grid(m) for m in (2, 3, 101)}


@st.composite
def _reads(draw):
    """(m, shift, lo, hi): a window of one of the grids, both ends
    included, and a shift at a tie, far below the ulp or beyond the grid."""
    m = draw(st.sampled_from(sorted(GRIDS)))
    z = GRIDS[m]
    n, u = len(z.mass), z.mesh
    multiple = draw(st.integers(-n - 3, n + 3)) * u
    shift = draw(st.one_of(
        st.just(multiple),
        st.sampled_from((-np.inf, np.inf)).map(
            lambda to: float(np.nextafter(multiple, to))),
        st.sampled_from((1e-300, -1e-300)),
        st.floats(n * u, 1e308).flatmap(lambda x: st.sampled_from((x, -x)))))
    lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2,
                                  max_size=2)))
    return m, shift, lo, hi


@settings(max_examples=300, deadline=None)
@given(_reads())
def test_grid_cdf_equals_one_search_of_the_grid(read):
    m, shift, lo, hi = read
    z = GRIDS[m]
    values, cum = z._steps
    want = cum[np.searchsorted(values, values[lo:hi] + shift, "right")]
    got = correction._grid_cdf(z, shift, lo, hi)
    assert got.tobytes() == want.tobytes()



@pytest.mark.parametrize("shift", [0.0, -0.0])
@pytest.mark.parametrize("m", [2, 3, 101, correction.DEFAULT_MESH_COUNT])
def test_a_zero_shift_reads_a_copy_of_the_running_cdf(m, shift):
    """At shift +-0.0 the read is the step cdf at the grid's own values,
    bit for bit, and a caller writing over it leaves the grid's cdf."""
    z = GRIDS[m] if m in GRIDS else _grid(m)
    values, cum = z._steps
    kept = cum.tobytes()
    n = len(z.mass)
    for lo, hi in ((0, n), (0, 1), (n - 1, n), (n // 3, n // 2 + 1),
                   (n // 2, n // 2)):
        got = correction._grid_cdf(z, shift, lo, hi)
        want = correction.pmf_cdf(z, values[lo:hi] + shift)
        assert got.tobytes() == want.tobytes(), (lo, hi)
        got[...] = 7.0
        assert z._cum.tobytes() == kept


@st.composite
def _laws_on_grids(draw):
    """(law, m, B): an exponential or Laplace law on a grid of m from 2 to
    2,001 and B from 1e-3 to 1e4, located at -0.0 or 0.0, inside the grid
    (on an edge, one ulp off it, or anywhere), or beyond either end."""
    m = draw(st.one_of(st.sampled_from((2, 3)), st.integers(2, 2001)))
    B = draw(st.floats(1e-3, 1e4))
    edge = draw(st.integers(1 - m, m - 1)) * (B / (m - 1))
    location = draw(st.one_of(
        st.sampled_from((-0.0, 0.0)),
        st.just(edge),
        st.sampled_from((-np.inf, np.inf)).map(
            lambda to: float(np.nextafter(edge, to))),
        st.floats(-B, B),
        st.floats(B, 1e6 * B).flatmap(lambda x: st.sampled_from((x, -x)))))
    law = draw(st.sampled_from((noise.exponential, noise.laplace)))
    return law(draw(st.floats(1e-3, 1e4)), location), m, B


@settings(max_examples=400, deadline=None)
@given(_laws_on_grids())
def test_discretize_equals_the_allocating_formula_byte_for_byte(grid):
    d, m, B = grid
    assert _same_pmf(correction.discretize(d, m, B),
                     reference_discretize(d, m, B))


@pytest.fixture
def law_work(monkeypatch):
    """Elements that ``noise`` sends to np.exp and np.expm1."""
    work = {"exp": 0, "expm1": 0}

    def counted(name):
        ufunc = getattr(np, name)

        def counting(x, *args, **kwargs):
            if sys._getframe(1).f_code.co_filename == noise.__file__:
                work[name] += np.size(x)
            return ufunc(x, *args, **kwargs)
        return counting

    for name in work:
        monkeypatch.setattr(np, name, counted(name))
    return work


@pytest.mark.parametrize("m", [2, 3, 101, correction.DEFAULT_MESH_COUNT])
def test_laws_at_zero_evaluate_half_the_edges(law_work, m):
    """At location 0 the exponential's cdf runs on the m edges from 0 up
    (expm1), and the Laplace's exp on m elements: neither law evaluates
    the m - 1 edges below 0."""
    for d in (noise.exponential(20.0), noise.laplace(10.0),
              noise.laplace(10.0, -0.0)):
        law_work.update(exp=0, expm1=0)
        correction.discretize(d, m, 300.0)
        laplace = d.kind is noise.Kind.LAPLACE
        assert law_work == {"exp": m if laplace else 0,
                            "expm1": 0 if laplace else m}, d
    law_work.update(exp=0, expm1=0)
    correction._difference_grid(CorrectionQuery(b=10.0, lam=0.05, alpha=0.0,
                                                k=1, m=m))
    assert law_work == {"exp": m, "expm1": m}
