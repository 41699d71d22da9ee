"""The shifted read of the step cdf, ``correction._grid_cdf``, at rounding
ties: shifts at a mesh multiple or one ulp off it, shifts far below the
grid's ulp and shifts beyond the grid, each read exactly by one search."""

import numpy as np
from hypothesis import given, settings, strategies as st

from svtkit import correction
from svtkit.correction import CorrectionQuery
from test_correction import grid_work  # noqa: F401 (counts pmf_cdf's elements)


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

