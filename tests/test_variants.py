"""Each variant is one row: threshold noise kind, query noise kind and
correction rule. ROWS states them as literals, in member order; the engine's
laws and corrections must follow them for every variant, monotonic or not.
"""

import pytest

from svtkit.allocation import Variant
from svtkit.correction import CorrectionQuery, optimal_correction
from svtkit.noise import Kind
from svtkit.svt import SvtConfig, correction_term, noise_pair

ROWS = {
    "lap": (Kind.LAPLACE, Kind.LAPLACE, "none"),
    "gau": (Kind.GAUSSIAN, Kind.GAUSSIAN, "none"),
    "gum": (Kind.LAPLACE, Kind.GUMBEL, "mean"),
    "exp-none": (Kind.LAPLACE, Kind.EXPONENTIAL, "none"),
    "exp-mean": (Kind.LAPLACE, Kind.EXPONENTIAL, "mean"),
    "exp-opt": (Kind.LAPLACE, Kind.EXPONENTIAL, "optimal"),
}

BASE = dict(delta=2.0, eps1=0.4, eps2=0.6, c=3, k_max=10, alpha=0.5,
            k_est=20, delta_dp=1e-3)


def test_tokens_in_member_order():
    # The order keys nothing: cli.cell_rng takes each token's stream key
    # from cli._STREAM_KEY.
    assert [v.value for v in Variant] == list(ROWS)
    assert all(Variant(token).value == token for token in ROWS)


@pytest.mark.parametrize("monotonic", [False, True])
@pytest.mark.parametrize("token", list(ROWS))
def test_config_follows_its_row(token, monotonic):
    thr_kind, qry_kind, rule = ROWS[token]
    cfg = SvtConfig(**BASE, variant=Variant(token), monotonic=monotonic)
    thr, qry = noise_pair(cfg)
    assert (thr.kind, qry.kind) == (thr_kind, qry_kind)
    assert Variant(token).query_kind.value == qry_kind.value
    if rule == "none":
        expected = 0.0
    elif rule == "mean":
        expected = qry.mean()
    else:
        expected = optimal_correction(CorrectionQuery.from_budget(
            cfg.eps1, cfg.eps2, cfg.c, cfg.delta, monotonic, cfg.alpha,
            cfg.k_est))[0]
    assert correction_term(cfg) == expected


@pytest.mark.parametrize("variant", list(Variant))
def test_member_holds_its_row(variant):
    assert (variant.threshold_kind, variant.query_kind,
            variant.correction) == ROWS[variant.value]
