"""The input contract: every public parameter is checked by svtkit.checks.

REGISTRY lists each (entry point, field) pair with the rule it follows and
valid base values for the other fields. Hypothesis draws, per row, values
the rule rejects (the call must raise ValueError) and values it accepts
(the call must succeed). ``test_registry_is_complete`` fails when a public
class or function of ``svtkit`` has neither a row nor an exemption with a
reason, so a new entry point cannot ship unchecked.
"""

import functools
import math
import re
import tempfile
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import svtkit
from svtkit import (allocation, checks, cli, correction, data, metrics, noise,
                    svt)
from svtkit.allocation import Variant
from svtkit.noise import Kind
from svtkit.svt import HaltReason, QueryStream, SvtConfig, SvtOutcome, run_svt

NAN, INF = math.nan, math.inf
NOT_NUMBERS = (True, False, np.bool_(True), "1", None, [1.0], 1j)


def _reals(low, high, **kw):
    """Floats in [low, high], as Python floats or numpy float64."""
    floats = st.floats(low, high, allow_nan=False, **kw)
    return floats | floats.map(np.float64)


def _counts(least):
    ints = st.integers(least, least + 20)
    return ints | ints.map(np.int64)


Rule = namedtuple("Rule", "accepted rejected")


FINITE = Rule(_reals(-1e6, 1e6) | st.integers(-10**6, 10**6),
              st.sampled_from((NAN, INF, -INF, np.float64(NAN)) + NOT_NUMBERS))
POSITIVE = Rule(_reals(1e-3, 1e3) | st.integers(1, 1000),
                st.sampled_from((NAN, INF, -INF, 0, 0.0, -0.0) + NOT_NUMBERS)
                | st.floats(max_value=-1e-300))
NONNEGATIVE = Rule(_reals(0.0, 1e3) | st.integers(0, 1000),
                   st.sampled_from((NAN, INF, -INF) + NOT_NUMBERS)
                   | st.floats(max_value=-1e-300))
NONZERO = Rule(_reals(1e-3, 1e3) | _reals(-1e3, -1e-3),
               st.sampled_from((0, 0.0, NAN, INF, -INF) + NOT_NUMBERS))
PROBABILITY = Rule(_reals(0.0, 1.0, exclude_min=True, exclude_max=True),
                   st.sampled_from((0, 0.0, 1, 1.0, NAN, INF, -INF)
                                   + NOT_NUMBERS)
                   | st.floats(min_value=1.0) | st.floats(max_value=0.0))
TAIL = Rule(_reals(2.0 ** -53, 0.5, exclude_max=True),
            st.sampled_from((0.0, 0.5, 1.0, NAN, INF, -1.0, 1e-17, 2.0 ** -54)
                            + NOT_NUMBERS))
FLAG = Rule(st.booleans() | st.booleans().map(np.bool_),
            st.sampled_from(("no", "", 0, 1, 2, 1.0, NAN, None)))
VARIANT = Rule(st.sampled_from(list(Variant)),
               st.sampled_from(("lap", "exp-opt", None, 0, 1.0, True,
                                Kind.LAPLACE)))
# Array elements: ids must be unique and values finite; they are converted
# with numpy's own casting, so only non-finite values are rejected.
ELEMENT = Rule(_reals(-1e6, 1e6), st.sampled_from((NAN, INF, -INF)))


def count(least):
    bad = (NAN, INF, -INF, least + 0.5, float(least + 1), least - 1, -1,
           np.float64(least + 1), "3", None, True, False)
    return Rule(_counts(least), st.sampled_from(bad)
                | st.integers(max_value=least - 1))


SVT_TOKENS = tuple(v.value for v in Variant)


def sequence(elements, rejected=()):
    """A list or tuple field of one or two distinct ``elements``: strings,
    numbers, None and the ``rejected`` sequences are refused."""
    lists = st.lists(elements, min_size=1, max_size=2, unique=True)
    bad = ("lap", "5", 5, 5.0, NAN, None, True) + tuple(rejected)
    return Rule(lists | lists.map(tuple), st.sampled_from(bad))


def optional(rule):
    """A field that also takes None, meaning "not set"."""
    return Rule(rule.accepted | st.none(),
                rule.rejected.filter(lambda x: x is not None))


def _ingest(**kw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.dat"
        path.write_text("1 2\n2 3\n")
        return data.ingest_transactions(path, **kw)


def _read(reader, text):
    """``reader`` applied to a temporary file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.dat"
        path.write_text(text)
        return reader(path)


def _series(kind):
    """A plot-series kind as a callable of its keyword parameters."""
    return functools.partial(cli.emit_plot_series, kind)


RUN_STREAM = QueryStream([1, 2], [2.0, 0.0], 1.0)
RUN_CFG = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=2,
                    variant=Variant.LAP)


def _runner():
    return lambda rng: run_svt(RUN_STREAM, RUN_CFG, rng)


def _long_runner():
    """A runner over 5,000 queries, past the engine's first chunk."""
    stream = QueryStream(range(5000), np.zeros(5000), 1.0)
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=5000,
                    variant=Variant.LAP)
    return lambda rng: run_svt(stream, cfg, rng)


TRUTH = metrics.GroundTruth.from_items([(1, 2.0), (2, 0.0)], 1.0, c=1)
SVT = dict(delta=1.0, eps1=0.5, eps2=0.5, c=2, k_max=10,
           variant=Variant.EXP_OPT_CORR)
SVT_GAU = dict(SVT, variant=Variant.GAU, delta_dp=0.01)
QUERY = dict(b=2.0, lam=0.25, alpha=0.0, k=3)
BUDGET = dict(eps1=0.5, eps2=0.5, c=2, delta=1.0, monotonic=False, alpha=0.0,
              k=3)
SWEEP = dict(dataset="zipf", variants=("lap",), eps_values=(0.5,))
CALIBRATION = dict(variant=Variant.LAP, eps1=0.5, eps2=0.5, c=2, delta=1.0,
                   monotonic=False)
SPLIT = allocation.split(1.0, Variant.LAP, 2)
SPLIT_FIELDS = {f: getattr(SPLIT, f) for f in
                ("eps_total", "w", "eps1", "eps2", "variant", "monotonic")}

# (entry point, callable, base keyword arguments, {field: rule}). A lambda
# row places the fuzzed scalar where the entry point takes it inside a
# list or tuple. BudgetSplit's fields are tied by eps1 + eps2 = eps_total
# and eps2 = w * eps1, so only its rejections are fuzzed.
ENTRIES = [
    ("SvtConfig", SvtConfig, SVT, dict(
        delta=POSITIVE, eps1=POSITIVE, eps2=POSITIVE, c=count(1),
        k_max=count(1), max_traverses=count(1), k_est=count(1),
        alpha=NONNEGATIVE, resample=FLAG, append=FLAG, monotonic=FLAG,
        correction_override=optional(FINITE))),
    ("SvtConfig", SvtConfig, SVT_GAU,
     dict(delta_dp=PROBABILITY, variant=VARIANT)),
    ("CorrectionQuery", correction.CorrectionQuery, QUERY, dict(
        b=POSITIVE, lam=POSITIVE, alpha=NONNEGATIVE, k=count(1), m=count(2),
        e=TAIL)),
    ("CorrectionQuery.from_budget", correction.CorrectionQuery.from_budget,
     BUDGET, dict(eps1=POSITIVE, eps2=POSITIVE, c=count(1), delta=POSITIVE,
                  monotonic=FLAG, alpha=NONNEGATIVE, k=count(1),
                  m=count(2), e=TAIL)),
    ("ExperimentConfig", cli.ExperimentConfig, SWEEP, dict(
        c=count(1), alpha=NONNEGATIVE, k_est=optional(count(1)),
        repetitions=count(1),
        seed=count(0), resample=FLAG, append=FLAG, monotonic=FLAG,
        delta=POSITIVE, n_items=count(1), n_positive=count(0))),
    ("ExperimentConfig",
     lambda eps, **kw: cli.ExperimentConfig(eps_values=(eps,), **kw),
     dict(dataset="zipf", variants=("lap",)), dict(eps=POSITIVE)),
    ("ExperimentConfig",
     lambda trav, **kw: cli.ExperimentConfig(traverses=(trav,), **kw),
     dict(SWEEP), dict(trav=count(1))),
    ("cell_rng", cli.cell_rng,
     dict(seed=0, eps=0.5, variant="lap", traverses=1, repetition=0),
     dict(seed=count(0), eps=POSITIVE, traverses=count(1),
          repetition=count(0))),
    ("GroundTruth", metrics.GroundTruth,
     dict(ids=[1, 2], scores=[2.0, 1.0], threshold=1.5, c=1),
     dict(threshold=FINITE, c=count(1))),
    ("GroundTruth", lambda s, **kw: metrics.GroundTruth([1], [s], **kw),
     dict(threshold=1.5, c=1), dict(s=ELEMENT)),
    ("GroundTruth.from_items", metrics.GroundTruth.from_items,
     dict(items=[(1, 2.0)], threshold=1.5, c=1),
     dict(threshold=FINITE, c=count(1))),
    ("GroundTruth.top", metrics.GroundTruth.top,
     dict(ds=data.gen_binary(3, 1), c=1), dict(c=count(1))),
    ("ScoredDataset", data.ScoredDataset,
     dict(name="d", ids=[1], scores=[2.0], threshold=1.0),
     dict(threshold=FINITE)),
    ("ScoredDataset",
     lambda s, **kw: data.ScoredDataset("d", [1, 2], [0.0, s], **kw),
     dict(threshold=1.0), dict(s=ELEMENT)),
    ("QueryStream", lambda s, t: QueryStream([1], [s], [t]),
     dict(s=1.0, t=0.0), dict(s=ELEMENT, t=ELEMENT)),
    # Two queries, so the rejected [1.0] is a misaligned column.
    ("QueryStream", QueryStream,
     dict(ids=[1, 2], scores=[2.0, 0.0], thresholds=1.0),
     dict(thresholds=FINITE)),
    ("NoiseDist", noise.NoiseDist, dict(kind=Kind.LAPLACE, scale=1.0),
     dict(scale=POSITIVE, location=FINITE)),
    ("laplace", noise.laplace, dict(scale=1.0),
     dict(scale=POSITIVE, location=FINITE)),
    ("exponential", noise.exponential, dict(mean=1.0),
     dict(mean=POSITIVE, location=FINITE)),
    ("gaussian", noise.gaussian, dict(sigma=1.0),
     dict(sigma=POSITIVE, location=FINITE)),
    ("gumbel", noise.gumbel, dict(beta=1.0),
     dict(beta=POSITIVE, location=FINITE)),
    ("BudgetSplit", allocation.BudgetSplit, SPLIT_FIELDS, dict(
        eps_total=POSITIVE, w=POSITIVE, eps1=POSITIVE, eps2=POSITIVE,
        variant=VARIANT, monotonic=FLAG)),
    ("optimal_w", allocation.optimal_w,
     dict(variant=Variant.LAP, c=2, monotonic=False),
     dict(variant=VARIANT, c=count(1), monotonic=FLAG)),
    ("split", allocation.split,
     dict(eps_total=1.0, variant=Variant.LAP, c=2, monotonic=False),
     dict(eps_total=POSITIVE, variant=VARIANT, c=count(1), monotonic=FLAG)),
    ("calibrate", allocation.calibrate, CALIBRATION, dict(
        eps1=POSITIVE, eps2=POSITIVE, c=count(1), delta=POSITIVE,
        monotonic=FLAG)),
    ("calibrate", allocation.calibrate,
     dict(CALIBRATION, variant=Variant.GAU, delta_dp=0.01),
     dict(delta_dp=PROBABILITY, variant=VARIANT)),
    ("comparison_variance", allocation.comparison_variance, CALIBRATION, dict(
        eps1=POSITIVE, eps2=POSITIVE, c=count(1), delta=POSITIVE,
        monotonic=FLAG)),
    ("comparison_variance", allocation.comparison_variance,
     dict(CALIBRATION, variant=Variant.GAU, delta_dp=0.01),
     dict(delta_dp=PROBABILITY, variant=VARIANT)),
    ("gaussian_kappa", allocation.gaussian_kappa, dict(delta_dp=0.01),
     dict(delta_dp=PROBABILITY)),
    ("query_sensitivity", allocation.query_sensitivity,
     dict(c=2, delta=1.0, monotonic=False),
     dict(c=count(1), delta=POSITIVE, monotonic=FLAG)),
    ("discretize", correction.discretize,
     dict(d=noise.laplace(1.0), m=5, B=3.0), dict(m=count(2), B=POSITIVE)),
    ("difference_cdf", correction.difference_cdf,
     dict(z=0.5, b=2.0, lam=0.25), dict(b=POSITIVE, lam=POSITIVE)),
    ("difference_sf", correction.difference_sf,
     dict(z=0.5, b=2.0, lam=0.25), dict(b=POSITIVE, lam=POSITIVE)),
    ("alpha_beta_estimate", metrics.alpha_beta_estimate,
     dict(runner=_runner(), alpha=0.5, truth=TRUTH, trials=2,
          rng=np.random.default_rng(0)),
     dict(alpha=NONNEGATIVE, trials=count(1))),
    ("run_trials", svt.run_trials,
     dict(stream=RUN_STREAM, cfg=RUN_CFG, rng=np.random.default_rng(0),
          trials=2),
     dict(trials=count(1))),
    ("failure_rate", metrics.failure_rate,
     dict(record=svt.run_trials(RUN_STREAM, RUN_CFG,
                                np.random.default_rng(0), 3),
          alpha=0.5, truth=TRUTH),
     dict(alpha=NONNEGATIVE)),
    ("accuracy_alpha_bound", metrics.accuracy_alpha_bound,
     dict(k=5, eps=1.0, beta=0.1),
     dict(k=count(1), eps=POSITIVE, beta=PROBABILITY)),
    ("gen_zipf", data.gen_zipf, dict(n_items=10), dict(n_items=count(1))),
    ("gen_binary", data.gen_binary, dict(n_items=30, n_positive=0),
     dict(n_items=count(1), n_positive=count(0))),
    ("ingest_transactions", _ingest, dict(threshold=1.0),
     dict(threshold=FINITE)),
    ("quantile", noise.quantile, dict(d=noise.laplace(1.0), p=0.5),
     dict(p=PROBABILITY)),
    ("near_threshold_stream", cli.near_threshold_stream,
     dict(k=2, threshold=10.0, alpha=1.0),
     dict(k=count(1), threshold=FINITE, alpha=NONNEGATIVE, margin=POSITIVE)),
    ("emit_plot_series(variance)", _series("variance"), dict(points=2),
     dict(points=count(1), eps_min=POSITIVE, eps_max=POSITIVE)),
    ("emit_plot_series(accuracy)", _series("accuracy"),
     dict(k=2, trials=1, alphas=(5.0,), variants=("lap",)),
     dict(k=count(1), eps=POSITIVE)),
    ("emit_plot_series(correction-sweep)", _series("correction-sweep"),
     dict(points=3), dict(points=count(1), r_min=optional(FINITE),
                          r_max=optional(FINITE))),
    ("emit_plot_series(traverses)", _series("traverses"),
     dict(n_items=50, c=2, traverses=(1,), variants=("lap",)),
     dict(repetitions=count(2))),
    ("lipschitz_tail_check", noise.lipschitz_tail_check,
     dict(d=noise.laplace(1.0), k2=1.0, shift=0.5, grid=[0.0, 1.0]),
     dict(k2=POSITIVE, shift=NONZERO)),
    ("emit_plot_series(accuracy)", _series("accuracy"),
     dict(k=2, trials=1, alphas=(5.0,), variants=("lap",)),
     dict(alphas=sequence(_reals(0.0, 50.0)),
          variants=sequence(st.sampled_from(SVT_TOKENS),
                            (["upper"], ("lap", "warp"))))),
    ("emit_plot_series(traverses)", _series("traverses"),
     dict(n_items=50, c=2, repetitions=2, traverses=(1,), variants=("lap",)),
     dict(variants=sequence(st.sampled_from(SVT_TOKENS + ("upper",)),
                            (["warp"],)),
          traverses=sequence(st.integers(1, 3), ([0], (1.5,))))),
]

REGISTRY = [pytest.param(fn, base, field, rule, id=f"{name}.{field}")
            for name, fn, base, rules in ENTRIES
            for field, rule in rules.items()]

# Public names with no scalar parameter of their own, and why.
EXEMPT = {
    "HaltReason": "an enumeration",
    "Variant": "an enumeration",
    "SvtOutcome": "a result record with no scalar to check: run_svt writes "
                  "it, and COLUMNS below covers its constructor's columns",
    "run_svt": "takes a checked QueryStream and SvtConfig; PROBES covers "
               "its rng",
    "shuffle_and_stream": "takes a checked ScoredDataset; PROBES covers its "
                          "rng",
    "optimal_correction": "takes a checked CorrectionQuery",
    "correction_sweep": "evaluation points: NaN in gives NaN out",
    "success_probability_analytical": "evaluation points: NaN in gives "
                                      "NaN out",
    "effective_lambda": "reads a checked SvtConfig",
    "privacy_cost": "reads a checked SvtConfig",
    "ncr": "scores emitted ids against a checked GroundTruth",
    "f1": "scores emitted ids against a checked GroundTruth",
}

FUZZ = settings(max_examples=6, deadline=None, database=None,
                derandomize=True,
                suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("fn, base, field, rule", REGISTRY)
@FUZZ
@given(data=st.data())
def test_field_follows_its_rule(fn, base, field, rule, data):
    bad = data.draw(rule.rejected, label="rejected")
    with pytest.raises(ValueError):
        fn(**{**base, field: bad})
    if fn is not allocation.BudgetSplit:
        fn(**{**base, field: data.draw(rule.accepted, label="accepted")})


# The positional scalar of each lambda row whose base leaves it out.
SCALARS = dict(eps=0.5, trav=1, s=1.0)


def _singular_calls():
    """The closed form on its singular line b * lam = 1, where the textbook
    form is 0/0 and the evaluated one takes the exact limit."""
    z = np.linspace(-3.0, 3.0, 7)
    for b, lam in ((2.0, 0.5), (4.0, 0.25)):
        q = correction.CorrectionQuery(b=b, lam=lam, alpha=1.0, k=3)
        for fn, args in ((correction.difference_cdf, (b, lam)),
                         (correction.difference_sf, (b, lam)),
                         (correction.success_probability_analytical, (q,))):
            yield pytest.param(functools.partial(fn, z, *args),
                               id=f"{fn.__name__}(b={b:g})")


@pytest.mark.parametrize("call", [
    pytest.param(functools.partial(fn, **{
        **{f: SCALARS[f] for f in rules.keys() & SCALARS}, **base}), id=name)
    for name, fn, base, rules in ENTRIES] + list(_singular_calls()))
def test_valid_call_warns_nothing(call):
    """Valid arguments, the singular line b * lam = 1 included, run with
    warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


def test_registry_is_complete():
    covered = {name.split(".")[0] for name, *_ in ENTRIES}
    public = {name for name in svtkit.__all__
              if callable(getattr(svtkit, name))}
    assert not set(EXEMPT) - public, "stale exemptions"
    assert not set(EXEMPT) & covered, "exempt names that have rows"
    assert public - covered - set(EXEMPT) == set(), "entry points with no row"


PROBES = {
    "SvtConfig(correction_override=nan)":
        lambda: SvtConfig(**SVT, correction_override=NAN),
    "SvtConfig(correction_override=-inf)":
        lambda: SvtConfig(**SVT, correction_override=-INF),
    "SvtConfig(resample='no')": lambda: SvtConfig(**SVT, resample="no"),
    "SvtConfig(append=2)": lambda: SvtConfig(**SVT, append=2),
    "SvtConfig(c=True)": lambda: SvtConfig(**dict(SVT, c=True)),
    "CorrectionQuery(k=nan)":
        lambda: correction.CorrectionQuery(**dict(QUERY, k=NAN)),
    "CorrectionQuery(k=1.5)":
        lambda: correction.CorrectionQuery(**dict(QUERY, k=1.5)),
    "CorrectionQuery(m=2.5)":
        lambda: correction.CorrectionQuery(**QUERY, m=2.5),
    # 1 - e rounds to 1.0: the grid's quantile failed naming no field.
    "CorrectionQuery(e=1e-17)":
        lambda: correction.CorrectionQuery(**QUERY, e=1e-17),
    # A grid bound beyond float range: numpy warned of an overflow, then
    # discretize raised naming its own B.
    "CorrectionQuery(b=1e308)":
        lambda: correction.CorrectionQuery(**dict(QUERY, b=1e308)),
    "CorrectionQuery(lam=1e-307)":
        lambda: correction.CorrectionQuery(**dict(QUERY, lam=1e-307)),
    "CorrectionQuery(b=5e306, e=1e-16)":
        lambda: correction.CorrectionQuery(**dict(QUERY, b=5e306), e=1e-16),
    # A bound whose grid, out to twice the bound, overflows: its top values
    # were inf, optimal_correction returned (0.0, 0.25) and
    # correction_sweep warned of an overflow.
    "CorrectionQuery(b=5e306)":
        lambda: correction.CorrectionQuery(**dict(QUERY, b=5e306)),
    "optimal_w(c=nan)": lambda: allocation.optimal_w(Variant.LAP, NAN),
    "split(c=1.5)": lambda: allocation.split(1.0, Variant.LAP, 1.5),
    "calibrate(c=1.5)":
        lambda: allocation.calibrate(Variant.LAP, 0.5, 0.5, 1.5, 1.0),
    "query_sensitivity(c=nan)":
        lambda: allocation.query_sensitivity(NAN, 1.0),
    "GroundTruth(c=nan)": lambda: metrics.GroundTruth([1], [1.0], 0.0, NAN),
    "GroundTruth(c=1.5)": lambda: metrics.GroundTruth([1], [1.0], 0.0, 1.5),
    # An empty ranking (alpha_beta_estimate raised IndexError on it).
    "GroundTruth, no items": lambda: metrics.GroundTruth([], [], 0.0, 1),
    "GroundTruth.from_items, no items":
        lambda: metrics.GroundTruth.from_items([], 0.0, 1),
    "ExperimentConfig(seed=1.5)":
        lambda: cli.ExperimentConfig(**SWEEP, seed=1.5),
    "cell_rng(seed=1.5)": lambda: cli.cell_rng(1.5, 0.5, "lap", 1, 0),
    "ExperimentConfig(traverses=(1.5,))":
        lambda: cli.ExperimentConfig(**SWEEP, traverses=(1.5,)),
    "gen_zipf(2.5)": lambda: data.gen_zipf(2.5),
    "gen_binary(2.5, 1)": lambda: data.gen_binary(2.5, 1),
    "alpha_beta_estimate(trials=nan)":
        lambda: metrics.alpha_beta_estimate(_runner(), 0.0, TRUTH, NAN,
                                            np.random.default_rng(0)),
    "accuracy_alpha_bound(k=nan)":
        lambda: metrics.accuracy_alpha_bound(NAN, 1.0, 0.1),
    "discretize(m=2.5)":
        lambda: correction.discretize(noise.laplace(1.0), 2.5, 3.0),
    "discretize(B=inf)":
        lambda: correction.discretize(noise.laplace(1.0), 5, INF),
    "lipschitz_tail_check(shift=True)":
        lambda: noise.lipschitz_tail_check(noise.laplace(1.0), 1.0, True,
                                           [0.0]),
    "plot-series(kind=correction-sweep, points=1.5)":
        lambda: cli.emit_plot_series("correction-sweep", points=1.5),
    "plot-series(kind=accuracy, k=1.5)":
        lambda: cli.emit_plot_series("accuracy", k=1.5),
    "plot-series(kind=variance, points=0)":
        lambda: cli.emit_plot_series("variance", points=0),
    "plot-series(kind=traverses, repetitions=1)":
        lambda: cli.emit_plot_series("traverses", repetitions=1,
                                     traverses=[1], variants=["lap"],
                                     n_items=200),
    "cell_rng(variant='warp')": lambda: cli.cell_rng(0, 0.5, "warp", 1, 0),
    "cell_rng(variant=Variant.LAP)":
        lambda: cli.cell_rng(0, 0.5, Variant.LAP, 1, 0),
    "SvtConfig(variant='lap')":
        lambda: SvtConfig(**dict(SVT, variant="lap")),
    "split(variant='lap')": lambda: allocation.split(1.0, "lap", 1),
    "optimal_w(variant='lap')": lambda: allocation.optimal_w("lap", 1),
    "calibrate(variant='lap')":
        lambda: allocation.calibrate("lap", 0.5, 0.5, 1, 1.0),
    "quantile(p='0.5')": lambda: noise.quantile(noise.laplace(1.0), "0.5"),
    "ExperimentConfig(eps_values=(1e300,))":
        lambda: cli.ExperimentConfig(**dict(SWEEP, eps_values=(1e300,))),
    "cell_rng(eps=1e300)": lambda: cli.cell_rng(0, 1e300, "lap", 1, 0),
    "ExperimentConfig(eps_values=0.5)":
        lambda: cli.ExperimentConfig(**dict(SWEEP, eps_values=0.5)),
    "ExperimentConfig(traverses=2)":
        lambda: cli.ExperimentConfig(**SWEEP, traverses=2),
    "ExperimentConfig(variants='lap')":
        lambda: cli.ExperimentConfig(**dict(SWEEP, variants="lap")),
    "ExperimentConfig(dataset=None)":
        lambda: cli.ExperimentConfig(**dict(SWEEP, dataset=None)),
    "ExperimentConfig(dataset=3)":
        lambda: cli.ExperimentConfig(**dict(SWEEP, dataset=3)),
    # A repeat would rerun a cell's random stream as an identical row.
    "ExperimentConfig(variants=('lap', 'exp-opt', 'lap'))":
        lambda: cli.ExperimentConfig(**dict(
            SWEEP, variants=("lap", "exp-opt", "lap"))),
    "ExperimentConfig(traverses=(2, 2))":
        lambda: cli.ExperimentConfig(**SWEEP, traverses=(2, 2)),
    "ExperimentConfig(traverses=(1, np.int64(1)))":
        lambda: cli.ExperimentConfig(**SWEEP, traverses=(1, np.int64(1))),
    # Ids: integers within int64, neither truncated nor an OverflowError.
    "ScoredDataset, id 1.5":
        lambda: data.ScoredDataset("x", [1.5], [1.0], 0.0),
    "QueryStream, id 1.5": lambda: QueryStream([1.5], [1.0], 0.0),
    "GroundTruth.from_items, id 1.7":
        lambda: metrics.GroundTruth.from_items([(1.7, 1.0)], 0.0, 1),
    "ScoredDataset, id 10**20":
        lambda: data.ScoredDataset("x", [10**20], [1.0], 0.0),
    "QueryStream, id 10**20": lambda: QueryStream([10**20], [1.0], 0.0),
    "GroundTruth, id 10**20":
        lambda: metrics.GroundTruth([10**20], [1.0], 0.0, 1),
    "GroundTruth, uint64 id 2**63": lambda: metrics.GroundTruth(
        np.array([2**63], dtype=np.uint64), [1.0], 0.0, 1),
    "ingest_transactions, id 10**20": lambda: _read(
        functools.partial(data.ingest_transactions, threshold=1.0),
        "1 2\n100000000000000000000 3\n"),
    "read_scores, id 10**20": lambda: _read(
        data.read_scores,
        "# name=s threshold=1.0\n1,2.0\n100000000000000000000,3.0\n"),
    # An int beyond float range: a ValueError, not float()'s OverflowError.
    "finite(x=10**400)": lambda: checks.finite(x=10**400),
    "nonnegative(x=10**400)": lambda: checks.nonnegative(x=10**400),
    "ScoredDataset(threshold=10**400)":
        lambda: data.ScoredDataset("x", [1], [1.0], 10**400),
    "GroundTruth(threshold=-10**400)":
        lambda: metrics.GroundTruth([1], [1.0], -10**400, 1),
    "QueryStream(thresholds=10**400)":
        lambda: QueryStream([1], [1.0], 10**400),
    # Sequence parameters of plot-series: a JSON list or a tuple only.
    "plot-series(kind=accuracy, alphas=5)":
        lambda: cli.emit_plot_series("accuracy", alphas=5),
    "plot-series(kind=accuracy, variants='lap')":
        lambda: cli.emit_plot_series("accuracy", variants="lap"),
    "plot-series(kind=accuracy, variants=['upper'])":
        lambda: cli.emit_plot_series("accuracy", variants=["upper"]),
    "plot-series(kind=traverses, variants='lap')":
        lambda: cli.emit_plot_series("traverses", variants="lap"),
    "plot-series(kind=traverses, traverses=3)":
        lambda: cli.emit_plot_series("traverses", traverses=3),
    # The stream's margin must survive rounding at the threshold.
    "near_threshold_stream(threshold=1e11, margin=1e-6)":
        lambda: cli.near_threshold_stream(2, 1e11, 5.0, margin=1e-6),
    "near_threshold_stream(alpha=1e11, margin=1e-6)":
        lambda: cli.near_threshold_stream(2, 0.0, 1e11, margin=1e-6),
    "plot-series(kind=accuracy, threshold=1e11)":
        lambda: cli.emit_plot_series("accuracy", threshold=1e11),
    # correction-table's own names, not the optimizer's k and eps_total.
    "emit_correction_table(k_est=0)":
        lambda: cli.emit_correction_table((0.5,), 1, 0.0, k_est=0),
    "emit_correction_table(eps_values=nan)":
        lambda: cli.emit_correction_table((NAN,), 1, 0.0),
    "emit_correction_table(eps_values='0.5')":
        lambda: cli.emit_correction_table("0.5", 1, 0.0),
    # Evaluation points are a 1-d array (was a TypeError from numpy).
    "correction_sweep(r_grid=0.5)": lambda: correction.correction_sweep(
        correction.CorrectionQuery(**QUERY), 0.5),
    "correction_sweep(r_grid=[[0.0, 1.0]])": lambda: correction.correction_sweep(
        correction.CorrectionQuery(**QUERY), [[0.0, 1.0]]),
    # A random source that is not a Generator: a legacy RandomState ran a
    # stream of up to 4,096 queries but raised AttributeError on a longer
    # one, and None or an int raised AttributeError.
    "run_svt(rng=RandomState), 2 queries":
        lambda: _runner()(np.random.RandomState(0)),
    "run_svt(rng=RandomState), 5000 queries":
        lambda: _long_runner()(np.random.RandomState(0)),
    "run_svt(rng=None)": lambda: _runner()(None),
    "run_svt(rng=0)": lambda: _runner()(0),
    "run_svt(rng=None), 5000 queries": lambda: _long_runner()(None),
    "shuffle_and_stream(rng=RandomState)": lambda: data.shuffle_and_stream(
        data.gen_zipf(10), np.random.RandomState(0)),
    "shuffle_and_stream(rng=None)":
        lambda: data.shuffle_and_stream(data.gen_zipf(10), None),
    "shuffle_and_stream(rng=0)":
        lambda: data.shuffle_and_stream(data.gen_zipf(10), 0),
    # noise.sample raised AttributeError on a random source without
    # ``random``, and drew from a legacy RandomState.
    "noise.sample(rng=None)":
        lambda: noise.sample(noise.laplace(1.0), None, size=3),
    "noise.sample(rng=None), one draw":
        lambda: noise.sample(noise.laplace(1.0), None),
    "noise.sample(rng=RandomState)": lambda: noise.sample(
        noise.exponential(1.0), np.random.RandomState(0), size=3),
}


@pytest.mark.parametrize("key, probe", PROBES.items(), ids=PROBES.keys())
def test_formerly_accepted_input_is_rejected(key, probe):
    """Inputs that were accepted, returned NaN or raised TypeError. Where
    the probe names a field (``name=value``), the message names it too."""
    field = re.findall(r"(\w+)=", key)
    named = rf"\b{field[-1]}\b" if field else None
    with pytest.raises(ValueError, match=named):
        probe()


# A noise override's value that is not finite (it answered NaN draws
# negative, and +inf query or -inf threshold draws positive). Each case is
# (role, query id, traverse or redraw index, value, run options); query 1
# sits above its threshold and query 2 below it.
NON_FINITE_DRAWS = [
    ("threshold", -1, 0, NAN, {}),
    ("threshold", -1, 0, -INF, {}),
    ("threshold", -1, 1, INF, dict(resample=True)),
    ("query", 1, 1, NAN, {}),
    ("query", 2, 1, INF, {}),
    ("query", 2, 2, -INF, dict(append=True, max_traverses=2)),
    ("query", 2, 2, np.float64(NAN), dict(append=True, max_traverses=2)),
]


@pytest.mark.parametrize("role, qid, index, value, kw", NON_FINITE_DRAWS)
def test_non_finite_noise_override_is_rejected(role, qid, index, value, kw):
    def override(r, i, t):
        return value if (r, i, t) == (role, qid, index) else 0.0

    stream = QueryStream([1, 2], [5.0, -5.0], 0.0)
    cfg = SvtConfig(**SVT, correction_override=0.0, **kw)
    with pytest.raises(ValueError,
                       match=re.escape(f"noise_override{role, qid, index}")):
        run_svt(stream, cfg, np.random.default_rng(0), override)


QUERY_OBJ = correction.CorrectionQuery(**QUERY)
EVALUATIONS = {
    **{f"{f.__name__}[{d.kind.value}]": functools.partial(f, d)
       for f in (noise.pdf, noise.cdf, noise.log_sf)
       for d in (noise.laplace(1.0), noise.exponential(2.0),
                 noise.gaussian(1.0), noise.gumbel(1.0))},
    "difference_cdf": lambda z: correction.difference_cdf(z, 2.0, 0.25),
    "difference_sf": lambda z: correction.difference_sf(z, 2.0, 0.25),
    "success_probability_analytical":
        lambda r: correction.success_probability_analytical(r, QUERY_OBJ),
    "correction_sweep": lambda r: np.array(
        [p for _, p in correction.correction_sweep(QUERY_OBJ, np.atleast_1d(r))]),
}


@pytest.mark.parametrize("evaluate", EVALUATIONS.values(),
                         ids=EVALUATIONS.keys())
def test_nan_evaluation_point_gives_nan(evaluate):
    out = np.asarray(evaluate(np.array([NAN, 0.5, NAN])))
    assert np.isnan(out[[0, 2]]).all() and np.isfinite(out[1])
    assert math.isnan(float(np.asarray(evaluate(NAN)).ravel()[0]))


def test_ids_within_int64_are_kept():
    top = np.iinfo(np.int64)
    ids = np.array([top.min, 0, top.max])
    truth = metrics.GroundTruth(ids, [3.0, 2.0, 1.0], 0.0, 1)
    assert truth.ids.tolist() == ids.tolist()
    small = np.array([5, 1], dtype=np.uint64)
    assert QueryStream(small, [0.0, 0.0], 0.0).ids.tolist() == [5, 1]
    assert len(QueryStream([], [], [])) == 0


_INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("ids", [
    [7, 3, 9, 7],                   # a repeat at either end
    [7, 7, 3, 9],                   # a repeat at the front
    [3, 9, 5, 5],                   # a repeat at the back
    [4, 8, 1, 6, 8, 2, 4],          # repeats adjacent only once sorted
    [_INT64.max, 0, _INT64.min, _INT64.max],
])
def test_repeated_ids_are_rejected(ids):
    ids = np.array(ids, dtype=np.int64)
    with pytest.raises(ValueError, match="^ids must be unique$"):
        checks.unique_finite(ids, np.zeros(ids.size))


def test_distinct_ids_at_the_int64_ends_are_accepted():
    ids = np.array([_INT64.max, _INT64.min, 0, _INT64.max - 1, _INT64.min + 1])
    checks.unique_finite(ids, np.zeros(ids.size))
    checks.unique_finite(ids[:1])


def test_one_threshold_matches_a_threshold_column():
    ids, scores = [3, 1, 2], [1.5, -2.0, 0.0]
    built = QueryStream(ids, scores, 7)
    assert built == QueryStream(ids, scores, [7, 7, 7])
    assert built.thresholds.dtype == np.float64
    assert not built.thresholds.flags.writeable
    assert len(QueryStream([], [], 1.0)) == 0
    with pytest.raises(ValueError):
        QueryStream([1, 1], [0.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        QueryStream([1], [NAN], 1.0)


def _stream(ids=(1, 2), scores=(2.0, 0.0), thresholds=1.0):
    return QueryStream(ids, scores, thresholds)


def _dataset(ids=(1, 2), scores=(2.0, 0.0), threshold=1.0):
    return data.ScoredDataset("d", ids, scores, threshold)


def _outcome(ids=(1, 2), flags=(True, False), traverses=(1, 1)):
    return SvtOutcome(ids, flags, traverses, HaltReason.EXHAUSTED, 0.0)


def _truth(ids=(1, 2), scores=(2.0, 0.0)):
    return metrics.GroundTruth(ids, scores, 1.0, 1)


ALIGN, ONE_D = "must align", "expected a 1-d array"
NOT_FINITE, NOT_INT64 = "must be finite|must be a number", "within int64"
ROWS_2D = ((1, 2), (3, 4))
# The array constructors, one column at a time. Columns of different
# lengths get the alignment message, not numpy's broadcast error.
COLUMNS = {
    "QueryStream, nan score": (_stream, dict(scores=(NAN, 0.0)), NOT_FINITE),
    "QueryStream, inf score": (_stream, dict(scores=(INF, 0.0)), NOT_FINITE),
    "QueryStream, nan score, threshold column":
        (_stream, dict(scores=(0.0, NAN), thresholds=(1.0, 1.0)), NOT_FINITE),
    "QueryStream, nan threshold": (_stream, dict(thresholds=NAN), NOT_FINITE),
    "QueryStream, -inf threshold":
        (_stream, dict(thresholds=-INF), NOT_FINITE),
    "QueryStream, nan in threshold column":
        (_stream, dict(thresholds=(1.0, NAN)), NOT_FINITE),
    "QueryStream, inf in threshold column":
        (_stream, dict(thresholds=(INF, 1.0)), NOT_FINITE),
    "QueryStream, float ids": (_stream, dict(ids=(1.0, 2.0)), NOT_INT64),
    "QueryStream, ids beyond int64":
        (_stream, dict(ids=(1, 2**63)), NOT_INT64),
    "QueryStream, 2-d ids": (_stream, dict(ids=ROWS_2D), ONE_D),
    "QueryStream, 2-d scores": (_stream, dict(scores=ROWS_2D), ONE_D),
    "QueryStream, 2-d thresholds": (_stream, dict(thresholds=ROWS_2D), ONE_D),
    "QueryStream, short scores": (_stream, dict(scores=(2.0,)), ALIGN),
    "QueryStream, long scores":
        (_stream, dict(scores=(2.0, 0.0, 1.0)), ALIGN),
    "QueryStream, short threshold column":
        (_stream, dict(thresholds=(1.0,)), ALIGN),
    "QueryStream, long threshold column":
        (_stream, dict(thresholds=(1.0, 1.0, 1.0)), ALIGN),
    "ScoredDataset, nan score": (_dataset, dict(scores=(NAN, 0.0)), NOT_FINITE),
    "ScoredDataset, -inf score":
        (_dataset, dict(scores=(2.0, -INF)), NOT_FINITE),
    "ScoredDataset, nan threshold":
        (_dataset, dict(threshold=NAN), NOT_FINITE),
    "ScoredDataset, inf threshold":
        (_dataset, dict(threshold=INF), NOT_FINITE),
    "ScoredDataset, float ids": (_dataset, dict(ids=(1.5, 2.0)), NOT_INT64),
    "ScoredDataset, ids beyond int64":
        (_dataset, dict(ids=(2**64, 1)), NOT_INT64),
    "ScoredDataset, 2-d ids": (_dataset, dict(ids=ROWS_2D), ONE_D),
    "ScoredDataset, 2-d scores": (_dataset, dict(scores=ROWS_2D), ONE_D),
    "ScoredDataset, short scores": (_dataset, dict(scores=(2.0,)), ALIGN),
    "ScoredDataset, short ids": (_dataset, dict(ids=(1,)), ALIGN),
    "SvtOutcome, float ids": (_outcome, dict(ids=(1.0, 2.0)), NOT_INT64),
    "SvtOutcome, ids beyond int64":
        (_outcome, dict(ids=(1, 10**20)), NOT_INT64),
    "SvtOutcome, float traverses":
        (_outcome, dict(traverses=(1, 1.5)), NOT_INT64),
    "SvtOutcome, 2-d ids": (_outcome, dict(ids=ROWS_2D), ONE_D),
    "SvtOutcome, 2-d flags":
        (_outcome, dict(flags=((True, False), (False, True))), ONE_D),
    "SvtOutcome, short flags": (_outcome, dict(flags=(True,)), ALIGN),
    "SvtOutcome, long traverses":
        (_outcome, dict(traverses=(1, 1, 2)), ALIGN),
    "SvtOutcome, short ids": (_outcome, dict(ids=(1,)), ALIGN),
    "GroundTruth, short scores": (_truth, dict(scores=(2.0,)), ALIGN),
    "GroundTruth, 2-d scores": (_truth, dict(scores=ROWS_2D), ONE_D),
    # Python ints beyond float range: numpy raises OverflowError converting.
    "QueryStream, int score beyond float":
        (_stream, dict(ids=(1,), scores=(10**400,), thresholds=0.0),
         NOT_FINITE),
    "QueryStream, int threshold beyond float":
        (_stream, dict(ids=(1,), scores=(0.0,), thresholds=(10**400,)),
         NOT_FINITE),
    "ScoredDataset, int score beyond float":
        (_dataset, dict(scores=(2.0, -10**400)), NOT_FINITE),
    "GroundTruth, int score beyond float":
        (_truth, dict(scores=(10**400, 0.0)), NOT_FINITE),
}


@pytest.mark.parametrize("build, kw, match", COLUMNS.values(),
                         ids=COLUMNS.keys())
def test_array_constructor_rejects_column(build, kw, match):
    with pytest.raises(ValueError, match=match):
        build(**kw)


@pytest.mark.parametrize("build", [_stream, _dataset, _outcome, _truth])
def test_array_constructor_base_is_accepted(build):
    record = build()
    assert record == build()


@pytest.mark.parametrize("monotonic", [False, True])
def test_from_budget_matches_hand_built_query(monotonic):
    eps1, eps2, c, delta = 0.3, 0.7, 5, 2.0
    hand = correction.CorrectionQuery(
        b=delta / eps1, lam=eps2 / ((c if monotonic else 2 * c) * delta),
        alpha=1.0, k=7, m=101, e=1e-6)
    assert correction.CorrectionQuery.from_budget(
        eps1, eps2, c, delta, monotonic, 1.0, 7, m=101, e=1e-6) == hand
