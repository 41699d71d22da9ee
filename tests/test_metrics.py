"""Metric tests: rank-weighted recovery, F1, and the empirical
(alpha, beta)-accuracy estimator."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svtkit import cli, metrics, svt
from svtkit.allocation import Variant
from svtkit.data import ScoredDataset
from svtkit.metrics import GroundTruth
from svtkit.svt import HaltReason, QueryStream, SvtConfig, SvtOutcome, run_svt

ITEMS = [(1, 10.0), (2, 9.0), (3, 8.0), (4, 7.0), (5, 1.0)]
TRUTH3 = GroundTruth.from_items(ITEMS, threshold=5.0, c=3)


def test_ncr_perfect_selection_any_order():
    assert metrics.ncr([1, 2, 3], TRUTH3) == 1.0
    assert metrics.ncr([3, 1, 2], TRUTH3) == 1.0


def test_ncr_empty():
    assert metrics.ncr([], TRUTH3) == 0.0


def test_ncr_partial_hand_case():
    """Rank-1 scores c, rank-3 scores c-2, the below-threshold item 0."""
    assert metrics.ncr([1, 3, 5], TRUTH3) == pytest.approx(2.0 / 3.0)


def test_ncr_above_threshold_but_ranked_beyond_c_scores_zero():
    assert metrics.ncr([4], TRUTH3) == 0.0


def test_ncr_rejects_too_many_positives():
    with pytest.raises(ValueError):
        metrics.ncr([1, 2, 3, 4], TRUTH3)


def test_ncr_top_c_item_below_threshold_earns_nothing():
    truth = GroundTruth.from_items([(1, 10.0), (2, 1.0)], threshold=5.0, c=2)
    assert metrics.ncr([1, 2], truth) == pytest.approx(2.0 / 3.0)


def test_f1_perfect_and_empty():
    assert metrics.f1([1, 2, 3], TRUTH3) == 1.0
    assert metrics.f1([], TRUTH3) == 0.0


def test_f1_half():
    truth = GroundTruth.from_items(ITEMS, threshold=5.0, c=2)
    assert metrics.f1([1, 5], truth) == 0.5


def test_ground_truth_tie_break_ascending_id():
    truth = GroundTruth.from_items([(9, 5.0), (2, 5.0), (7, 5.0)],
                                   threshold=1.0, c=2)
    assert truth.ids.tolist() == [2, 7, 9]
    assert truth.top_c_ids() == (2, 7)


def test_ground_truth_validation():
    with pytest.raises(ValueError):
        GroundTruth(ids=(1, 2), scores=(1.0,), threshold=0.0, c=1)
    with pytest.raises(ValueError):
        GroundTruth(ids=(1, 2), scores=(1.0, 5.0), threshold=0.0, c=1)
    with pytest.raises(ValueError):
        GroundTruth.from_items(ITEMS, threshold=0.0, c=0)


@settings(max_examples=200, deadline=None)
@given(st.permutations(list(range(1, 6))), st.integers(min_value=0, max_value=3))
def test_metrics_permutation_invariant_and_bounded(perm, take):
    chosen = perm[:take]
    n = metrics.ncr(chosen, TRUTH3)
    f = metrics.f1(chosen, TRUTH3)
    assert 0.0 <= n <= 1.0
    assert 0.0 <= f <= 1.0
    assert n == metrics.ncr(list(reversed(chosen)), TRUTH3)
    assert f == metrics.f1(list(reversed(chosen)), TRUTH3)


# --- (alpha, beta)-accuracy --------------------------------------------------

def _worst_case_stream(k: int, threshold: float, alpha: float) -> QueryStream:
    scores = [threshold - alpha - 1e-6] * k + [threshold + alpha + 1e-6]
    return QueryStream(range(1, k + 2), scores, threshold)


def test_alpha_beta_zero_noise_never_fails():
    s = QueryStream([1, 2], [400.0, 600.0], 500.0)
    truth = GroundTruth.from_items([(1, 400.0), (2, 600.0)], 500.0, c=1)
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=2,
                    variant=Variant.EXP_NO_CORR)
    runner = lambda rng: run_svt(s, cfg, rng,
                                 noise_override=lambda *a: 0.0)
    beta = metrics.alpha_beta_estimate(runner, alpha=0.0, truth=truth,
                                       trials=50, rng=np.random.default_rng(0))
    assert beta == 0.0


def test_alpha_beta_estimate_validation():
    truth = GroundTruth.from_items([(1, 1.0)], 0.0, c=1)
    with pytest.raises(ValueError):
        metrics.alpha_beta_estimate(lambda rng: None, 0.0, truth, 0,
                                    np.random.default_rng(0))
    with pytest.raises(ValueError):
        metrics.alpha_beta_estimate(lambda rng: None, -1.0, truth, 5,
                                    np.random.default_rng(0))


def _beta_hat(variant: Variant, alpha: float, trials: int, seed: int,
              k: int = 50, eps: float = 1.0) -> float:
    s = _worst_case_stream(k, 1000.0, alpha)
    truth = GroundTruth.from_items(zip(s.ids.tolist(), s.scores.tolist()),
                                   1000.0, c=1)
    cfg = SvtConfig(delta=1.0, eps1=eps / 2, eps2=eps / 2, c=1, k_max=k + 1,
                    variant=variant, alpha=alpha, k_est=k,
                    delta_dp=1.0 / (k + 1) if variant is Variant.GAU else None)
    runner = lambda rng: run_svt(s, cfg, rng)
    return metrics.alpha_beta_estimate(runner, alpha, truth, trials,
                                       np.random.default_rng(seed))


def test_beta_hat_respects_theoretical_bound():
    """At alpha solved from beta = 2k exp(-alpha eps/4), the empirical
    failure rate stays below beta (plus Monte-Carlo slack)."""
    k, eps, trials = 50, 1.0, 1200
    for beta_target in (0.1, 0.05):
        alpha = metrics.accuracy_alpha_bound(k, eps, beta_target)
        beta_hat = _beta_hat(Variant.EXP_OPT_CORR, alpha, trials, seed=11)
        slack = 3 * math.sqrt(max(beta_hat, 1e-4) * (1 - beta_hat) / trials)
        assert beta_hat <= beta_target + slack


def test_beta_hat_weakly_decreasing_in_alpha():
    trials = 1000
    loose = _beta_hat(Variant.EXP_OPT_CORR, alpha=30.0, trials=trials, seed=3)
    tight = _beta_hat(Variant.EXP_OPT_CORR, alpha=10.0, trials=trials, seed=3)
    noise_floor = 3 * math.sqrt(0.25 / trials)
    assert loose <= tight + noise_floor


def test_corrected_exponential_beats_laplace_failure_rate():
    """Matched (alpha, eps): the optimally corrected exponential variant
    fails no more often than the Laplace baseline."""
    trials = 1000
    for alpha in (10.0, 20.0):
        exp_rate = _beta_hat(Variant.EXP_OPT_CORR, alpha, trials, seed=21)
        lap_rate = _beta_hat(Variant.LAP, alpha, trials, seed=22)
        pooled = math.sqrt((exp_rate * (1 - exp_rate)
                            + lap_rate * (1 - lap_rate)) / trials)
        assert exp_rate <= lap_rate + 3 * max(pooled, 1e-3)


def test_accuracy_bounds_invert_each_other():
    """The alpha bound inverts beta = 2k exp(-alpha eps/4)."""
    k, eps = 50, 1.0
    for beta in (0.2, 0.05, 0.004):
        alpha = metrics.accuracy_alpha_bound(k, eps, beta)
        assert 2.0 * k * math.exp(-alpha * eps / 4.0) == pytest.approx(beta, rel=1e-12)


def test_accuracy_bounds_validation():
    with pytest.raises(ValueError):
        metrics.accuracy_alpha_bound(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        metrics.accuracy_alpha_bound(5, 1.0, 1.5)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_non_finite_alpha_rejected(alpha):
    truth = GroundTruth.from_items([(1, 1.0)], 0.0, c=1)
    with pytest.raises(ValueError):
        metrics.alpha_beta_estimate(lambda rng: None, alpha, truth, 5,
                                    np.random.default_rng(0))


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_truth_threshold_rejected(threshold):
    with pytest.raises(ValueError):
        GroundTruth(ids=(2, 1), scores=(5.0, 1.0), threshold=threshold, c=1)
    with pytest.raises(ValueError):
        GroundTruth.from_items(ITEMS, threshold=threshold, c=1)


def _scripted(answers):
    """A runner returning one fixed outcome of (id, flagged) answers, all in
    traverse 1."""
    outcome = SvtOutcome([i for i, _ in answers], [f for _, f in answers],
                         [1] * len(answers), halt_reason=HaltReason.EXHAUSTED,
                         correction_used=0.0)
    return lambda rng: outcome


@pytest.mark.parametrize("answers, failed", [
    ([(1, False), (2, True), (3, False)], 0.0),   # every answer right
    ([(1, True), (2, True), (3, False)], 1.0),    # a low score flagged
    ([(1, False), (2, False), (3, False)], 1.0),  # a high score unflagged
    ([(1, False), (3, True), (2, True)], 0.0),    # near threshold: either way
    ([(1, False), (2, True)], 1.0),               # query 3 never seen
])
def test_alpha_beta_trial_check(answers, failed):
    truth = GroundTruth.from_items([(1, 0.0), (2, 10.0), (3, 5.5)], 5.0, c=1)
    beta = metrics.alpha_beta_estimate(_scripted(answers), 1.0, truth, 3,
                                       np.random.default_rng(0))
    assert beta == failed


@pytest.mark.parametrize("answers", [[(4, False)], [(0, True)], [(1, False), (9, False)]])
def test_alpha_beta_rejects_ids_missing_from_truth(answers):
    truth = GroundTruth.from_items([(1, 0.0), (2, 10.0), (3, 5.5)], 5.0, c=1)
    with pytest.raises(ValueError, match="missing"):
        metrics.alpha_beta_estimate(_scripted(answers), 1.0, truth, 2,
                                    np.random.default_rng(0))


def _per_trial_reference(runner, alpha, truth, trials, rng):
    """The estimator as a plain loop: one check per trial, as it runs."""
    order = np.argsort(truth.ids)
    ids, scores = truth.ids[order], truth.scores[order]
    failures = 0
    for _ in range(trials):
        outcome = runner(rng)
        at = ids.searchsorted(outcome.answer_ids)
        if (ids.take(at, mode="clip") != outcome.answer_ids).any():
            raise ValueError("an answered id is missing from the ground truth")
        true = scores[at]
        wrong = np.where(outcome.flags, true < truth.threshold - alpha,
                         true > truth.threshold + alpha)
        unseen = np.count_nonzero(outcome.traverses == 1) < ids.size
        failures += bool(wrong.any() or unseen)
    return failures / trials


_MIXED_SCORES = [(i, 10.0 + 3.0 * (i - 6)) for i in range(12)]
# Lengths vary by config: append runs re-evaluate negatives in traverses 2
# and 3, and a small k_max or c cuts a run short (a failed trial).
_MIXED_CONFIGS = [
    SvtConfig(delta=1.0, eps1=10.0, eps2=10.0, c=12, k_max=40,
              variant=Variant.LAP, append=True, max_traverses=3),
    SvtConfig(delta=1.0, eps1=10.0, eps2=10.0, c=12, k_max=12,
              variant=Variant.EXP_OPT_CORR, alpha=1.0, k_est=1),
    SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=2, k_max=5, variant=Variant.GUM),
    SvtConfig(delta=1.0, eps1=20.0, eps2=20.0, c=12, k_max=30,
              variant=Variant.EXP_NO_CORR, append=True, max_traverses=2),
]


def _mixed_runner():
    """A runner cycling through configs whose outcomes differ in length,
    with traverses > 1 among them."""
    stream = QueryStream(*zip(*_MIXED_SCORES), 10.0)
    configs = iter(_MIXED_CONFIGS * 1000)
    return lambda rng: run_svt(stream, next(configs), rng)


@pytest.mark.parametrize("bound", [1, 7, 50, metrics._BATCH_ANSWERS])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_batched_estimate_matches_per_trial_loop(monkeypatch, bound, seed,
                                                 alpha):
    """Batches of a few answers cross trial boundaries; the estimate and
    the generator's end state are those of a per-trial check."""
    truth = GroundTruth.from_items(_MIXED_SCORES, 10.0, c=3)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _per_trial_reference(_mixed_runner(), alpha, truth, 97, ref_rng)
    monkeypatch.setattr(metrics, "_BATCH_ANSWERS", bound)
    beta = metrics.alpha_beta_estimate(_mixed_runner(), alpha, truth, 97, rng)
    assert beta == expected
    assert 0.0 < beta < 1.0
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_mixed_runner_has_appended_traverses():
    runner, rng = _mixed_runner(), np.random.default_rng(3)
    outcomes = [runner(rng) for _ in _MIXED_CONFIGS * 5]
    assert max(int(o.traverses.max()) for o in outcomes) == 3
    assert len({o.answer_ids.size for o in outcomes}) > 4


@pytest.mark.parametrize("variant", [Variant.EXP_OPT_CORR, Variant.LAP,
                                     Variant.GAU])
@pytest.mark.parametrize("bound", [40, metrics._BATCH_ANSWERS])
def test_batched_estimate_matches_per_trial_loop_on_accuracy_streams(
        monkeypatch, variant, bound):
    s = _worst_case_stream(20, 100.0, 2.0)
    truth = GroundTruth.from_items(zip(s.ids.tolist(), s.scores.tolist()),
                                   100.0, c=1)
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=21,
                    variant=variant, alpha=2.0, k_est=20, delta_dp=0.05)
    runner = lambda rng: run_svt(s, cfg, rng)
    expected = _per_trial_reference(runner, 2.0, truth, 300,
                                    np.random.default_rng(5))
    monkeypatch.setattr(metrics, "_BATCH_ANSWERS", bound)
    assert metrics.alpha_beta_estimate(runner, 2.0, truth, 300,
                                       np.random.default_rng(5)) == expected


@pytest.mark.parametrize("bound", [1, 2, 4, 1000])
@pytest.mark.parametrize("answers", [
    [(1, False), (2, True), (3, False)],
    [(1, True), (2, True), (3, False)],
    [(1, False), (2, True)],
])
def test_batched_estimate_of_one_repeated_outcome(monkeypatch, bound, answers):
    """``_scripted`` returns the same outcome object on every call."""
    truth = GroundTruth.from_items([(1, 0.0), (2, 10.0), (3, 5.5)], 5.0, c=1)
    expected = _per_trial_reference(_scripted(answers), 1.0, truth, 5,
                                    np.random.default_rng(0))
    monkeypatch.setattr(metrics, "_BATCH_ANSWERS", bound)
    assert metrics.alpha_beta_estimate(_scripted(answers), 1.0, truth, 5,
                                       np.random.default_rng(0)) == expected


def test_missing_id_in_the_middle_of_a_batch(monkeypatch):
    """Batches of three 3-answer trials; trial 5 answers an unknown id. The
    error comes at the end of its batch, after trial 6."""
    truth = GroundTruth.from_items([(1, 0.0), (2, 10.0), (3, 5.5)], 5.0, c=1)
    good = _scripted([(1, False), (2, True), (3, False)])(None)
    bad = _scripted([(1, False), (9, True), (3, False)])(None)
    calls = []

    def runner(rng):
        calls.append(len(calls) + 1)
        return bad if len(calls) == 5 else good

    monkeypatch.setattr(metrics, "_BATCH_ANSWERS", 9)
    with pytest.raises(ValueError, match="missing"):
        metrics.alpha_beta_estimate(runner, 1.0, truth, 20,
                                    np.random.default_rng(0))
    assert calls[-1] == 6


def test_cached_top_c_maps_keep_equality_on_fields():
    fresh = GroundTruth.from_items(ITEMS, threshold=5.0, c=3)
    used = GroundTruth.from_items(ITEMS, threshold=5.0, c=3)
    assert metrics.ncr([1, 3], used) == metrics.ncr([1, 3], fresh)
    assert metrics.f1([1, 4], used) == 0.4
    assert used == fresh
    assert used != GroundTruth.from_items(ITEMS, threshold=5.0, c=2)
    assert metrics.f1([1, 2], GroundTruth.from_items(ITEMS, 5.0, c=2)) == 1.0
    assert used.top_c_ids() == tuple(used.ids[:3].tolist())


def test_f1_matches_the_set_definition():
    truth = GroundTruth.from_items(ITEMS, threshold=5.0, c=3)
    target = set(truth.ids[:3].tolist())
    for chosen in ([], [1], [1, 4], [4, 99, 99], [1, 2, 3], [5, 6, 7, 8]):
        emitted = set(chosen)
        tp = len(emitted & target)
        denom = 2 * tp + len(emitted - target) + len(target - emitted)
        assert metrics.f1(chosen, truth) == 2.0 * tp / denom


def test_ground_truth_rejects_nested_arrays():
    with pytest.raises(ValueError, match="expected a 1-d array"):
        GroundTruth(ids=[[1, 2]], scores=[[2.0, 1.0]], threshold=0.0, c=1)


def prefix_ncr(positives, truth):
    """The oracle: ncr that credits the ranking's prefix whose scores reach
    the threshold, which holds exactly the credited items because the
    ranking is score-descending."""
    emitted = dict.fromkeys(positives)
    if len(emitted) > truth.c:
        raise ValueError("too many positives")
    n = int(np.count_nonzero(truth.scores[:truth.c] >= truth.threshold))
    credit = dict(zip(truth.ids[:n].tolist(), range(truth.c, truth.c - n, -1)))
    total = sum(credit.get(item, 0) for item in emitted)
    return 2.0 * total / (truth.c * (truth.c + 1))


def test_ncr_matches_the_ranking_prefix_oracle():
    """Over random truths with tied scores, top-c items below the threshold,
    repeated positives and positives outside the truth, ncr gives the
    oracle's float, and raises where it raises."""
    rng = np.random.default_rng(30)
    seen = set()
    for _ in range(600):
        n = int(rng.integers(1, 30))
        ids = rng.permutation(np.arange(100, 100 + 3 * n))[:n]
        scores = rng.integers(0, 6, n).astype(float)
        threshold = float(rng.choice(scores)) + float(rng.choice([-0.5, 0, 0.5]))
        c = int(rng.integers(1, n + 3))
        truth = GroundTruth.ranked(ids, scores, threshold, c)
        pool = np.concatenate([ids, rng.integers(0, 100, 4)])
        positives = rng.choice(pool, size=int(rng.integers(0, c + 3))).tolist()
        seen.update(k for k, hit in (
            ("tie", np.unique(scores).size < n),
            ("below", (truth.scores[:c] < threshold).any()),
            ("repeat", len(set(positives)) < len(positives)),
            ("outside", any(p < 100 for p in positives))) if hit)
        try:
            expected = prefix_ncr(positives, truth)
        except ValueError:
            seen.add("raises")
            with pytest.raises(ValueError, match="at most c"):
                metrics.ncr(positives, truth)
            continue
        assert metrics.ncr(positives, truth) == expected
        assert metrics.ncr(tuple(positives), truth) == expected
    assert seen == {"tie", "below", "repeat", "outside", "raises"}


@st.composite
def _columns(draw):
    """Aligned unique ids, in any order, and scores from a few values,
    so ties are common and 0.0 and -0.0 often meet."""
    scores = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.5, 2.0, -3.0, 7.0]),
                           min_size=1, max_size=30))
    ids = draw(st.lists(st.integers(-40, 40), min_size=len(scores),
                        max_size=len(scores), unique=True))
    return ids, scores


@settings(max_examples=300, deadline=None)
@given(columns=_columns(), c=st.integers(1, 35))
@example(columns=([5, 3, 9, 1], [2.0, 7.0, 2.0, 2.0]), c=2)  # tie at the c-th
@example(columns=([4, 2, 8], [0.0, -0.0, 0.0]), c=2)          # 0.0 beside -0.0
@example(columns=([9, 7, 5, 3, 1], [1.0, 2.0, 3.0, 4.0, 5.0]), c=3)
@example(columns=([2, 1], [1.5, 1.5]), c=5)                    # c >= n
@example(columns=([6, 4, 2], [-3.0, -3.0, 0.0]), c=1)
def test_top_c_truth_is_the_ranking_prefix(columns, c):
    """``GroundTruth.top`` holds the first min(c, n) entries of the full
    ranking, bit for bit (so the sign of a zero too)."""
    ids, scores = columns
    top = GroundTruth.top(ScoredDataset("d", ids, scores, 1.0), c)
    full = GroundTruth.ranked(ids, scores, 1.0, c)
    n = min(c, len(ids))
    assert top.ids.tobytes() == full.ids[:n].tobytes()
    assert top.scores.tobytes() == full.scores[:n].tobytes()
    assert (top.threshold, top.c) == (full.threshold, full.c)
    assert not (top.ids.flags.writeable or top.scores.flags.writeable)


def test_alpha_beta_estimate_rejects_a_top_c_truth_missing_a_queried_id():
    stream = _worst_case_stream(20, 100.0, 2.0)
    truth = GroundTruth.top(ScoredDataset("s", stream.ids, stream.scores,
                                          100.0), 1)
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=21,
                    variant=Variant.LAP)
    with pytest.raises(ValueError, match="missing"):
        metrics.alpha_beta_estimate(lambda r: run_svt(stream, cfg, r), 2.0,
                                    truth, 10, np.random.default_rng(0))


@pytest.mark.parametrize("token, appended", [
    ("exp-opt", {}), ("lap", {}),  # one block
    ("lap", dict(k_max=102, append=True, max_traverses=2))],  # the loop
    ids=["exp-opt", "lap", "lap-appended"])
def test_unseen_queries_count_against_the_streams_length(token, appended):
    """A truth that also ranks ids the stream never queries gives the
    estimate of the stream's own truth: a run of ``run_svt`` knows its
    stream's length."""
    stream = cli.near_threshold_stream(50, 1000.0, 40.0)
    cfg = SvtConfig(**{**dict(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=51,
                              variant=Variant(token), alpha=40.0, k_est=50),
                       **appended})
    exact = GroundTruth.ranked(stream.ids, stream.scores, 1000.0, 1)
    wider = GroundTruth.ranked(np.append(stream.ids, [900, 901]),
                               np.append(stream.scores, [0.0, 2000.0]),
                               1000.0, 1)
    beta = [metrics.alpha_beta_estimate(lambda r: run_svt(stream, cfg, r),
                                        40.0, truth, 500,
                                        np.random.default_rng(0))
            for truth in (exact, wider)]
    assert beta[0] == beta[1] < 1.0
    assert run_svt(stream, cfg, np.random.default_rng(0)).n_queries == 51


# --- the check by stream position -------------------------------------------
# A one-block outcome of run_svt answered a prefix of its stream's ids, and
# the estimator checks it by position; every other outcome by id.

_IDS, _SCORES = (list(column) for column in zip(*_MIXED_SCORES))
_FORWARD = QueryStream(_IDS, _SCORES, 10.0)
_BACKWARD = QueryStream(_IDS[::-1], _SCORES[::-1], 10.0)
_PLAIN = SvtConfig(delta=1.0, eps1=1.0, eps2=1.0, c=3, k_max=12,
                   variant=Variant.LAP)


def _two_stream_runner():
    """One-block outcomes of two streams over the same ids in two orders,
    between appended, query-budget and column-built outcomes."""
    built = _scripted([(i, s >= 10.0) for i, s in _MIXED_SCORES[:7]])(None)
    steps = itertools.cycle([
        (_FORWARD, _PLAIN), (_BACKWARD, _PLAIN),
        (_FORWARD, _MIXED_CONFIGS[0]), (_BACKWARD, _MIXED_CONFIGS[2]), None,
        (_BACKWARD, _MIXED_CONFIGS[1]), (_FORWARD, _PLAIN)])

    def runner(rng):
        step = next(steps)
        return built if step is None else run_svt(*step, rng)
    return runner


def test_two_stream_runner_mixes_every_kind_of_outcome():
    runner, rng = _two_stream_runner(), np.random.default_rng(0)
    outcomes = [runner(rng) for _ in range(7)]
    prefixes = [o._prefix_of for o in outcomes]
    assert prefixes[0] is prefixes[6] is _FORWARD._in_order[0]
    assert prefixes[1] is prefixes[5] is _BACKWARD._in_order[0]
    assert prefixes[2] is prefixes[3] is prefixes[4] is None
    assert "_parts" in vars(outcomes[2]) and outcomes[4].n_queries is None


@pytest.mark.parametrize("bound", [1, 7, 50, metrics._BATCH_ANSWERS])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.0, 4.0])
def test_position_check_matches_per_trial_loop(monkeypatch, bound, seed,
                                               alpha):
    truth = GroundTruth.from_items(_MIXED_SCORES, 10.0, c=3)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _per_trial_reference(_two_stream_runner(), alpha, truth, 97,
                                    ref_rng)
    monkeypatch.setattr(metrics, "_BATCH_ANSWERS", bound)
    beta = metrics.alpha_beta_estimate(_two_stream_runner(), alpha, truth, 97,
                                       rng)
    assert beta == expected and 0.0 < beta < 1.0 and type(beta) is float
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bound", [1, metrics._BATCH_ANSWERS])
def test_unpickled_one_block_outcomes_are_checked_by_id(monkeypatch, bound):
    """A pickle carries the columns only, so the copy has no stream."""
    def runner(rng):
        copy = pickle.loads(pickle.dumps(run_svt(_FORWARD, _PLAIN, rng)))
        assert copy._prefix_of is None and "answer_ids" in vars(copy)
        return copy

    truth = GroundTruth.from_items(_MIXED_SCORES, 10.0, c=3)
    expected = _per_trial_reference(runner, 1.0, truth, 60,
                                    np.random.default_rng(4))
    monkeypatch.setattr(metrics, "_BATCH_ANSWERS", bound)
    assert metrics.alpha_beta_estimate(runner, 1.0, truth, 60,
                                       np.random.default_rng(4)) == expected


def test_one_block_columns_read_after_the_check():
    """The columns a one-block outcome builds on first read, after the
    estimator checked it by position, are the stream's prefix, all in
    traverse 1, and read-only."""
    outcomes = []
    truth = GroundTruth.from_items(_MIXED_SCORES, 10.0, c=3)
    metrics.alpha_beta_estimate(
        lambda rng: outcomes.append(run_svt(_BACKWARD, _PLAIN, rng))
        or outcomes[-1], 1.0, truth, 40, np.random.default_rng(2))
    assert all("answer_ids" not in vars(o) for o in outcomes)
    for o in outcomes:
        n = o.n_a
        assert np.array_equal(o.answer_ids, _BACKWARD.ids[:n])
        assert np.array_equal(o.traverses, np.ones(n, dtype=np.int64))
        assert o.positives == tuple(_BACKWARD.ids[:n][o.flags].tolist())
        assert not (o.answer_ids.flags.writeable or o.traverses.flags.writeable)
        assert o == SvtOutcome(_BACKWARD.ids[:n], o.flags, [1] * n,
                               o.halt_reason, o.correction_used)
    assert len({o.n_a for o in outcomes}) > 2


def _sure_first_stream():
    """Query 1 is far above the threshold, so a c = 1 run answers it and
    halts: ids 2 to 12 are never answered."""
    scores = [10.0**6] + [10.0 + i for i in range(11)]
    return QueryStream(range(1, 13), scores, 10.0)


def test_a_truth_may_lack_ids_no_run_answers():
    queries = _sure_first_stream()
    keep = queries.ids != 5
    truth = GroundTruth.ranked(queries.ids[keep], queries.scores[keep], 10.0,
                               c=1)
    cfg = SvtConfig(delta=1.0, eps1=1.0, eps2=1.0, c=1, k_max=12,
                    variant=Variant.LAP)
    runner = lambda rng: run_svt(queries, cfg, rng)
    expected = _per_trial_reference(runner, 1.0, truth, 30,
                                    np.random.default_rng(1))
    assert metrics.alpha_beta_estimate(
        runner, 1.0, truth, 30, np.random.default_rng(1)) == expected == 1.0
    record = svt.run_trials(queries, cfg, np.random.default_rng(1), 30)
    assert metrics.failure_rate(record, 1.0, truth) == expected


@pytest.mark.parametrize("bound", [9, 40])
def test_an_answered_id_missing_from_the_truth_raises_at_its_batch_end(
        monkeypatch, bound):
    """The truth lacks the stream's ninth id: the first run that answers it
    (the second) raises at the end of its batch, which it closes at a bound
    of 9 answers and which ends ten runs later at 40; so does the failure
    rate over the same runs."""
    stream = cli.near_threshold_stream(11, 100.0, 1.0)
    keep = stream.ids != stream.ids[8]
    truth = GroundTruth.ranked(stream.ids[keep], stream.scores[keep], 100.0,
                               c=1)
    cfg = SvtConfig(delta=1.0, eps1=0.2, eps2=0.2, c=1, k_max=12,
                    variant=Variant.LAP)
    sizes = [run_svt(stream, cfg, rng).n_a
             for rng in [np.random.default_rng(6)] for _ in range(200)]
    first = next(t for t, n_a in enumerate(sizes) if n_a > 8)
    held, batch_end = 0, None
    for t, n_a in enumerate(sizes):
        held += n_a
        if held >= bound:
            held = 0
            if t >= first:
                batch_end = t + 1
                break
    assert (first, batch_end - 1 - first) == (1, {9: 0, 40: 10}[bound])
    calls = []

    def runner(rng):
        calls.append(None)
        return run_svt(stream, cfg, rng)

    monkeypatch.setattr(metrics, "_BATCH_ANSWERS", bound)
    with pytest.raises(ValueError, match="missing"):
        metrics.alpha_beta_estimate(runner, 1.0, truth, 200,
                                    np.random.default_rng(6))
    assert len(calls) == batch_end
    with pytest.raises(ValueError, match="missing"):
        metrics.failure_rate(svt.run_trials(stream, cfg,
                                            np.random.default_rng(6), 200),
                             1.0, truth)


@pytest.mark.parametrize("token", ["exp-opt", "exp-none", "lap", "gau", "gum"])
@pytest.mark.parametrize("alpha", [0.0, 5.0, 40.0])
def test_failure_rate_is_the_runner_estimate(token, alpha):
    """Over ``run_trials`` on the same generator, the failure rate is the
    estimate of a runner calling ``run_svt``, bit for bit."""
    stream = cli.near_threshold_stream(50, 1000.0, alpha)
    truth = GroundTruth.ranked(stream.ids, stream.scores, 1000.0, c=1)
    cfg = SvtConfig(delta=1.0, eps1=0.5, eps2=0.5, c=1, k_max=51,
                    variant=Variant(token), alpha=alpha, k_est=50,
                    delta_dp=0.02)
    runner_rng, block_rng = np.random.default_rng(9), np.random.default_rng(9)
    beta = metrics.alpha_beta_estimate(lambda r: run_svt(stream, cfg, r),
                                       alpha, truth, 700, runner_rng)
    record = svt.run_trials(stream, cfg, block_rng, 700)
    rate = metrics.failure_rate(record, alpha, truth)
    assert rate == beta and type(rate) is type(beta) is float
    assert runner_rng.bit_generator.state == block_rng.bit_generator.state
