"""Release gate: nine numbered end-to-end checks across the toolkit.

Each test prints one ``criterion N (...): PASS/FAIL`` line (run pytest with
``-s`` to see the lines of passing checks too). Criterion 3's ordering
clause is left failing on purpose: it asserts that the laplace variant has
lower comparison variance than the gumbel one, but the closed forms put
the gumbel query-noise coefficient (pi^2/6) below the laplace one (2), so
the minimized variances order the other way at every epsilon. The assert
stays as written rather than being flipped to match the implementation;
its message carries the analysis.
"""

import math
import time

import numpy as np

from svtkit import allocation, cli, correction, metrics, noise
from svtkit.allocation import Variant
from svtkit.svt import SvtConfig, run_svt


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_success_curve_matches_closed_form():
    """Numerical p(r) agrees with the closed form over a wide r grid."""
    t0 = time.perf_counter()
    split = allocation.split(0.03, Variant.EXP_OPT_CORR, 1, False)
    lam = split.eps2 / 2.0
    query = correction.CorrectionQuery(b=1.0 / split.eps1, lam=lam,
                                       alpha=0.0, k=10)
    mean = 1.0 / lam
    grid = np.linspace(-3 * mean, 8 * mean, 1000)
    numeric = np.array([p for _, p in correction.correction_sweep(query, grid)])
    closed = np.asarray(correction.success_probability_analytical(grid, query))
    sup = float(np.max(np.abs(numeric - closed)))
    l2 = float(np.linalg.norm(numeric - closed))
    elapsed = time.perf_counter() - t0
    ok = sup < 1e-2 and l2 < 1e-2 and elapsed < 5.0
    report(1, "success curve vs closed form", ok,
           f"sup={sup:.2e} l2={l2:.2e} {elapsed:.2f}s")
    assert sup < 1e-2
    assert l2 < 1e-2
    assert elapsed < 5.0


def test_criterion_2_noise_lipschitz_bounds():
    """Log-density / log-survival Lipschitz constants over random pairs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n = 10_000
    xs = rng.uniform(-40.0, 100.0, n)
    shifts = rng.uniform(0.1, 5.0, n) * rng.choice((-1.0, 1.0), n)

    b = 2.0
    lap = noise.laplace(b)
    lap_gap = np.abs(np.log(noise.pdf(lap, xs))
                     - np.log(noise.pdf(lap, xs + shifts)))
    lap_violation = float(np.max(lap_gap - np.abs(shifts) / b))

    lam = 0.25
    expo = noise.exponential(1.0 / lam)
    exp_gap = np.abs(np.asarray(noise.log_sf(expo, xs))
                     - np.asarray(noise.log_sf(expo, xs + shifts)))
    exp_slack = lam * np.abs(shifts) - exp_gap
    exp_violation = float(np.max(-exp_slack))
    both_supported = (xs >= 0.0) & (xs + shifts >= 0.0)
    exp_tightness = float(np.min(exp_slack[both_supported]))

    beta = 3.0
    gum = noise.gumbel(beta)
    gum_gap = np.abs(np.asarray(noise.log_sf(gum, xs))
                     - np.asarray(noise.log_sf(gum, xs + shifts)))
    gum_violation = float(np.max(gum_gap - np.abs(shifts) / beta))

    # No constant works for the gaussian: the hazard grows without bound,
    # so every candidate k2 is broken somewhere on a long enough grid.
    gau = noise.gaussian(1.0)
    gau_broken = all(
        noise.lipschitz_tail_check(
            gau, k2, 1.0,
            np.linspace(0.0, max(8.0, 2.0 * k2 + 6.0), 4001)).max_violation
        > 0.0
        for k2 in (0.5, 2.0, 8.0, 32.0))
    elapsed = time.perf_counter() - t0

    ok = (lap_violation <= 1e-9 and exp_violation <= 1e-9
          and exp_tightness <= 1e-9 and gum_violation <= 1e-9
          and gau_broken and elapsed < 1.0)
    report(2, "noise lipschitz bounds", ok,
           f"lap={lap_violation:.1e} exp={exp_violation:.1e}"
           f" tight={exp_tightness:.1e} gum={gum_violation:.1e}"
           f" gau_broken={gau_broken} {elapsed:.2f}s")
    assert lap_violation <= 1e-9
    assert exp_violation <= 1e-9
    assert exp_tightness <= 1e-9
    assert gum_violation <= 1e-9
    assert gau_broken
    assert elapsed < 1.0


def test_criterion_3_split_optimality_on_grid():
    """Closed-form budget split beats a dense grid of alternatives."""
    t0 = time.perf_counter()
    w_grid = np.geomspace(1e-2, 1e4, 10_000)
    worst_excess = 0.0
    for variant in Variant:
        for c in (1, 5, 50, 500):
            for monotonic in (False, True):
                dp = 1e-4 if variant is Variant.GAU else None
                split = allocation.split(1.0, variant, c, monotonic)
                v_star = allocation.comparison_variance(
                    variant, split.eps1, split.eps2, c, 1.0, monotonic,
                    delta_dp=dp)
                grid_min = min(
                    allocation.comparison_variance(
                        variant, 1.0 / (1.0 + w), w / (1.0 + w), c, 1.0,
                        monotonic, delta_dp=dp)
                    for w in w_grid)
                worst_excess = max(worst_excess, v_star / grid_min - 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-3 and elapsed < 5.0
    report(3, "split optimality on grid", ok,
           f"worst excess={worst_excess:.2e} {elapsed:.2f}s")
    assert worst_excess <= 1e-3
    assert elapsed < 5.0


def test_criterion_3_variance_ordering():
    """Asserted ordering exp <= lap <= gum at optimal splits, c=50."""
    eps_grid = np.geomspace(0.01, 2.0, 25)
    c = 50

    def optimal_variance(variant, eps):
        split = allocation.split(float(eps), variant, c, False)
        return allocation.comparison_variance(variant, split.eps1,
                                              split.eps2, c, 1.0, False)

    v_exp = np.array([optimal_variance(Variant.EXP_OPT_CORR, e)
                      for e in eps_grid])
    v_lap = np.array([optimal_variance(Variant.LAP, e) for e in eps_grid])
    v_gum = np.array([optimal_variance(Variant.GUM, e) for e in eps_grid])
    exp_ok = bool(np.all(v_exp <= v_lap))
    lap_ok = bool(np.all(v_lap <= v_gum))
    report(3, "variance ordering at optimal splits", exp_ok and lap_ok,
           f"exp<=lap={exp_ok} lap<=gum={lap_ok}"
           f" max(V_lap/V_gum)={float(np.max(v_lap / v_gum)):.3f}")
    assert exp_ok
    assert lap_ok, (
        "V_lap <= V_gum fails at every epsilon: with both variants at "
        "their optimal split, minimized variance is increasing in the "
        "query-noise variance coefficient, and gumbel's (pi^2/6 ~ 1.645) "
        "is below laplace's (2), so V_gum < V_lap identically; e.g. at "
        f"eps=1: V_lap={optimal_variance(Variant.LAP, 1.0):.1f}, "
        f"V_gum={optimal_variance(Variant.GUM, 1.0):.1f}")


def test_criterion_4_maximum_success_floor():
    """Optimized success probability clears k^k/(k+1)^(k+1) everywhere."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = math.inf
    for _ in range(50):
        b = float(np.exp(rng.uniform(math.log(0.5), math.log(200.0))))
        mean = float(np.exp(rng.uniform(math.log(0.5), math.log(200.0))))
        k = int(rng.integers(1, 101))
        query = correction.CorrectionQuery(b=b, lam=1.0 / mean, alpha=0.0,
                                           k=k)
        _, p = correction.optimal_correction(query)
        floor = k**k / (k + 1) ** (k + 1)
        worst = min(worst, p - floor)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-2 and elapsed < 30.0
    report(4, "maximum success floor", ok,
           f"worst p-floor={worst:.2e} {elapsed:.1f}s")
    assert worst >= -1e-2
    assert elapsed < 30.0


def test_criterion_5_correction_table_shape():
    """Optimal beats mean correction in every row; both shrink with eps."""
    rows = cli.emit_correction_table((0.01, 0.05, 0.1, 1.0, 2.0), c=50,
                                     alpha=0.0, k_est=200)
    optimal = [r["optimal_correction"] for r in rows]
    mean = [r["mean_correction"] for r in rows]
    above = all(o > m for o, m in zip(optimal, mean))
    opt_down = all(a > b for a, b in zip(optimal, optimal[1:]))
    mean_down = all(a > b for a, b in zip(mean, mean[1:]))
    ok = above and opt_down and mean_down
    report(5, "correction table shape", ok,
           f"optimal>mean={above} decreasing={opt_down and mean_down}")
    assert above
    assert opt_down
    assert mean_down


def test_criterion_6_accuracy_bound_holds():
    """Monte-Carlo failure rate stays under the inverted accuracy bound."""
    t0 = time.perf_counter()
    k, eps, trials = 50, 1.0, 10_000
    results = []
    for beta_target in (0.1, 0.05):
        alpha = metrics.accuracy_alpha_bound(k, eps, beta_target)
        stream = cli.near_threshold_stream(k, 1000.0, alpha)
        truth = metrics.GroundTruth.from_items(
            zip(stream.ids.tolist(), stream.scores.tolist()), 1000.0, c=1)
        cfg = SvtConfig(delta=1.0, eps1=eps / 2, eps2=eps / 2, c=1,
                        k_max=k + 1, variant=Variant.EXP_OPT_CORR,
                        alpha=alpha, k_est=k)
        rng = np.random.default_rng(2026)
        beta_hat = metrics.alpha_beta_estimate(
            lambda r: run_svt(stream, cfg, r), alpha, truth, trials, rng)
        stderr = math.sqrt(beta_hat * (1.0 - beta_hat) / trials)
        results.append((beta_target, beta_hat, stderr))
    elapsed = time.perf_counter() - t0
    ok = (all(bh <= bt + 3 * se for bt, bh, se in results)
          and elapsed < 60.0)
    report(6, "accuracy bound holds", ok,
           " ".join(f"beta_hat={bh:.4f}<=~{bt}" for bt, bh, se in results)
           + f" {elapsed:.1f}s")
    for beta_target, beta_hat, stderr in results:
        assert beta_hat <= beta_target + 3 * stderr
    assert elapsed < 60.0


def _pooled_ncr(dataset: str, variants: tuple[str, ...], seed: int,
                traverses: tuple[int, ...] = (5,)) -> dict:
    cfg = cli.ExperimentConfig(dataset=dataset, variants=variants,
                               eps_values=(0.1, 0.5, 1.0), c=50,
                               traverses=traverses, repetitions=20,
                               seed=seed, append=True)
    rows = cli.run_sweep(cfg)
    stats = {}
    for v in variants:
        vals = np.array([r["ncr"] for r in rows if r["variant"] == v])
        stats[v] = (float(vals.mean()),
                    float(vals.std(ddof=1) / math.sqrt(len(vals))))
    return stats


def test_criterion_7_end_to_end_ordering():
    """Recall ordering of the variants on both generated datasets."""
    t0 = time.perf_counter()
    variants = ("exp-opt", "exp-mean", "exp-none", "lap", "gau", "upper")
    margins = []
    coverage = []
    for dataset in ("binary", "zipf"):
        stats = _pooled_ncr(dataset, variants, seed=0)
        for hi, lo in (("exp-opt", "exp-mean"), ("exp-mean", "exp-none"),
                       ("exp-opt", "lap"), ("lap", "gau")):
            (mh, sh), (ml, sl) = stats[hi], stats[lo]
            margins.append((dataset, f"{hi}>{lo}",
                            (mh - ml) - 2.0 * math.hypot(sh, sl)))
        (mo, so), (mu, su) = stats["exp-opt"], stats["upper"]
        coverage.append((dataset, mo <= mu + 2.0 * math.hypot(so, su)))
    elapsed = time.perf_counter() - t0
    worst = min(margins, key=lambda t: t[2])
    ok = (worst[2] > 0.0 and all(c for _, c in coverage)
          and elapsed < 600.0)
    report(7, "end-to-end variant ordering", ok,
           f"tightest gap {worst[0]} {worst[1]} margin={worst[2]:+.4f},"
           f" upper bound covers={all(c for _, c in coverage)}"
           f" {elapsed:.0f}s")
    for dataset, pair, margin in margins:
        assert margin > 0.0, f"{dataset}: {pair} short by {-margin:.4f}"
    for dataset, covered in coverage:
        assert covered, f"{dataset}: exp-opt exceeds the ranking bound"
    assert elapsed < 600.0


def test_criterion_8_appending_monotone():
    """Mean recall does not degrade as the traverse budget grows."""
    t0 = time.perf_counter()
    cfg = cli.ExperimentConfig(dataset="zipf", variants=("exp-opt",),
                               eps_values=(0.5,), c=50,
                               traverses=(1, 2, 5, 10), repetitions=20,
                               seed=0, append=True)
    rows = cli.run_sweep(cfg)
    stats = []
    for trav in (1, 2, 5, 10):
        vals = np.array([r["ncr"] for r in rows if r["traverses"] == trav])
        stats.append((trav, float(vals.mean()),
                      float(vals.std(ddof=1) / math.sqrt(len(vals)))))
    elapsed = time.perf_counter() - t0
    slacks = [(m2 - m1) + 2.0 * math.hypot(s1, s2)
              for (_, m1, s1), (_, m2, s2) in zip(stats, stats[1:])]
    ok = all(s >= 0.0 for s in slacks) and elapsed < 600.0
    report(8, "appending monotonicity", ok,
           "means=" + "/".join(f"{m:.3f}" for _, m, _ in stats)
           + f" {elapsed:.0f}s")
    for (t1, m1, s1), (t2, m2, s2) in zip(stats, stats[1:]):
        assert m2 >= m1 - 2.0 * math.hypot(s1, s2), \
            f"recall dropped from {m1:.4f} to {m2:.4f} between " \
            f"traverses {t1} and {t2}"
    assert elapsed < 600.0


def test_criterion_9_sweep_determinism(tmp_path):
    """Re-running a sweep with one seed reproduces every metric byte."""
    files = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = cli.ExperimentConfig(dataset="zipf",
                                   variants=("exp-opt", "lap", "upper"),
                                   eps_values=(0.5, 1.0), c=20,
                                   traverses=(1, 2), repetitions=2,
                                   seed=123, append=True, n_items=2000,
                                   output=str(out))
        cli.run_sweep(cfg)
        files.append(out.read_text())

    def drop_timing(text: str) -> list[str]:
        # wall_time_ms is the last column by construction
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    same = drop_timing(files[0]) == drop_timing(files[1])
    report(9, "sweep determinism", same,
           f"{len(drop_timing(files[0])) - 1} rows compared")
    assert same
