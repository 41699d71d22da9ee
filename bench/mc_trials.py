"""The cost of one Monte-Carlo accuracy trial, in process.

For each variant of ``svtkit plot-series --kind accuracy`` (exp-opt,
exp-mean, exp-none, lap, gau, gum) on its 51-query near-threshold stream
at eps 1 and c = 1, times two loops over TRIALS trials:

- ``run_svt``: the runner alone, called TRIALS times;
- ``estimate``: ``alpha_beta_estimate`` over the same runner, so the
  difference is what the estimator adds per trial (its check).

Prints the median over REPEATS of each loop, in microseconds per trial,
with the quartiles. The two loops alternate, so a host phase slows both,
and each variant has one unmeasured warm-up (its correction and, for gau,
the ``scipy.special`` import). Standard library plus numpy; svtkit is
imported from ``--src``.

    python3 bench/mc_trials.py
    python3 bench/mc_trials.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

VARIANTS = ("exp-opt", "exp-mean", "exp-none", "lap", "gau", "gum")
K, EPS, ALPHA, THRESHOLD = 50, 1.0, 10.0, 1000.0
TRIALS, REPEATS = 1000, 21


def per_trial_us(loops) -> list[list[float]]:
    """Microseconds per trial of each ``loop(TRIALS)``, once per repeat."""
    times = [[] for _ in loops]
    for _ in range(REPEATS):
        for loop, seen in zip(loops, times):
            start = time.perf_counter()
            loop(TRIALS)
            seen.append(1e6 * (time.perf_counter() - start) / TRIALS)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="directory holding the svtkit package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from svtkit import cli, metrics
    from svtkit.allocation import Variant
    from svtkit.svt import SvtConfig, run_svt

    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"svtkit from {args.src}, {TRIALS} trials x {REPEATS} repeats")
    print(f"{'variant':<9} {'run_svt us/call':>24} {'estimate us/trial':>26}")
    for token in VARIANTS:
        stream = cli.near_threshold_stream(K, THRESHOLD, ALPHA)
        truth = metrics.GroundTruth.from_items(
            [(e.query_id, e.score) for e in stream], THRESHOLD, c=1)
        cfg = SvtConfig(delta=1.0, eps1=EPS / 2, eps2=EPS / 2, c=1,
                        k_max=K + 1, variant=Variant(token), alpha=ALPHA,
                        k_est=K, delta_dp=1.0 / (K + 1))
        rng = np.random.default_rng(0)

        def runner(r, stream=stream, cfg=cfg):
            return run_svt(stream, cfg, r)

        def runs(n, runner=runner, rng=rng):
            for _ in range(n):
                runner(rng)

        def estimate(n, runner=runner, truth=truth, rng=rng):
            metrics.alpha_beta_estimate(runner, ALPHA, truth, n, rng)

        runs(10), estimate(10)  # warm-up
        cells = []
        for times in per_trial_us((runs, estimate)):
            q1, median, q3 = statistics.quantiles(times, n=4)
            cells.append(f"{median:7.2f} ({q1:.2f}-{q3:.2f})")
        print(f"{token:<9} {cells[0]:>24} {cells[1]:>26}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
