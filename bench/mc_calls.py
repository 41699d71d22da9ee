"""Monte-Carlo accuracy calls: µs per ``run_svt`` call and per estimate trial.

Runs the points of perfbench's mc-accuracy workload in process: each
variant at each alpha of that workload (``MC_VARIANTS`` x ``MC_ALPHAS`` in
``perfbench/workloads.py``) on ``cli.near_threshold_stream(50, 1000,
alpha)``, c = 1, eps split evenly. A block visits every point once; at
each point a side makes ``--calls`` timed ``run_svt`` calls on one
generator, then one ``metrics.alpha_beta_estimate`` of ``--trials``
trials on another. Prints, per variant, the median µs per call (each call
timed alone) and per trial (an estimate's time over its trials), taken
over its points and blocks.

``--against`` loads a second checkout's ``svtkit`` under another package
name and runs it in the same process, point by point in an order that
alternates from block to block, so both sides share the machine's state.
Both sides draw from generators of the same seeds; every outcome (ids,
flags, traverses, halt reason, correction), every estimate and every
generator end state must be equal, or the run stops at the first that
differs. ``--src`` and ``--against`` take a checkout's root or the
directory holding its ``svtkit``. Standard library and numpy only.

    python3 bench/mc_calls.py
    python3 bench/mc_calls.py --against /path/to/other/checkout
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from sweep_cells import load, package_dir

ROOT = Path(__file__).resolve().parents[1]


class Side:
    """One checkout's mc-accuracy points, imported as package ``name`` so
    two checkouts can share one process, and its timings per variant."""

    def __init__(self, label: str, src: Path, name: str, wl) -> None:
        self.label, self.src = label, src
        cli, metrics, svt, allocation = load(src, name, "cli", "metrics",
                                             "svt", "allocation")
        self.run_svt, self.estimate = svt.run_svt, metrics.alpha_beta_estimate
        self.points = []
        for token in wl.MC_VARIANTS:
            variant = allocation.Variant(token)
            for alpha in wl.MC_ALPHAS:
                stream = cli.near_threshold_stream(wl.MC_K, wl.MC_THRESHOLD,
                                                   alpha)
                truth = metrics.GroundTruth.ranked(
                    stream.ids, stream.scores, wl.MC_THRESHOLD, c=1)
                cfg = svt.SvtConfig(
                    delta=1.0, eps1=wl.MC_EPS / 2, eps2=wl.MC_EPS / 2, c=1,
                    k_max=wl.MC_K + 1, variant=variant, alpha=alpha,
                    k_est=wl.MC_K, delta_dp=(1.0 / (wl.MC_K + 1)
                                             if token == "gau" else None))
                self.points.append((token, alpha, stream, truth, cfg))
        self.call_us: dict[str, list[float]] = {}
        self.trial_us: dict[str, list[float]] = {}

    def visit(self, i: int, seed: list[int], calls: int, trials: int,
              record: bool = True) -> list:
        """The point's outcomes, estimate and end states as (label, value)
        pairs, its calls and trials timed."""
        token, alpha, stream, truth, cfg = self.points[i]
        run_svt, now = self.run_svt, time.perf_counter
        rng = np.random.default_rng(seed + [0])
        seen, spent = [], []
        for k in range(calls):
            t0 = now()
            out = run_svt(stream, cfg, rng)
            spent.append(now() - t0)
            seen.append((f"outcome of call {k}", (
                out.answer_ids.tobytes(), out.flags.tobytes(),
                out.traverses.tobytes(), out.halt_reason.value,
                out.correction_used)))
        seen.append(("end state after the calls", rng.bit_generator.state))
        rng = np.random.default_rng(seed + [1])
        t0 = now()
        beta_hat = self.estimate(lambda r: run_svt(stream, cfg, r), alpha,
                                 truth, trials, rng)
        trial = (now() - t0) / trials
        seen += [("estimate", beta_hat),
                 ("end state after the estimate", rng.bit_generator.state)]
        if record:
            self.call_us.setdefault(token, []).extend(
                1e6 * s for s in spent)
            self.trial_us.setdefault(token, []).append(1e6 * trial)
        return seen

    def report(self) -> dict:
        return {token: (statistics.median(self.call_us[token]),
                        statistics.median(self.trial_us[token]))
                for token in self.call_us}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="this side's checkout (default: this one)")
    parser.add_argument("--against", default=None,
                        help="a second checkout to compare, in one process")
    parser.add_argument("--blocks", type=int, default=10,
                        help="passes over the points")
    parser.add_argument("--calls", type=int, default=200,
                        help="timed run_svt calls per point and block")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per estimate (default: the workload's)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed of the generators")
    args = parser.parse_args()
    src = package_dir(args.src)
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads as wl

    trials = args.trials or wl.MC_TRIALS
    sides = [Side("src", src, "svtkit_src", wl)]
    if args.against:
        sides.append(Side("against", package_dir(args.against),
                          "svtkit_against", wl))
    n_points = len(sides[0].points)
    for side in sides:  # warm-up: correction grids, imports, caches
        for i in range(n_points):
            side.visit(i, [args.seed, 10**6, i], 2, 2, record=False)
    for block in range(args.blocks):
        for i in range(n_points):
            turn = (block + i) % len(sides)
            seen = [side.visit(i, [args.seed, block, i], args.calls, trials)
                    for side in sides[turn:] + sides[:turn]]
            for (label, a), (_, b) in zip(seen[0], seen[-1]):
                if a != b:
                    raise SystemExit(f"block {block}, point {i}: the sides' "
                                     f"{label} differs")

    print(f"{args.blocks} blocks x {n_points} points, {args.calls} calls and "
          f"{trials} trials per point and side"
          + ("; outcomes, estimates and end states equal" if args.against
             else ""))
    print(f"{'side':8} {'variant':9} {'us/call':>8} {'us/trial':>9}   src")
    reports = [side.report() for side in sides]
    for side, rep in zip(sides, reports):
        for token, (call, trial) in rep.items():
            print(f"{side.label:8} {token:9} {call:8.2f} {trial:9.2f}   "
                  f"{side.src}")
    if args.against:
        new, base = reports
        for token in new:
            print(f"change   {token:9} "
                  f"{new[token][0] / base[token][0] - 1:+8.1%} "
                  f"{new[token][1] / base[token][1] - 1:+9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
