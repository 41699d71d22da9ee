"""The four svtkit benchmark workloads.

Each workload runs in its own child process (see child.py) in four steps:

    setup()    the public calls that bring a fresh process to its first
               timed operation; setup-only probes stop after it
    measure()  untraced passes until the time budget is spent; every
               end-to-end metric comes from here
    check()    correctness checks of every measured operation
    redrive()  traced runs only: the same operations again through the
               public per-layer calls, each wrapped in a span, with every
               result compared to the untraced one

A pass is a workload's fixed unit of work at one seed, so counts taken
over the first pass repeat exactly at a fixed seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import sys
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from svtkit import allocation, cli, correction, data, metrics, noise, svt
from svtkit.allocation import Variant
from speed import SpeedReference
from tracing import FullCollections, Tracer

DEFAULT_SEED = 0
# Pass j of a run at seed s uses root seed s * PASS_STRIDE + j, so pass 0
# at the default seed is the sweep `svtkit sweep --seed 0` writes.
PASS_STRIDE = 1000

# Sweep: the criterion-7 grid on both generated datasets, then the
# criterion-8 grid.
C7 = dict(variants=("exp-opt", "exp-mean", "exp-none", "lap", "gau", "upper"),
          eps_values=(0.1, 0.5, 1.0), c=50, traverses=(5,), append=True)
SWEEP_GRIDS = (
    dict(dataset="zipf", **C7),
    dict(dataset="binary", **C7),
    dict(dataset="zipf", variants=("exp-opt",), eps_values=(0.5,), c=50,
         traverses=(1, 2, 5, 10), append=True),
)
# sha256 of the three sweep CSVs at the default seed, wall_time_ms dropped.
SWEEP_DIGEST = ("55d189cd2d1278856143db6eff193823"
                "e2f8bd7908951fc222398b2ee23e3c3a")

BIG_ITEMS = 10**6
BIG_VARIANTS = ("lap", "exp-mean", "upper")
# Two cells per variant in one run_sweep call: a sweep-1e6 cell takes about
# 6 s, and one read of the scores file about 3.5 s, so a pass is ~25 s.
BIG_REPETITIONS = 2

# mc-accuracy: the accuracy plot series (its default alphas and variants)
# plus criterion 6's exp-opt points at the alpha bound of each beta.
MC_K = 50
MC_EPS = 1.0
MC_THRESHOLD = 1000.0
MC_TRIALS = 500
MC_VARIANTS = ("exp-opt", "exp-mean", "exp-none", "lap", "gau", "gum")
MC_ALPHAS = (5.0, 10.0, 20.0, 30.0, 40.0)
MC_BETA_TARGETS = (0.1, 0.05)

# correction-cold: b and the mean log-uniform in [0.5, 200], k in [1, 100].
CORR_BATCH = 16
CORR_LOG_RANGE = (math.log(0.5), math.log(200.0))
CORR_ALPHAS = (0.0, 1.0)
CORR_TOL = 1e-2

# Per-layer metrics the measured process reports; run.py adds the set-up
# stages (setup.import_s, data.load_s, metrics.truth_s) from every process.
PER_LAYER = ("data.shuffle_ms_p50", "metrics.score_us_p50",
             "metrics.check_us_per_trial", "svt.calls", "svt.evals",
             "svt.run_ms_p50", "svt.run_ms_p90", "svt.evals_per_s",
             "svt.call_us_p50", "svt.evals_per_item",
             "correction.cold_calls", "correction.hit_ratio",
             "correction.cold_ms_p50", "correction.discretize_ms_p50",
             "correction.convolve_ms_p50", "cli.cell_self_ms_p50",
             "runtime.gc_full_count", "runtime.gc_full_ms",
             "trace.overhead_frac")


def pct(values, q: float) -> float:
    """q-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def cache_counts() -> tuple[int, int]:
    info = correction.optimal_correction.cache_info()
    return info.hits, info.misses


def clear_correction_caches() -> None:
    """Empty every memo in svtkit.correction so the next calls run cold."""
    for obj in vars(correction).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def deep_bytes(obj, seen: Optional[set] = None) -> int:
    """sys.getsizeof of obj and everything it references, each object once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (str, bytes, int, float, np.ndarray)):
        return size
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list, set, frozenset, deque)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        children = ()
    return size + sum(deep_bytes(c, seen) for c in children)


def sweep_working_set(n_items: int) -> int:
    """Bytes of a zipf dataset, its ground truth and one shuffled stream,
    computed at 10^4 items and scaled linearly to ``n_items``."""
    ds = data.gen_zipf(10_000)
    truth = metrics.GroundTruth.from_items(ds.items, ds.threshold, 50)
    stream = data.shuffle_and_stream(ds, np.random.default_rng(0))
    return deep_bytes((ds, truth, stream)) * n_items // 10_000


@dataclass
class Measured:
    ready: float                 # perf_counter at the first timed operation
    speed: SpeedReference
    end: float = 0.0
    # One entry per timed unit: (midpoint, seconds, operations completed,
    # the time of each operation in ms).
    groups: list = field(default_factory=list)
    attempted: int = 0           # checked operations
    errors: list = field(default_factory=list)
    items: list = field(default_factory=list)   # workload-specific records
    digest: Optional[str] = None

    def add(self, start: float, end: float, ops: int, op_ms) -> None:
        self.groups.append(((start + end) / 2, end - start, ops, op_ms))

    def summary(self, scaled: bool) -> dict:
        """Throughput and per-operation time percentiles, scaled to the
        nominal machine speed or raw."""
        ops, seconds, op_ms = 0, 0.0, []
        for mid, secs, n, ms in self.groups:
            f = self.speed.factor(mid) if scaled else 1.0
            ops += n
            seconds += secs * f
            op_ms.extend(v * f for v in ms)
        return {"ops_per_s": ops / seconds if seconds else 0.0,
                "op_ms_p50": pct(op_ms, 50), "op_ms_p90": pct(op_ms, 90),
                "ops": ops, "op_samples": len(op_ms)}


class Workload:
    name: str
    # Spans that each cover one measured operation in the re-drive.
    op_spans: frozenset

    def setup(self) -> dict:
        raise NotImplementedError

    def measure(self, seed: int, seconds: float) -> Measured:
        raise NotImplementedError

    def check(self, m: Measured) -> dict:
        raise NotImplementedError

    def redrive(self, m: Measured, tr: Tracer) -> tuple[dict, int]:
        raise NotImplementedError

    def working_set(self) -> int:
        raise NotImplementedError

    def run(self, seed: int, seconds: float, trace: bool, spawned_at: float,
            out_dir: Path) -> dict:
        hits0, misses0 = cache_counts()
        with FullCollections() as gcs:
            m = self.measure(seed, seconds)
        hits1, misses1 = cache_counts()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = self.check(m)
        scaled, raw = m.summary(scaled=True), m.summary(scaled=False)
        setup_raw = m.ready - spawned_at
        result = {
            "setup_s": setup_raw * m.speed.factor(m.ready),
            "attempted": m.attempted,
            "failed": sum(c["failed"] for c in checks.values()),
            "checks": checks,
            "e2e": {k: scaled[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_p90")},
            "raw": {"setup_s": setup_raw, **raw},
            "peak_rss_mb": rss_mb,
            "ops": scaled["ops"], "op_samples": scaled["op_samples"],
            "errors": m.errors[:5],
            "working_set_bytes": self.working_set(),
        }
        if trace:
            tr = Tracer()
            layer, mismatched = self.redrive(m, tr)
            m.speed.sample()
            # Both sides scaled, so a change of machine speed between the
            # untraced passes and the re-drive does not count as overhead.
            untraced = sum(secs * m.speed.factor(mid) for mid, secs, _, _ in m.groups)
            traced = sum((s[2] - s[1]) * m.speed.factor((s[1] + s[2]) / 2)
                         for s in tr.spans if s[0] in self.op_spans)
            full = [(a, b) for a, b in gcs.events if a >= m.ready and b <= m.end]
            cold, hits = misses1 - misses0, hits1 - hits0
            layer.update({
                "correction.cold_calls": cold,
                "correction.hit_ratio": hits / (hits + cold) if hits + cold else 0.0,
                "runtime.gc_full_count": len(full),
                "runtime.gc_full_ms": 1e3 * sum(b - a for a, b in full),
                "trace.overhead_frac": 1.0 - untraced / traced if traced else 0.0,
            })
            result["per_layer"] = {k: float(layer.get(k, 0.0)) for k in PER_LAYER}
            checks["redrive-matches"] = {"failed": mismatched,
                                         "detail": f"{mismatched} differ"}
            result["failed"] += mismatched
            trace_path = out_dir / f"trace-{self.name}-seed{seed}.jsonl"
            tr.write(trace_path)
            result["trace_file"] = str(trace_path)
            result["spans"] = len(tr.spans)
        return result


# --- sweep and sweep-1e6 ---------------------------------------------------

class FlushClock:
    """CSV sink for cli.run_sweep that timestamps each flush. run_sweep
    flushes once after the header (its set-up is done) and once per cell,
    outside the cell's own timing, so the speed reference is sampled here."""

    def __init__(self, fh, speed: SpeedReference) -> None:
        self.fh = fh
        self.speed = speed
        self.times: list[float] = []

    def write(self, text: str) -> int:
        return self.fh.write(text)

    def flush(self) -> None:
        self.fh.flush()
        self.times.append(time.perf_counter())
        self.speed.maybe_sample()


def csv_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        for line in text.splitlines():
            h.update(line.rsplit(",", 1)[0].encode() + b"\n")
    return h.hexdigest()


def _row_problem(row: dict, cfg: cli.ExperimentConfig,
                 fresh_r: dict) -> Optional[str]:
    n, c, trav = cfg.n_items, cfg.c, row["traverses"]
    n_c, n_a, halt = row["n_c"], row["n_a"], row["halt_reason"]
    if not (0.0 <= row["ncr"] <= 1.0 and 0.0 <= row["f1"] <= 1.0):
        return "ncr or f1 outside [0, 1]"
    if not (0 <= n_c <= c and n_a <= n * trav):
        return "n_c > c or n_a > n_items * traverses"
    if row["variant"] == cli.UPPER_BOUND:
        if (halt, row["r_op"], n_c, n_a) != ("", "", c, n):
            return "upper row fields"
        return None
    evals_each = trav if cfg.append else 1
    consistent = {
        "positive-budget": n_c == c,
        "query-budget": n_c < c and n_a == n * trav,
        "exhausted": n_c < c and (n - n_c) * evals_each + n_c <= n_a <= n * evals_each,
    }.get(halt, False)
    if not consistent:
        return f"halt reason {halt!r} inconsistent with n_c={n_c} n_a={n_a}"
    if row["variant"] == Variant.EXP_OPT_CORR.value:
        if row["r_op"] != fresh_r[_correction_key(row)]:
            return "r_op differs from a fresh optimal_correction"
    return None


def _correction_key(row: dict) -> tuple:
    return (row["eps1"], row["eps2"], row["c"], row["alpha"], row["k_est"])


def _fresh_correction(key: tuple, cfg: cli.ExperimentConfig) -> float:
    eps1, eps2, c, alpha, k_est = key
    lam = eps2 / ((c if cfg.monotonic else 2 * c) * cfg.delta)
    query = correction.CorrectionQuery(b=cfg.delta / eps1, lam=lam,
                                       alpha=alpha, k=k_est)
    return correction.optimal_correction(query)[0]


# Child spans of a cell that belong to other layers' work; what is left of
# the cell is cli.cell_rng, allocation.split, SvtConfig and row building.
_CELL_WORK = frozenset({"data.shuffle_and_stream", "svt.correction_term",
                        "svt.run_svt", "metrics.ncr", "metrics.f1"})
_ROW_KEYS = ("ncr", "f1", "n_c", "n_a", "halt_reason", "r_op")


class Sweep(Workload):
    op_spans = frozenset({"cli.cell", "cli.upper_cell"})

    def __init__(self, name: str, grids: tuple, out_dir: Path,
                 digest: Optional[str], n_items_ws: int) -> None:
        self.name = name
        self.grids = grids
        self.out_dir = out_dir
        self.digest = digest
        self.n_items_ws = n_items_ws

    def config(self, g: int, seed: int) -> cli.ExperimentConfig:
        return cli.ExperimentConfig(seed=seed, **self.grids[g])

    def setup(self) -> dict:
        """What run_sweep does before its first cell: build or read the
        first grid's dataset and its ground truth."""
        cfg = self.config(0, DEFAULT_SEED)
        t0 = time.perf_counter()
        ds = cli.load_dataset(cfg)
        t1 = time.perf_counter()
        metrics.GroundTruth.from_items(ds.items, ds.threshold, cfg.c)
        return {"load_s": t1 - t0, "truth_s": time.perf_counter() - t1}

    def _sweep(self, cfg: cli.ExperimentConfig, g: int, tag: str,
               speed: SpeedReference):
        """One cli.run_sweep call writing its CSV like `svtkit sweep --out`."""
        path = self.out_dir / f"{self.name}-{tag}-grid{g}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            clock = FlushClock(fh, speed)
            try:
                rows = cli.run_sweep(cfg, out=clock)
            except Exception as exc:  # counted as failed cells
                return None, clock.times, path, f"{type(exc).__name__}: {exc}"
        return rows, clock.times, path, None

    def _pass(self, seed: int, tag: str, speed: SpeedReference):
        for g in range(len(self.grids)):
            cfg = self.config(g, seed)
            yield (cfg,) + self._sweep(cfg, g, tag, speed)

    def measure(self, seed: int, seconds: float) -> Measured:
        speed = SpeedReference()
        m: Optional[Measured] = None
        texts = []
        j = 0
        while m is None or time.perf_counter() - m.ready < seconds:
            for cfg, rows, times, path, err in self._pass(
                    seed * PASS_STRIDE + j, "measured", speed):
                if m is None:
                    m = Measured(times[0] if times else time.perf_counter(), speed)
                m.attempted += (len(cfg.variants) * len(cfg.eps_values)
                                * len(cfg.traverses) * cfg.repetitions)
                if err is not None:
                    m.errors.append(err)
                    continue
                for row, end in zip(rows, times[1:]):
                    ms = row["wall_time_ms"]
                    m.add(end - ms / 1e3, end, 1, [ms])
                m.items.append((j, cfg, rows))
                if j == 0 and seed == DEFAULT_SEED:
                    texts.append(path.read_text(encoding="utf-8"))
            j += 1
        m.speed.sample()
        m.end = time.perf_counter()
        if texts:
            m.digest = csv_digest(texts)
        return m

    def check(self, m: Measured) -> dict:
        if self.digest is not None and m.digest is None:
            # The measured passes did not run the default seed: run it now.
            m.digest = csv_digest(
                p.read_text(encoding="utf-8") if rows is not None else ""
                for _, rows, _, p, _ in self._pass(DEFAULT_SEED, "digest",
                                                   m.speed))
        clear_correction_caches()
        fresh: dict = {}
        failed, first = 0, ""
        for _, cfg, rows in m.items:
            for row in rows:
                if row["variant"] == Variant.EXP_OPT_CORR.value:
                    key = _correction_key(row)
                    if key not in fresh:
                        fresh[key] = _fresh_correction(key, cfg)
                problem = _row_problem(row, cfg, fresh)
                if problem:
                    failed += 1
                    first = first or problem
        unmeasured = m.attempted - sum(len(rows) for _, _, rows in m.items)
        checks = {"rows": {"failed": failed + unmeasured,
                           "detail": first or (m.errors[0] if m.errors else "")}}
        if self.digest is not None:
            ok = m.digest == self.digest
            checks["csv-digest"] = {"failed": 0, "pass": ok,
                                    "detail": m.digest}
        return checks

    def redrive(self, m: Measured, tr: Tracer) -> tuple[dict, int]:
        loaded: dict = {}
        clear_correction_caches()
        cold: list[float] = []
        streamed = calls0 = evals0 = evals = 0
        mismatched = op = 0
        for j, cfg, rows in m.items:
            if cfg.dataset not in loaded:
                ds = cli.load_dataset(cfg)
                loaded[cfg.dataset] = (ds, metrics.GroundTruth.from_items(
                    ds.items, ds.threshold, cfg.c))
            ds, truth = loaded[cfg.dataset]
            for row in rows:
                op += 1
                m.speed.maybe_sample()
                if row["variant"] == cli.UPPER_BOUND:
                    tr.record("cli.upper_cell", op, row["wall_time_ms"] / 1e3)
                    continue
                got, n_stream, r = self._cell(tr, op, cfg, ds, truth, row, cold)
                mismatched += (r != got["r_op"]
                               or any(got[k] != row[k] for k in _ROW_KEYS))
                streamed += n_stream
                evals += got["n_a"]
                if j == 0:
                    calls0 += 1
                    evals0 += got["n_a"]
        run_s = tr.durations("svt.run_svt")
        score = [a + b for a, b in zip(tr.durations("metrics.ncr"),
                                       tr.durations("metrics.f1"))]
        layer = {
            "data.shuffle_ms_p50":
                1e3 * pct(tr.durations("data.shuffle_and_stream"), 50),
            "metrics.score_us_p50": 1e6 * pct(score, 50),
            "svt.calls": calls0, "svt.evals": evals0,
            "svt.run_ms_p50": 1e3 * pct(run_s, 50),
            "svt.run_ms_p90": 1e3 * pct(run_s, 90),
            "svt.evals_per_s": evals / sum(run_s) if run_s else 0.0,
            "svt.call_us_p50": 1e6 * pct(run_s, 50),
            "svt.evals_per_item": evals / streamed if streamed else 0.0,
            "correction.cold_ms_p50": 1e3 * pct(cold, 50),
            "cli.cell_self_ms_p50":
                1e3 * pct(tr.self_times("cli.cell", _CELL_WORK), 50),
        }
        return layer, mismatched

    @staticmethod
    def _cell(tr: Tracer, op: int, cfg: cli.ExperimentConfig,
              ds: data.ScoredDataset, truth: metrics.GroundTruth, row: dict,
              cold: list) -> tuple[dict, int, float]:
        """One sweep cell through its per-layer public calls, as run_sweep
        runs it: same random stream, same draw order."""
        token, eps, trav = row["variant"], row["eps"], row["traverses"]
        with tr.span("cli.cell", op):
            rng = tr.call("cli.cell_rng", op, cli.cell_rng, cfg.seed, eps,
                          token, trav, row["repetition"])
            variant = Variant(token)
            split = tr.call("allocation.split", op, allocation.split, eps,
                            variant, cfg.c, cfg.monotonic)
            svt_cfg = tr.call(
                "svt.SvtConfig", op, svt.SvtConfig, delta=cfg.delta,
                eps1=split.eps1, eps2=split.eps2, c=cfg.c,
                k_max=ds.n_items * trav, variant=variant,
                resample=cfg.resample, append=cfg.append, max_traverses=trav,
                monotonic=cfg.monotonic, alpha=cfg.alpha, k_est=row["k_est"],
                delta_dp=1.0 / ds.n_items if variant is Variant.GAU else None)
            stream = tr.call("data.shuffle_and_stream", op,
                             data.shuffle_and_stream, ds, rng)
            misses = cache_counts()[1]
            r = tr.call("svt.correction_term", op, svt.correction_term, svt_cfg)
            if cache_counts()[1] > misses:
                cold.append(tr.spans[-1][2] - tr.spans[-1][1])
            outcome = tr.call("svt.run_svt", op, svt.run_svt, stream, svt_cfg, rng)
            got = {"ncr": tr.call("metrics.ncr", op, metrics.ncr,
                                  outcome.positives, truth),
                   "f1": tr.call("metrics.f1", op, metrics.f1,
                                 outcome.positives, truth),
                   "n_c": outcome.n_c, "n_a": outcome.n_a,
                   "halt_reason": outcome.halt_reason.value,
                   "r_op": outcome.correction_used}
        return got, len(stream), r

    def working_set(self) -> int:
        return sweep_working_set(self.n_items_ws)


# --- mc-accuracy -----------------------------------------------------------

@dataclass
class Point:
    token: str
    alpha: float
    beta_target: Optional[float]
    stream: svt.QueryStream
    truth: metrics.GroundTruth
    cfg: svt.SvtConfig


class McAccuracy(Workload):
    name = "mc-accuracy"
    op_spans = frozenset({"cli.accuracy_point"})

    def setup(self) -> dict:
        """Build each point's near-threshold stream, truth and config."""
        specs = [(t, a, None) for t in MC_VARIANTS for a in MC_ALPHAS]
        specs += [(Variant.EXP_OPT_CORR.value,
                   metrics.accuracy_alpha_bound(MC_K, MC_EPS, b), b)
                  for b in MC_BETA_TARGETS]
        self.points = []
        truth_s = 0.0
        for token, alpha, beta in specs:
            variant = Variant(token)
            stream = cli.near_threshold_stream(MC_K, MC_THRESHOLD, alpha)
            t0 = time.perf_counter()
            truth = metrics.GroundTruth.from_items(
                [(e.query_id, e.score) for e in stream], MC_THRESHOLD, c=1)
            truth_s += time.perf_counter() - t0
            cfg = svt.SvtConfig(
                delta=1.0, eps1=MC_EPS / 2, eps2=MC_EPS / 2, c=1,
                k_max=MC_K + 1, variant=variant, alpha=alpha, k_est=MC_K,
                delta_dp=1.0 / (MC_K + 1) if variant is Variant.GAU else None)
            self.points.append(Point(token, alpha, beta, stream, truth, cfg))
        return {"load_s": 0.0, "truth_s": truth_s}

    def measure(self, seed: int, seconds: float) -> Measured:
        self.setup()
        m = Measured(time.perf_counter(), SpeedReference())
        j = 0
        while j == 0 or time.perf_counter() - m.ready < seconds:
            for i, p in enumerate(self.points):
                m.speed.maybe_sample()
                starts: list[float] = []

                def runner(r, stamp=starts.append, now=time.perf_counter, p=p):
                    stamp(now())
                    return svt.run_svt(p.stream, p.cfg, r)

                rng = np.random.default_rng([seed, j, i])
                m.attempted += 1
                t0 = time.perf_counter()
                try:
                    beta_hat = metrics.alpha_beta_estimate(
                        runner, p.alpha, p.truth, MC_TRIALS, rng)
                except Exception as exc:  # counted as a failed estimate
                    m.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                t1 = time.perf_counter()
                starts.append(t1)
                m.add(t0, t1, MC_TRIALS, 1e3 * np.diff(starts))
                m.items.append((seed, j, i, beta_hat, t1 - t0))
            j += 1
        m.speed.sample()
        m.end = time.perf_counter()
        return m

    def check(self, m: Measured) -> dict:
        failed, first = 0, ""
        for _, _, i, beta_hat, _ in m.items:
            target = self.points[i].beta_target
            ok = 0.0 <= beta_hat <= 1.0
            if ok and target is not None:
                stderr = math.sqrt(beta_hat * (1.0 - beta_hat) / MC_TRIALS)
                ok = beta_hat <= target + 3.0 * stderr
            if not ok:
                failed += 1
                first = first or f"point {i}: beta_hat={beta_hat}"
        failed += m.attempted - len(m.items)
        return {"estimates": {"failed": failed,
                              "detail": first or (m.errors[0] if m.errors else "")}}

    def redrive(self, m: Measured, tr: Tracer) -> tuple[dict, int]:
        clear_correction_caches()
        cold: list[float] = []
        mismatched = op = calls0 = evals0 = 0
        evals: list[int] = []
        for seed, j, i, beta_hat, _ in m.items:
            p = self.points[i]
            op += 1
            m.speed.maybe_sample()
            n_a: list[int] = []

            def runner(r, p=p, op=op, n_a=n_a):
                outcome = tr.call("svt.run_svt", op, svt.run_svt, p.stream, p.cfg, r)
                n_a.append(outcome.n_a)
                return outcome

            with tr.span("cli.accuracy_point", op):
                misses = cache_counts()[1]
                tr.call("svt.correction_term", op, svt.correction_term, p.cfg)
                if cache_counts()[1] > misses:
                    cold.append(tr.spans[-1][2] - tr.spans[-1][1])
                rng = np.random.default_rng([seed, j, i])
                got = tr.call("metrics.alpha_beta_estimate", op,
                              metrics.alpha_beta_estimate, runner, p.alpha,
                              p.truth, MC_TRIALS, rng)
            mismatched += got != beta_hat
            evals.extend(n_a)
            if j == 0:
                calls0 += len(n_a)
                evals0 += sum(n_a)
        run_s = tr.durations("svt.run_svt")
        check_s = tr.self_times("metrics.alpha_beta_estimate",
                                frozenset({"svt.run_svt"}))
        layer = {
            "metrics.check_us_per_trial":
                1e6 * sum(check_s) / len(run_s) if run_s else 0.0,
            "svt.calls": calls0, "svt.evals": evals0,
            "svt.run_ms_p50": 1e3 * pct(run_s, 50),
            "svt.run_ms_p90": 1e3 * pct(run_s, 90),
            "svt.evals_per_s": sum(evals) / sum(run_s) if run_s else 0.0,
            "svt.call_us_p50": 1e6 * pct(run_s, 50),
            "svt.evals_per_item":
                sum(evals) / (len(evals) * (MC_K + 1)) if evals else 0.0,
            "correction.cold_ms_p50": 1e3 * pct(cold, 50),
        }
        return layer, mismatched

    def working_set(self) -> int:
        return deep_bytes([(p.stream, p.truth) for p in self.points])


# --- correction-cold -------------------------------------------------------

def correction_queries(seed: int, j: int) -> list:
    """Batch j of distinct correction queries, so every call misses the cache."""
    rng = np.random.default_rng([seed, j])
    queries = []
    for _ in range(CORR_BATCH):
        b = float(np.exp(rng.uniform(*CORR_LOG_RANGE)))
        mean = float(np.exp(rng.uniform(*CORR_LOG_RANGE)))
        k = int(rng.integers(1, 101))
        alpha = float(CORR_ALPHAS[int(rng.integers(len(CORR_ALPHAS)))])
        queries.append(correction.CorrectionQuery(b=b, lam=1.0 / mean,
                                                  alpha=alpha, k=k))
    return queries


def _difference_laws(q) -> tuple:
    """The two laws a correction query convolves and its grid bound B."""
    exp_d, lap_d = noise.exponential(1.0 / q.lam), noise.laplace(q.b)
    bound = max(noise.quantile(exp_d, 1.0 - q.e),
                noise.quantile(lap_d, 1.0 - q.e),
                abs(noise.quantile(lap_d, q.e)))
    return exp_d, lap_d, bound


class CorrectionCold(Workload):
    name = "correction-cold"
    op_spans = frozenset({"correction.optimal_correction"})

    def setup(self) -> dict:
        return {"load_s": 0.0, "truth_s": 0.0}

    def measure(self, seed: int, seconds: float) -> Measured:
        m = Measured(time.perf_counter(), SpeedReference())
        j = 0
        while j == 0 or time.perf_counter() - m.ready < seconds:
            for q in correction_queries(seed, j):
                m.speed.maybe_sample()
                m.attempted += 1
                misses = cache_counts()[1]
                t0 = time.perf_counter()
                try:
                    r_op, p_op = correction.optimal_correction(q)
                except Exception as exc:  # counted as a failed call
                    m.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                t1 = time.perf_counter()
                if cache_counts()[1] != misses + 1:
                    raise RuntimeError("a correction query hit the cache; "
                                       "the workload must stay cold")
                m.add(t0, t1, 1, [1e3 * (t1 - t0)])
                m.items.append((q, r_op, p_op, t1 - t0))
            j += 1
        m.speed.sample()
        m.end = time.perf_counter()
        return m

    def check(self, m: Measured) -> dict:
        failed, first = 0, ""
        for q, r_op, p_op, _ in m.items:
            floor = q.k**q.k / (q.k + 1) ** (q.k + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                closed = correction.success_probability_analytical(r_op, q)
            if not (p_op >= floor - CORR_TOL and abs(p_op - closed) <= CORR_TOL):
                failed += 1
                first = first or f"{q}: p={p_op} floor={floor} closed={closed}"
        failed += m.attempted - len(m.items)
        return {"corrections": {"failed": failed,
                                "detail": first or (m.errors[0] if m.errors else "")}}

    def redrive(self, m: Measured, tr: Tracer) -> tuple[dict, int]:
        clear_correction_caches()
        mismatched = 0
        discretize_s = []
        for op, (q, r_op, p_op, _) in enumerate(m.items, start=1):
            m.speed.maybe_sample()
            got = tr.call("correction.optimal_correction", op,
                          correction.optimal_correction, q)
            mismatched += got != (r_op, p_op)
            exp_d, lap_d, bound = _difference_laws(q)
            x = tr.call("correction.discretize", op, correction.discretize,
                        exp_d, q.m, bound)
            y = tr.call("correction.discretize", op, correction.discretize,
                        lap_d, q.m, bound)
            discretize_s.append(tr.spans[-1][2] - tr.spans[-2][1])
            tr.call("correction.convolve_difference", op,
                    correction.convolve_difference, x, y)
        calls = tr.durations("correction.optimal_correction")
        layer = {
            "correction.cold_ms_p50": 1e3 * pct(calls, 50),
            "correction.discretize_ms_p50": 1e3 * pct(discretize_s, 50),
            "correction.convolve_ms_p50":
                1e3 * pct(tr.durations("correction.convolve_difference"), 50),
        }
        return layer, mismatched

    def working_set(self) -> int:
        """Bytes of the arrays one cold call builds: both discretized laws,
        their difference law, and its values and cumulative arrays."""
        q = correction_queries(DEFAULT_SEED, 0)[0]
        exp_d, lap_d, bound = _difference_laws(q)
        x = correction.discretize(exp_d, q.m, bound)
        y = correction.discretize(lap_d, q.m, bound)
        z = correction.convolve_difference(x, y)
        return x.mass.nbytes + y.mass.nbytes + 3 * z.mass.nbytes


def make(name: str, out_dir: Path, scores: Optional[Path]) -> Workload:
    if name == "sweep":
        return Sweep(name, SWEEP_GRIDS, out_dir, SWEEP_DIGEST, 10_000)
    if name == "sweep-1e6":
        grids = (dict(dataset=str(scores), variants=BIG_VARIANTS,
                      eps_values=(0.5,), c=50, traverses=(1,),
                      repetitions=BIG_REPETITIONS, n_items=BIG_ITEMS),)
        return Sweep(name, grids, out_dir, None, BIG_ITEMS)
    if name == "mc-accuracy":
        return McAccuracy()
    if name == "correction-cold":
        return CorrectionCold()
    raise ValueError(f"unknown workload {name!r}")


def write_big_scores(path: Path) -> None:
    """Write the 10^6-item zipf scores file for sweep-1e6, atomically."""
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    data.write_scores(data.gen_zipf(BIG_ITEMS), tmp)
    os.replace(tmp, path)
