"""Experiment harness.

Subcommands:
    gen               write a synthetic dataset to a scores file
    ingest            score a transaction file and write it as scores
    sweep             run variant x epsilon x traverses x repetition cells
    correction-table  optimal vs mean correction terms across epsilon
    plot-series       x/y series (variance, accuracy, correction-sweep,
                      traverses) for external plotting

Every result is CSV; plotting is out of scope. Runs are deterministic:
each sweep cell derives its own random stream from the root seed plus the
cell's identity (epsilon, variant, traverses, repetition), so any row can
be reproduced standalone and re-runs are byte-identical apart from the
wall_time_ms column.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import inspect
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import IO, Optional, Sequence

import numpy as np

from . import allocation, checks, correction, data, metrics, noise, svt
from .allocation import Variant
from .metrics import _top
from .svt import QueryStream, SvtConfig, run_svt, sealed

UPPER_BOUND = "upper"  # pseudo-variant: rank by exponentially perturbed scores

_SVT_TOKENS = tuple(v.value for v in Variant)
VARIANT_TOKENS = _SVT_TOKENS + (UPPER_BOUND,)

SWEEP_COLUMNS = ("dataset", "variant", "eps", "eps1", "eps2", "c", "alpha",
                 "k_est", "traverses", "repetition", "seed", "ncr", "f1",
                 "n_c", "n_a", "halt_reason", "r_op", "wall_time_ms")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: dataset x variants x eps_values x traverses x repetitions.

    dataset is "binary", "zipf", or a path to a scores file. k_est of None
    applies the default rule floor(n_items / c). append + traverses control
    the re-enqueueing of negatives; every variant at a given traverse count
    consumes the same privacy budget, so traverse series are comparable.
    Without append every traverse count runs one traverse, and the count
    only keys the cell's random stream.
    """

    dataset: str
    variants: tuple[str, ...]
    eps_values: tuple[float, ...]
    c: int = 50
    alpha: float = 0.0
    k_est: Optional[int] = None
    traverses: tuple[int, ...] = (1,)
    repetitions: int = 1
    seed: int = 0
    resample: bool = False
    append: bool = False
    monotonic: bool = False
    delta: float = 1.0
    n_items: int = 10000
    n_positive: int = 100
    output: Optional[str] = None

    def __post_init__(self) -> None:
        checks.instance(str, dataset=self.dataset)
        checks.instance(tuple, variants=self.variants,
                        eps_values=self.eps_values, traverses=self.traverses)
        if not (self.variants and self.eps_values and self.traverses):
            raise ValueError("variants, eps_values and traverses must be "
                             "nonempty")
        _check_variants(self.variants, VARIANT_TOKENS)
        checks.positive(delta=self.delta)
        for eps in self.eps_values:
            checks.within(0, _EPS_LIMIT, eps_values=eps)
        for trav in self.traverses:
            checks.count(1, traverses=trav)
        checks.nonnegative(alpha=self.alpha)
        checks.count(1, c=self.c, repetitions=self.repetitions,
                     n_items=self.n_items)
        checks.count(0, seed=self.seed, n_positive=self.n_positive)
        if self.k_est is not None:
            checks.count(1, k_est=self.k_est)
        checks.flag(resample=self.resample, append=self.append,
                    monotonic=self.monotonic)
        for name, key in (("eps_values", _eps_key), ("traverses", int),
                          ("variants", _STREAM_KEY.__getitem__)):
            values = getattr(self, name)
            if len(set(map(key, values))) < len(values):
                raise ValueError(f"{name} repeat a stream key, and each repeat "
                                 f"reruns one random stream: {values}")


def _check_variants(variants: Sequence[str], choices: tuple[str, ...]) -> None:
    checks.sequence(variants=variants)
    unknown = [v for v in variants if v not in choices]
    if unknown:
        raise ValueError(f"unknown variants {unknown}; choose from {choices}")


_GENERATORS = {"binary": data.gen_binary,
               "zipf": lambda n_items, n_positive: data.gen_zipf(n_items)}


def load_dataset(cfg: ExperimentConfig) -> data.ScoredDataset:
    if cfg.dataset in _GENERATORS:
        return _GENERATORS[cfg.dataset](cfg.n_items, cfg.n_positive)
    return data.read_scores(cfg.dataset)


# A cell's stream key per variant token. Keys never move; a new token takes
# the next unused key.
_STREAM_KEY = {"lap": 0, "gau": 1, "gum": 2, "exp-none": 3, "exp-mean": 4,
               "exp-opt": 5, UPPER_BOUND: 6}


def _eps_key(eps: float) -> int:
    return int(round(eps * 1e9))


# The least eps whose stream key overflows: eps * 1e9 is inf from here on.
_EPS_LIMIT = math.nextafter(sys.float_info.max / 1e9, math.inf)
# An Exp(1) draw is at most its draw at the largest uniform, 1 - 2^-53,
# times 1 + 2^-30, a margin that rounding cannot cross.
_EXP_REACH = -math.log1p(2.0**-53 - 1.0) * (1.0 + 2.0**-30)


def cell_rng(seed: int, eps: float, variant: str, traverses: int,
             repetition: int) -> np.random.Generator:
    """Independent stream for one sweep cell, derived from its identity.

    Keyed by the cell's values (not loop indices), so a single-cell re-run
    of any row reproduces it exactly.
    """
    checks.count(0, seed=seed, repetition=repetition)
    checks.count(1, traverses=traverses)
    checks.within(0, _EPS_LIMIT, eps=eps)
    if variant not in VARIANT_TOKENS:
        raise ValueError(f"variant must be one of {VARIANT_TOKENS}, "
                         f"got {variant!r}")
    entropy = (int(seed), _STREAM_KEY[variant], _eps_key(eps),
               int(traverses), int(repetition))
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


# The upper reference's law per scale, kept with its draw operands.
_reference_law = functools.lru_cache(maxsize=256)(noise.exponential)


def _noisy_ranking(ds: data.ScoredDataset, eps2: float, delta: float, c: int,
                   rng: np.random.Generator, s_c: float) -> list[int]:
    """Non-interactive reference: top-c ids of scores + Exp(delta/eps2).

    A draw lies in [0, N], N = scale * ``_EXP_REACH``: only items scoring
    at least s_c - N - |s_c| 2^-30 (s_c the c-th largest score) can reach
    the top c. The uniforms past the last of them are skipped on ``rng``, a
    PCG64: ids, order and end state equal a full draw's, bit for bit."""
    d = _reference_law(delta / eps2)
    reach = np.flatnonzero(
        ds.scores >= s_c - (_EXP_REACH * d.scale + abs(s_c) * 2.0**-30))
    rest = ds.n_items - 1 - reach.item(-1)
    at = reach if reach.size < ds.n_items else slice(None)
    perturbed = noise.from_uniform(d, rng.random(ds.n_items - rest)[at])
    perturbed += ds.scores[at]
    svt._skip_draws(rng, rest)
    return ds.ids[at][_top(perturbed, c)].tolist()


def run_sweep(cfg: ExperimentConfig, out: Optional[IO[str]] = None) -> list[dict]:
    """Run every sweep cell, returning (and optionally writing) result rows.

    Rows stream to ``out`` (or to ``cfg.output`` when set, ``-`` meaning
    stdout) as they finish, flushed per row so an aborted sweep keeps its
    partial results.
    """
    ds = load_dataset(cfg)
    truth = metrics.GroundTruth.top(ds, cfg.c)
    k_est = cfg.k_est if cfg.k_est is not None else max(1, ds.n_items // cfg.c)
    if Variant.GAU.value in cfg.variants:  # import scipy.special before cells
        noise.cdf(noise.gaussian(1.0), 0.0)

    rows: list[dict] = []
    with contextlib.ExitStack() as stack:
        if out is None and cfg.output:
            out = _open_out(cfg.output, stack)
        writer = None
        if out is not None:
            writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            out.flush()
        for eps, token, trav, rep in itertools.product(
                cfg.eps_values, cfg.variants, cfg.traverses,
                range(cfg.repetitions)):
            rng = cell_rng(cfg.seed, eps, token, trav, rep)
            start = time.perf_counter()
            row = _run_cell(cfg, ds, truth, k_est, eps, token, trav, rep, rng)
            row["wall_time_ms"] = round((time.perf_counter() - start) * 1e3, 3)
            rows.append(row)
            if writer is not None:
                writer.writerow(row)
                out.flush()
    return rows


@functools.lru_cache(maxsize=256, typed=True)
def _cell_config(eps: float, token: str, trav: int, c: int, delta: float,
                 resample: bool, append: bool, monotonic: bool, alpha: float,
                 k_est: int, n_items: int) -> tuple:
    """A cell's budget split and, but for ``upper``, its shared SvtConfig."""
    # The upper reference ranks with the exp-opt split's query budget.
    variant = Variant.EXP_OPT_CORR if token == UPPER_BOUND else Variant(token)
    split = allocation.split(eps, variant, c, monotonic)
    return split, None if token == UPPER_BOUND else SvtConfig(
        delta=delta, eps1=split.eps1, eps2=split.eps2, c=c,
        k_max=n_items * trav, variant=variant, resample=resample,
        append=append, max_traverses=trav, monotonic=monotonic, alpha=alpha,
        k_est=k_est, delta_dp=1.0 / n_items)


def _run_cell(cfg: ExperimentConfig, ds: data.ScoredDataset,
              truth: metrics.GroundTruth, k_est: int, eps: float, token: str,
              trav: int, rep: int, rng: np.random.Generator) -> dict:
    split, svt_cfg = _cell_config(eps, token, trav, cfg.c, cfg.delta,
                                  cfg.resample, cfg.append, cfg.monotonic,
                                  cfg.alpha, k_est, ds.n_items)
    if svt_cfg is None:
        s_c = truth.scores.item(min(cfg.c, ds.n_items) - 1)
        chosen = _noisy_ranking(ds, split.eps2, cfg.delta, cfg.c, rng, s_c)
        tail = dict(n_c=min(cfg.c, ds.n_items), n_a=ds.n_items,
                    halt_reason="", r_op="")
    else:
        outcome = run_svt(data.shuffle_and_stream(ds, rng), svt_cfg, rng)
        chosen = outcome.positives
        tail = dict(n_c=outcome.n_c, n_a=outcome.n_a,
                    halt_reason=outcome.halt_reason.value,
                    r_op=outcome.correction_used)
    return {"dataset": ds.name, "variant": token, "eps": eps,
            "eps1": split.eps1, "eps2": split.eps2, "c": cfg.c,
            "alpha": cfg.alpha, "k_est": k_est, "traverses": trav,
            "repetition": rep, "seed": cfg.seed,
            "ncr": metrics.ncr(chosen, truth), "f1": metrics.f1(chosen, truth),
            **tail}


def emit_correction_table(eps_values: Sequence[float], c: int, alpha: float,
                          k_est: int = 200, delta: float = 1.0,
                          monotonic: bool = False) -> list[dict]:
    """The corrections exp-opt and exp-mean apply, per epsilon."""
    checks.sequence(eps_values=eps_values)
    for eps in eps_values:
        checks.positive(eps_values=eps)
    checks.count(1, k_est=k_est)
    rows = []
    for eps in eps_values:
        split = allocation.split(eps, Variant.EXP_OPT_CORR, c, monotonic)
        query = correction.CorrectionQuery.from_budget(
            split.eps1, split.eps2, c, delta, monotonic, alpha, k_est)
        law = allocation.calibrate(Variant.EXP_MEAN_CORR, split.eps1,
                                   split.eps2, c, delta, monotonic)[1]
        r_op, p_op = correction.optimal_correction(query)
        rows.append({"eps": eps, "w": split.w, "eps1": split.eps1,
                     "eps2": split.eps2, "lambda": query.lam, "k": k_est,
                     "alpha": alpha,
                     "mean_correction": noise.NoiseDist(*law).mean(),
                     "optimal_correction": r_op, "success_probability": p_op})
    return rows


def emit_plot_series(kind: str, **params) -> list[dict]:
    """Plot-ready series for one figure family.

    Kinds: "variance" (comparison variance vs epsilon per noise family),
    "accuracy" (empirical failure rate vs tolerance per variant on a
    near-threshold worst-case stream), "correction-sweep" (success
    probability vs correction term), "traverses" (mean ncr vs traverse
    budget per variant). A parameter the kind does not take is a
    ``ValueError`` that names the ones it does.
    """
    if kind not in _SERIES:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    accepted = tuple(inspect.signature(_SERIES[kind]).parameters)
    unknown = [name for name in params if name not in accepted]
    if unknown:
        raise ValueError(f"unknown {kind} parameters {unknown}; choose from "
                         f"{accepted}")
    return _SERIES[kind](**params)


_FAMILY_VARIANT = {"exp": Variant.EXP_OPT_CORR, "gum": Variant.GUM,
                   "lap": Variant.LAP, "gau": Variant.GAU}


def _series_variance(c: int = 50, delta: float = 1.0, monotonic: bool = False,
                     delta_dp: float = 1e-4, eps_min: float = 0.01,
                     eps_max: float = 2.0, points: int = 50) -> list[dict]:
    checks.positive(eps_min=eps_min, eps_max=eps_max)
    checks.count(1, points=points)
    rows = []
    for eps in np.geomspace(eps_min, eps_max, points):
        for family, variant in _FAMILY_VARIANT.items():
            split = allocation.split(float(eps), variant, c, monotonic)
            v = allocation.comparison_variance(
                variant, split.eps1, split.eps2, c, delta, monotonic, delta_dp)
            rows.append({"kind": "variance", "variant": family,
                         "eps": float(eps), "variance": v})
    return rows


def near_threshold_stream(k: int, threshold: float, alpha: float,
                          margin: float = 1e-6):
    """Worst-case accuracy stream: k negatives just below threshold - alpha,
    then one positive just above threshold + alpha, queried last."""
    checks.count(1, k=k)
    checks.finite(threshold=threshold)
    checks.nonnegative(alpha=alpha)
    checks.positive(margin=margin)
    low, high = threshold - alpha, threshold + alpha
    if low - margin == low or high + margin == high:
        raise ValueError(f"margin={margin} rounds away at "
                         f"threshold={threshold} and alpha={alpha}")
    scores = np.append(np.full(k, low - margin), high + margin)
    return QueryStream(sealed(np.arange(1, k + 2)), sealed(scores), threshold)


def _series_accuracy(k: int = 50, eps: float = 1.0, delta: float = 1.0,
                     alphas: Sequence[float] = (5.0, 10.0, 20.0, 30.0, 40.0),
                     trials: int = 500, seed: int = 0,
                     variants: Sequence[str] = ("exp-opt", "exp-mean",
                                                "exp-none", "lap", "gau",
                                                "gum"),
                     threshold: float = 1000.0) -> list[dict]:
    # Even split: the convention of the accuracy bound this series is
    # compared against.
    checks.count(1, k=k)
    checks.positive(eps=eps)
    checks.sequence(alphas=alphas)
    _check_variants(variants, _SVT_TOKENS)
    rows = []
    for token in variants:
        variant = Variant(token)
        for alpha in alphas:
            stream = near_threshold_stream(k, threshold, alpha)
            truth = metrics.GroundTruth.ranked(stream.ids, stream.scores,
                                               threshold, c=1)
            cfg = SvtConfig(
                delta=delta, eps1=eps / 2, eps2=eps / 2, c=1, k_max=k + 1,
                variant=variant, alpha=alpha, k_est=k, delta_dp=1.0 / (k + 1))
            rng = cell_rng(seed, eps, token, 1, 0)
            beta_hat = metrics.failure_rate(
                svt.run_trials(stream, cfg, rng, trials), alpha, truth)
            rows.append({"kind": "accuracy", "variant": token, "eps": eps,
                         "alpha": alpha, "beta_hat": beta_hat,
                         "trials": trials})
    return rows


def _series_correction_sweep(eps: float = 0.1, c: int = 50,
                             delta: float = 1.0, alpha: float = 0.0,
                             k: int = 200, monotonic: bool = False,
                             r_min: Optional[float] = None,
                             r_max: Optional[float] = None,
                             points: int = 501) -> list[dict]:
    checks.count(1, points=points)
    if r_min is not None:
        checks.finite(r_min=r_min)
    if r_max is not None:
        checks.finite(r_max=r_max)
    split = allocation.split(eps, Variant.EXP_OPT_CORR, c, monotonic)
    query = correction.CorrectionQuery.from_budget(
        split.eps1, split.eps2, c, delta, monotonic, alpha, k)
    law = allocation.calibrate(Variant.EXP_MEAN_CORR, split.eps1, split.eps2,
                               c, delta, monotonic)[1]
    mean = noise.NoiseDist(*law).mean()
    grid = np.linspace(-2 * mean if r_min is None else r_min,
                       8 * mean if r_max is None else r_max, points)
    return [{"r": r, "p": p} for r, p in correction.correction_sweep(query, grid)]


def _series_traverses(dataset: str = "zipf", eps: float = 0.5, c: int = 50,
                      variants: Sequence[str] = ("exp-opt", "exp-mean", "lap"),
                      traverses: Sequence[int] = (1, 2, 5, 10),
                      repetitions: int = 20, seed: int = 0,
                      alpha: float = 0.0, delta: float = 1.0,
                      n_items: int = 10000,
                      n_positive: int = 100) -> list[dict]:
    checks.count(2, repetitions=repetitions)  # the stderr needs two
    checks.sequence(variants=variants, traverses=traverses)
    cfg = ExperimentConfig(dataset=dataset, variants=tuple(variants),
                           eps_values=(eps,), c=c, alpha=alpha,
                           traverses=tuple(traverses),
                           repetitions=repetitions, seed=seed, append=True,
                           delta=delta, n_items=n_items,
                           n_positive=n_positive)
    cells = run_sweep(cfg)
    rows = []
    for token in variants:
        for trav in traverses:
            vals = np.array([r["ncr"] for r in cells
                             if r["variant"] == token
                             and r["traverses"] == trav])
            rows.append({"kind": "traverses", "variant": token,
                         "traverses": trav, "mean_ncr": float(vals.mean()),
                         "stderr_ncr": float(vals.std(ddof=1)
                                             / np.sqrt(len(vals))),
                         "repetitions": repetitions})
    return rows


_SERIES = {"variance": _series_variance, "accuracy": _series_accuracy,
           "correction-sweep": _series_correction_sweep,
           "traverses": _series_traverses}
PLOT_KINDS = tuple(_SERIES)


def _open_out(path: Optional[str], stack: contextlib.ExitStack) -> IO[str]:
    """stdout for ``None`` or ``-``; otherwise ``path``, closed by ``stack``."""
    if path in (None, "-"):
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8", newline=""))


def _write_rows(rows: list[dict], out_path: Optional[str]) -> None:
    if not rows:
        raise ValueError("nothing to write")
    with contextlib.ExitStack() as stack:
        writer = csv.DictWriter(_open_out(out_path, stack),
                                fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _comma_list(cast: type):
    """An argparse type: comma-separated ``cast`` values, blanks skipped."""
    def parse(text: str) -> tuple:
        return tuple(cast(t.strip()) for t in text.split(",") if t.strip())
    parse.__name__ = cast.__name__  # argparse: "invalid float value: 'x'"
    return parse


_floats, _ints, _tokens = map(_comma_list, (float, int, str))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svtkit",
        description="Sparse-vector experiment harness (CSV in, CSV out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset")
    p_gen.add_argument("--dataset", choices=tuple(_GENERATORS), required=True)
    p_gen.add_argument("--n-items", type=int, default=10000)
    p_gen.add_argument("--n-positive", type=int, default=100)
    p_gen.add_argument("--out", required=True)

    p_ing = sub.add_parser("ingest", help="score a transaction file")
    p_ing.add_argument("--path", required=True)
    p_ing.add_argument("--threshold", type=float, required=True)
    p_ing.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    p_sweep.add_argument("--config", help="JSON file with config fields; "
                         "explicit flags override it")
    p_sweep.add_argument("--dataset")
    p_sweep.add_argument("--variants", type=_tokens)
    p_sweep.add_argument("--eps", type=_floats, dest="eps_values")
    p_sweep.add_argument("--c", type=int)
    p_sweep.add_argument("--alpha", type=float)
    p_sweep.add_argument("--k-est", type=int, dest="k_est")
    p_sweep.add_argument("--traverses", type=_ints,
                         help="comma-separated traverse caps; without "
                         "--append each runs one traverse and only keys "
                         "the cell's random stream")
    p_sweep.add_argument("--reps", type=int, dest="repetitions")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--resample", action="store_true", default=None)
    p_sweep.add_argument("--append", action="store_true", default=None)
    p_sweep.add_argument("--monotonic", action="store_true", default=None)
    p_sweep.add_argument("--delta", type=float)
    p_sweep.add_argument("--n-items", type=int, dest="n_items")
    p_sweep.add_argument("--n-positive", type=int, dest="n_positive")
    p_sweep.add_argument("--out", dest="output")

    p_tab = sub.add_parser("correction-table",
                           help="optimal vs mean correction terms")
    p_tab.add_argument("--eps", type=_floats, default=(0.01, 0.05, 0.1, 1, 2),
                       dest="eps_values")
    p_tab.add_argument("--c", type=int, default=50)
    p_tab.add_argument("--alpha", type=float, default=0.0)
    p_tab.add_argument("--k-est", type=int, default=200, dest="k_est")
    p_tab.add_argument("--delta", type=float, default=1.0)
    p_tab.add_argument("--monotonic", action="store_true")
    p_tab.add_argument("--out")

    p_plot = sub.add_parser("plot-series", help="emit plot-ready series")
    p_plot.add_argument("--kind", choices=PLOT_KINDS, required=True)
    p_plot.add_argument("--params", default="{}",
                        help="JSON object of series parameters")
    p_plot.add_argument("--out")
    return parser


def _sweep_config(args: argparse.Namespace) -> ExperimentConfig:
    accepted = tuple(f.name for f in fields(ExperimentConfig))
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: the file must hold a JSON "
                             f"object, got {values!r}")
        unknown = [name for name in values if name not in accepted]
        if unknown:
            raise ValueError(f"{args.config}: unknown config fields {unknown}; "
                             f"choose from {accepted}")
    for name in accepted:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    for key in ("variants", "eps_values", "traverses"):
        if isinstance(values.get(key), list):
            values[key] = tuple(values[key])
    if "dataset" not in values:
        raise ValueError("a dataset is required (flag --dataset or config)")
    return ExperimentConfig(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            ds = _GENERATORS[args.dataset](args.n_items, args.n_positive)
            data.write_scores(ds, args.out)
        elif args.command == "ingest":
            ds = data.ingest_transactions(args.path, args.threshold)
            data.write_scores(ds, args.out)
        elif args.command == "sweep":
            cfg = _sweep_config(args)
            run_sweep(cfg, out=sys.stdout if cfg.output is None else None)
        elif args.command == "correction-table":
            rows = emit_correction_table(args.eps_values, args.c, args.alpha,
                                         k_est=args.k_est, delta=args.delta,
                                         monotonic=args.monotonic)
            _write_rows(rows, args.out)
        elif args.command == "plot-series":
            params = json.loads(args.params)
            if not isinstance(params, dict):
                raise ValueError(f"--params must be a JSON object, got "
                                 f"{args.params}")
            rows = emit_plot_series(args.kind, **params)
            _write_rows(rows, args.out)
    except Exception as exc:  # surface a clean message, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
