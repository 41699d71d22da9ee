"""The experiment harness: sweeps, tables, series, and the argv entry point."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from svtkit import cli, data, noise
from svtkit.allocation import Variant
from svtkit.cli import ExperimentConfig, SWEEP_COLUMNS
from svtkit.svt import SvtConfig, effective_lambda

NAN, INF = float("nan"), float("inf")


def small_sweep(**overrides) -> ExperimentConfig:
    base = dict(dataset="zipf", variants=("exp-opt", "lap"), eps_values=(0.5,),
                c=10, repetitions=2, seed=7, n_items=300)
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_timing(rows):
    return [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]


# --- config validation -------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(variants=()),
    dict(variants=("lap", "bogus")),
    dict(eps_values=()),
    dict(eps_values=(0.5, -1.0)),
    dict(repetitions=0),
    dict(seed=-1),
    dict(traverses=(1, 0)),
    dict(c=0),
    dict(eps_values=(0.5, NAN)),
    dict(eps_values=(INF,)),
    dict(alpha=NAN),
    dict(alpha=INF),
    dict(delta=NAN),
    dict(delta=INF),
    dict(delta=0.0),
    dict(delta=-1.0),
    dict(eps_values=(0.5, 0.5)),
    dict(eps_values=(0.5, 0.5 + 3e-10)),  # one cell_rng key, one stream
])
def test_config_rejects(bad):
    with pytest.raises(ValueError):
        small_sweep(**bad)


def test_config_accepts_eps_values_with_distinct_stream_keys():
    cfg = small_sweep(eps_values=(0.5, 0.5 + 2e-9))
    a, b = (cli.cell_rng(0, e, "lap", 1, 0).random() for e in cfg.eps_values)
    assert a != b


def test_cell_rng_deterministic_and_distinct():
    a = cli.cell_rng(7, 0.5, "lap", 1, 0).random(4)
    b = cli.cell_rng(7, 0.5, "lap", 1, 0).random(4)
    assert np.array_equal(a, b)
    for other in [cli.cell_rng(8, 0.5, "lap", 1, 0),
                  cli.cell_rng(7, 0.25, "lap", 1, 0),
                  cli.cell_rng(7, 0.5, "gau", 1, 0),
                  cli.cell_rng(7, 0.5, "lap", 2, 0),
                  cli.cell_rng(7, 0.5, "lap", 1, 1)]:
        assert not np.array_equal(a, other.random(4))


# Literal stream keys: a key that moves reruns every cell of its token on
# another random stream.
STREAM_KEYS = {"lap": 0, "gau": 1, "gum": 2, "exp-none": 3, "exp-mean": 4,
               "exp-opt": 5, "upper": 6}


@pytest.mark.parametrize("token, key", STREAM_KEYS.items())
def test_cell_rng_stream_keys_never_move(token, key):
    seed, eps, trav, rep = 7, 0.5, 3, 2
    entropy = [seed, key, cli._eps_key(eps), trav, rep]
    expected = np.random.default_rng(np.random.SeedSequence(entropy))
    assert np.array_equal(cli.cell_rng(seed, eps, token, trav, rep).random(4),
                          expected.random(4))


def test_every_variant_token_has_its_own_stream_key():
    keys = [cli._STREAM_KEY[token] for token in cli.VARIANT_TOKENS]
    assert len(set(keys)) == len(keys)


# --- sweeps ------------------------------------------------------------

def test_sweep_rows_and_default_k_est():
    cfg = small_sweep(c=30, variants=("lap",), repetitions=1, n_items=200)
    rows = cli.run_sweep(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == set(SWEEP_COLUMNS)
    assert row["k_est"] == 200 // 30
    assert row["dataset"] == "zipf"
    assert 0.0 <= row["ncr"] <= 1.0
    assert 0.0 <= row["f1"] <= 1.0
    assert row["eps1"] + row["eps2"] == pytest.approx(0.5)


def test_sweep_deterministic_for_fixed_seed():
    cfg = small_sweep()
    first = strip_timing(cli.run_sweep(cfg))
    second = strip_timing(cli.run_sweep(cfg))
    assert first == second


def test_sweep_repetitions_differ():
    rows = cli.run_sweep(small_sweep(variants=("lap",), repetitions=4))
    ncrs = {r["ncr"] for r in rows}
    assert len(ncrs) > 1


def test_sweep_csv_file_output(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = small_sweep(output=str(out))
    rows = cli.run_sweep(cfg)
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == list(SWEEP_COLUMNS)
    assert len(parsed) == 1 + len(rows) == 1 + 2 * 2


def test_sweep_holds_the_dataset_and_one_item_sized_array(tmp_path,
                                                          monkeypatch):
    """Past reading the scores file, a sweep over 10^5 items holds at most
    one more 8-byte-per-item array at a time (a cell's permutation, or the
    copy the top-c truth partitions), plus an eighth of that in small
    objects: a truth ranking every item would hold four."""
    n = 10**5
    path = tmp_path / "z.scores"
    data.write_scores(data.gen_zipf(n), path)
    load, loaded = cli.load_dataset, []

    def load_then_mark(cfg):
        ds = load(cfg)
        tracemalloc.reset_peak()
        loaded.append(tracemalloc.get_traced_memory()[0])
        return ds

    monkeypatch.setattr(cli, "load_dataset", load_then_mark)
    cfg = ExperimentConfig(dataset=str(path), variants=("lap", "upper"),
                           eps_values=(0.5,), repetitions=2, n_items=n)
    tracemalloc.start()
    try:
        cli.run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded[0] >= 16 * n  # the dataset's id and score columns
    assert peak - loaded[0] < 8 * n + n


def test_upper_bound_beats_interactive_variants():
    """The non-interactive ranking gets the whole query budget per item, so
    its recall should dominate any sequential variant at equal epsilon."""
    cfg = small_sweep(dataset="zipf", n_items=1000, c=20,
                      variants=("upper", "exp-opt", "lap"), repetitions=3)
    rows = cli.run_sweep(cfg)

    def mean_ncr(token):
        vals = [r["ncr"] for r in rows if r["variant"] == token]
        return sum(vals) / len(vals)

    assert mean_ncr("upper") >= mean_ncr("exp-opt")
    assert mean_ncr("upper") >= mean_ncr("lap")


def test_upper_bound_row_shape():
    rows = cli.run_sweep(small_sweep(variants=("upper",), repetitions=1))
    row = rows[0]
    assert row["halt_reason"] == ""
    assert row["r_op"] == ""
    assert row["n_c"] == 10
    assert row["n_a"] == 300


def test_upper_bound_n_c_counts_only_existing_items():
    rows = cli.run_sweep(small_sweep(variants=("upper", "lap"), c=50,
                                     n_items=10, repetitions=1))
    assert [(r["variant"], r["n_c"], r["n_a"]) for r in rows] == [
        ("upper", 10, 10), ("lap", 10, 10)]


def test_upper_rows_follow_their_stream_key(monkeypatch):
    """With c above the positives, upper fills its ranking with zeros in
    the order its noise draws give them, so f1 reads the cell's stream:
    the rows are pinned and move when upper's key moves."""
    cfg = small_sweep(dataset="binary", variants=("upper",), n_items=40,
                      n_positive=4, repetitions=4)
    assert [r["f1"] for r in cli.run_sweep(cfg)] == [0.5, 0.5, 0.5, 0.6]
    monkeypatch.setitem(cli._STREAM_KEY, "upper", 7)
    assert [r["f1"] for r in cli.run_sweep(cfg)] != [0.5, 0.5, 0.5, 0.6]


def _tie_heavy(seed: int, n: int = 200) -> np.ndarray:
    values = np.random.default_rng(seed).integers(0, 5, n).astype(float)
    values[::7] = -values[::7]      # -0.0 among the zeros
    return values


@pytest.mark.parametrize("seed", range(5))
def test_partial_top_c_is_the_stable_argsort_prefix(seed):
    values = _tie_heavy(seed)
    n = values.size
    ranked = np.argsort(-values, kind="stable")
    # The top value's run of ties: c ends one short of it, then with it.
    boundary = int((values == values.max()).sum()) - 1
    for c in (1, 2, boundary, boundary + 1, n // 2, n - 1, n, n + 5):
        assert cli._top(values, c).tolist() == ranked[:c].tolist(), c


def test_partial_top_c_on_one_value():
    assert cli._top(np.array([3.0]), 1).tolist() == [0]
    assert cli._top(np.array([3.0]), 4).tolist() == [0]
    assert cli._top(np.zeros(6), 3).tolist() == [0, 1, 2]


def full_draw_ranking(ds, eps2, delta, c, rng):
    """The reference before its candidate bound: every item drawn, every
    perturbed score ranked."""
    perturbed = ds.scores + noise.sample(noise.exponential(delta / eps2), rng,
                                         size=ds.n_items)
    return ds.ids[cli._top(perturbed, c)].tolist()


def c_th_score(ds, c):
    return np.sort(ds.scores)[::-1].item(min(c, ds.n_items) - 1)


@pytest.fixture
def drawn(monkeypatch):
    """The sizes of the uniform arrays the reference turns into noise."""
    sizes = []
    from_uniform = noise.from_uniform

    def counted(d, u):
        sizes.append(np.size(u))
        return from_uniform(d, u)

    monkeypatch.setattr(noise, "from_uniform", counted)
    return sizes


def assert_ranks_as_full_draw(ds, eps2, c, seed=0, delta=1.0):
    """Equal ids, order and generator end state on PCG64, the generator of
    every sweep cell, on PCG64 holding a spare 32-bit output, and on
    PCG64DXSM."""
    for bits, spare in ((np.random.PCG64, False), (np.random.PCG64, True),
                        (np.random.PCG64DXSM, False)):
        want_rng, got_rng = (np.random.Generator(bits(seed)) for _ in "ab")
        if spare:
            for rng in (want_rng, got_rng):
                rng.integers(2**32, dtype=np.uint32)
        want = full_draw_ranking(ds, eps2, delta, c, want_rng)
        got = cli._noisy_ranking(ds, eps2, delta, c, got_rng,
                                 c_th_score(ds, c))
        assert got == want, (bits, spare)
        assert (repr(got_rng.bit_generator.state)
                == repr(want_rng.bit_generator.state)), (bits, spare)


@pytest.mark.parametrize("eps2", [5.0, 0.5, 0.05, 1e-4])
@pytest.mark.parametrize("ds", [data.gen_zipf(300), data.gen_binary(300, 10)],
                         ids=["zipf", "binary"])
def test_noisy_ranking_equals_the_full_draw(ds, eps2):
    for c in (1, 5, 10, 11, 50):
        for seed in range(3):
            assert_ranks_as_full_draw(ds, eps2, c, seed)


@pytest.mark.parametrize("ds, eps2, c, candidates", [
    (data.gen_zipf(300), 5.0, 5, 5),
    (data.gen_zipf(300), 1e-4, 5, 300),        # every item within reach
    (data.gen_binary(300, 10), 5.0, 5, 10),
    (data.gen_binary(300, 10), 5.0, 11, 300),  # c above the positives
])
def test_noisy_ranking_draws_noise_for_its_candidates(ds, eps2, c,
                                                      candidates, drawn):
    cli._noisy_ranking(ds, eps2, 1.0, c, np.random.default_rng(0),
                       c_th_score(ds, c))
    assert drawn == [candidates]


@pytest.mark.parametrize("seed", range(5))
def test_noisy_ranking_equals_the_full_draw_on_ties_and_negatives(seed):
    ties = _tie_heavy(seed)                  # -0.0 among the zeros
    negative = ties - 6.0
    spread = -np.random.default_rng(seed).exponential(100.0, 200)
    for scores in (ties, negative, spread):
        ds = data.ScoredDataset("x", np.arange(scores.size) + 7, scores, 0.0)
        for eps2 in (0.3, 3.0, 300.0):
            for c in (1, 3, 40, 200, 250):  # c >= n at 200 and 250
                assert_ranks_as_full_draw(ds, eps2, c, seed)


def test_noisy_ranking_equals_the_full_draw_on_a_shuffled_scores_file(
        tmp_path, drawn):
    """Rows in shuffled order scatter the candidates to the file's end; the
    file's id and score columns are strided fields."""
    zipf = data.gen_zipf(2000)
    order = np.random.default_rng(3).permutation(zipf.n_items)
    data.write_scores(data.ScoredDataset("z", zipf.ids[order],
                                         zipf.scores[order], 0.0),
                      tmp_path / "z.csv")
    ds = data.read_scores(tmp_path / "z.csv")
    assert ds.ids.strides == (16,)
    for eps2 in (0.5, 5.0):
        for c in (1, 50, 2000, 2100):
            assert_ranks_as_full_draw(ds, eps2, c, seed=c)
    drawn.clear()
    cli._noisy_ranking(ds, 0.5, 1.0, 50, np.random.default_rng(0),
                       c_th_score(ds, 50))
    assert drawn[0] < ds.n_items // 10


@pytest.mark.parametrize("s_c", [200.0, -3.5, 0.0, 1e6, 7e-5])
@pytest.mark.parametrize("scale", [2.0, 1e-5, 1e6])
def test_the_candidate_bound_is_exact_to_one_ulp(s_c, scale, drawn):
    """An item scoring at the bound is a candidate, one an ulp below it is
    not; placed last, either one decides how many uniforms are drawn."""
    bound = s_c - (cli._EXP_REACH * scale + abs(s_c) * 2.0**-30)
    for last, candidates in ((bound, 3), (np.nextafter(bound, -np.inf), 2)):
        far = bound - max(abs(bound), 1.0)
        scores = np.array([s_c + 1.0, s_c, far, far, last])
        ds = data.ScoredDataset("x", [5, 4, 3, 2, 1], scores, 0.0)
        drawn.clear()
        assert_ranks_as_full_draw(ds, 1.0 / scale, 2)
        assert drawn[1] == candidates, last


def test_no_exponential_draw_is_above_the_candidate_reach():
    """The top 2^20 uniforms below 1, at scales from 1e-5 to 1e6, draw at
    most the reach the candidate bound adds to each score."""
    u = 1.0 - np.arange(1, 2**20 + 1) * 2.0**-53
    for scale in (1e-5, 0.1, 1.0, 2.1170000166126748, 3.0, 1e3, 1e6):
        d = noise.exponential(scale)
        assert noise.from_uniform(d, u.copy()).max() <= cli._EXP_REACH * scale
        assert noise.from_uniform(d, 1.0 - 2.0**-53) <= cli._EXP_REACH * scale


def test_upper_cells_rank_as_the_full_draw(monkeypatch):
    """The harness hands the reference its c-th largest score: its upper
    rows equal those of the full draw."""
    for cfg in (small_sweep(variants=("upper",), c=50, repetitions=3),
                small_sweep(dataset="binary", variants=("upper",), c=20,
                            n_positive=15, repetitions=3)):
        rows = strip_timing(cli.run_sweep(cfg))
        monkeypatch.setattr(cli, "_noisy_ranking",
                            lambda ds, eps2, delta, c, rng, s_c:
                            full_draw_ranking(ds, eps2, delta, c, rng))
        assert strip_timing(cli.run_sweep(cfg)) == rows
        monkeypatch.undo()


# --- correction table --------------------------------------------------

def test_correction_table_columns_and_mean_rule():
    rows = cli.emit_correction_table((1.0,), c=50, alpha=0.0, k_est=200)
    row = rows[0]
    assert row["mean_correction"] == pytest.approx(100.0 / row["eps2"],
                                                   rel=1e-12)
    assert row["optimal_correction"] > row["mean_correction"]
    assert 0.0 < row["success_probability"] < 1.0


@pytest.mark.parametrize("monotonic", [False, True])
def test_correction_table_lambda_is_effective_lambda(monotonic):
    rows = cli.emit_correction_table((0.1, 1.0), c=5, alpha=0.0, k_est=20,
                                     delta=2.0, monotonic=monotonic)
    for row in rows:
        cfg = SvtConfig(delta=2.0, eps1=row["eps1"], eps2=row["eps2"], c=5,
                        k_max=1, variant=Variant.EXP_OPT_CORR,
                        monotonic=monotonic)
        assert row["lambda"] == effective_lambda(cfg)


def test_correction_table_scales_with_epsilon():
    """Doubling epsilon doubles both split parts, so every corrective scale
    in the table halves; the optimal term tracks that exactly because the
    search grid is built from those scales."""
    rows = cli.emit_correction_table((1.0, 2.0), c=50, alpha=0.0, k_est=200)
    lo, hi = rows
    assert hi["mean_correction"] == pytest.approx(lo["mean_correction"] / 2,
                                                  rel=1e-12)
    assert hi["optimal_correction"] == pytest.approx(
        lo["optimal_correction"] / 2, rel=1e-9)


@pytest.mark.parametrize("monotonic", [False, True])
def test_correction_table_prints_the_corrections_a_sweep_applies(monotonic):
    """exp-mean's and exp-opt's r_op in a sweep are the table's
    mean_correction and optimal_correction bit for bit at the sweep's
    k_est, and the correction-sweep series spans -2 to 8 times exp-mean's."""
    eps_values = (0.01, 0.1, 1.0)
    cfg = ExperimentConfig(dataset="binary", variants=("exp-mean", "exp-opt"),
                           eps_values=eps_values, c=50, n_items=10_000,
                           monotonic=monotonic)
    rows = cli.run_sweep(cfg)
    assert {r["k_est"] for r in rows} == {200}
    table = {r["eps"]: r for r in cli.emit_correction_table(
        eps_values, c=50, alpha=0.0, k_est=200, monotonic=monotonic)}
    column = {"exp-mean": "mean_correction", "exp-opt": "optimal_correction"}
    applied = {(r["variant"], r["eps"]): r["r_op"] for r in rows}
    printed = {(v, e): table[e][column[v]] for v, e in applied}
    assert applied == printed
    series = cli.emit_plot_series("correction-sweep", eps=0.01, c=50, k=200,
                                  monotonic=monotonic, points=2)
    mean = applied["exp-mean", 0.01]
    assert [r["r"] for r in series] == [-2 * mean, 8 * mean]


# --- plot series -------------------------------------------------------

def test_series_variance_orders_families():
    rows = cli.emit_plot_series("variance", c=50, points=9)
    assert len(rows) == 9 * 4
    by_eps: dict = {}
    for r in rows:
        by_eps.setdefault(r["eps"], {})[r["variant"]] = r["variance"]
    for variances in by_eps.values():
        assert variances["exp"] <= min(variances.values()) * (1 + 1e-12)


def test_series_correction_sweep_interior_peak():
    rows = cli.emit_plot_series("correction-sweep", points=61)
    assert len(rows) == 61
    ps = [r["p"] for r in rows]
    assert all(0.0 <= p <= 1.0 for p in ps)
    peak = max(range(61), key=ps.__getitem__)
    assert 0 < peak < 60


def test_series_accuracy_shape():
    rows = cli.emit_plot_series("accuracy", k=20, trials=40,
                                alphas=(10.0,), variants=("lap", "exp-opt"))
    assert len(rows) == 2
    for r in rows:
        assert 0.0 <= r["beta_hat"] <= 1.0
        assert r["trials"] == 40


def test_series_traverses_shape():
    rows = cli.emit_plot_series("traverses", dataset="zipf", n_items=300,
                                c=10, variants=("exp-opt",),
                                traverses=(1, 2), repetitions=2)
    assert [r["traverses"] for r in rows] == [1, 2]
    for r in rows:
        assert 0.0 <= r["mean_ncr"] <= 1.0
        assert r["stderr_ncr"] >= 0.0


def test_unknown_series_kind_rejected():
    with pytest.raises(ValueError, match="unknown plot kind"):
        cli.emit_plot_series("histogram")


# --- argv entry point --------------------------------------------------

def test_main_gen_roundtrip(tmp_path):
    out = tmp_path / "zipf.scores"
    assert cli.main(["gen", "--dataset", "zipf", "--n-items", "100",
                     "--out", str(out)]) == 0
    ds = data.read_scores(out)
    assert ds.n_items == 100
    assert ds.threshold == 200.0


def test_main_gen_binary_positive_count(tmp_path):
    out = tmp_path / "binary.scores"
    assert cli.main(["gen", "--dataset", "binary", "--n-items", "80",
                     "--n-positive", "5", "--out", str(out)]) == 0
    ds = data.read_scores(out)
    assert np.count_nonzero(ds.scores > ds.threshold) == 5


def test_main_ingest(tmp_path):
    raw = tmp_path / "basket.dat"
    raw.write_text("1 2\n2 3\n2\n")
    out = tmp_path / "basket.scores"
    assert cli.main(["ingest", "--path", str(raw), "--threshold", "2",
                     "--out", str(out)]) == 0
    ds = data.read_scores(out)
    assert dict(zip(ds.ids.tolist(), ds.scores.tolist())) == {
        1: 1.0, 2: 3.0, 3: 1.0}


def test_main_sweep_stdout(capsys):
    rc = cli.main(["sweep", "--dataset", "zipf", "--n-items", "150",
                   "--variants", "lap", "--eps", "0.5", "--c", "5"])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


SWEEP_ARGV = ["sweep", "--dataset", "zipf", "--n-items", "300",
              "--variants", "exp-opt,lap,upper", "--eps", "0.5,1", "--c", "5",
              "--traverses", "1,2", "--append", "--reps", "2", "--seed", "4"]


def without_timing(text):
    rows = list(csv.reader(text.splitlines()))
    col = rows[0].index("wall_time_ms")
    return [row[:col] + row[col + 1:] for row in rows]


@pytest.mark.parametrize("dash", [False, True])
def test_main_sweep_stdout_matches_out_file(dash, tmp_path, monkeypatch,
                                            capsys):
    out = tmp_path / "rows.csv"
    assert cli.main([*SWEEP_ARGV, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    monkeypatch.chdir(tmp_path)
    assert cli.main(SWEEP_ARGV + ["--out", "-"] * dash) == 0
    printed = capsys.readouterr().out
    assert without_timing(printed) == without_timing(out.read_text())
    assert len(printed.splitlines()) == 1 + 3 * 2 * 2 * 2
    assert not (tmp_path / "-").exists()


def test_main_sweep_aborted_keeps_finished_rows(monkeypatch, capsys):
    run_cell, calls = cli._run_cell, []

    def failing_second_cell(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("cell failed")
        return run_cell(*args)

    monkeypatch.setattr(cli, "_run_cell", failing_second_cell)
    assert cli.main(SWEEP_ARGV) == 1
    captured = capsys.readouterr()
    assert "cell failed" in captured.err
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[1].startswith("zipf,exp-opt,0.5,")


def test_main_sweep_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "dataset": "zipf", "variants": ["lap"], "eps_values": [0.5],
        "c": 5, "n_items": 200, "repetitions": 1, "seed": 3}))
    out = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--reps", "2",
                   "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # the flag overrode the config file
    assert {r["repetition"] for r in rows} == {"0", "1"}


def test_main_correction_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    rc = cli.main(["correction-table", "--eps", "0.5,1", "--c", "10",
                   "--k-est", "50", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["optimal_correction"]) > 0.0


def test_main_plot_series_params(tmp_path):
    out = tmp_path / "series.csv"
    rc = cli.main(["plot-series", "--kind", "variance",
                   "--params", json.dumps({"points": 5}), "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 5 * 4


def test_main_reports_errors(capsys):
    assert cli.main(["sweep", "--eps", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["sweep", "--dataset", "zipf", "--eps", "0.5",
                     "--variants", "warp"]) == 1
    assert "warp" in capsys.readouterr().err


def test_main_rejects_a_correction_grid_beyond_float_range(capsys):
    """At eps 1e-306 the exp-opt query's grid bound overflows: the query is
    refused as it is built, naming its fields, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["correction-table", "--eps", "1e-306"]) == 1
    assert ("error: b, lam and e overflow the grid bound"
            in capsys.readouterr().err)


def test_token_parsers():
    assert cli._floats("0.1, 0.5,") == (0.1, 0.5)
    assert cli._ints("1,2, 10") == (1, 2, 10)
    assert cli._tokens(" lap , gau ") == ("lap", "gau")


def test_config_rejects_empty_traverses():
    with pytest.raises(ValueError):
        small_sweep(traverses=())


def test_run_sweep_dash_output_means_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rows = cli.run_sweep(small_sweep(output="-"))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + len(rows) == 1 + 2 * 2
    assert not (tmp_path / "-").exists()


def test_sweep_over_written_scores_file_matches_generator(tmp_path):
    path = tmp_path / "zipf.scores"
    assert cli.main(["gen", "--dataset", "zipf", "--n-items", "300",
                     "--out", str(path)]) == 0
    from_file = cli.run_sweep(small_sweep(dataset=str(path)))
    assert strip_timing(from_file) == strip_timing(cli.run_sweep(small_sweep()))


def test_main_plot_series_with_no_rows_is_an_error(capsys):
    assert cli.main(["plot-series", "--kind", "accuracy",
                     "--params", json.dumps({"alphas": []})]) == 1
    assert "error: nothing to write" in capsys.readouterr().err


def test_eps_range_ends_where_the_stream_key_overflows():
    top = sys.float_info.max / 1e9
    assert math.isfinite(top * 1e9)
    small_sweep(eps_values=(top,))
    cli.cell_rng(0, top, "lap", 1, 0)
    beyond = math.nextafter(top, INF)
    with pytest.raises(ValueError, match="eps_values"):
        small_sweep(eps_values=(beyond,))
    with pytest.raises(ValueError, match="eps"):
        cli.cell_rng(0, beyond, "lap", 1, 0)


@pytest.mark.parametrize("field, value", [("eps_values", 0.5),
                                          ("variants", "lap"),
                                          ("traverses", 2)])
def test_main_sweep_config_file_scalar_for_a_list(field, value, tmp_path,
                                                  capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"dataset": "zipf", "variants": ["lap"],
                                    "eps_values": [0.5], field: value}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 1
    assert f"error: {field} must be a tuple" in capsys.readouterr().err


@pytest.mark.parametrize("kind, params, message", [
    ("accuracy", {"alphas": 5}, "alphas must be a list or tuple, got 5"),
    ("accuracy", {"variants": "lap"},
     "variants must be a list or tuple, got 'lap'"),
    ("accuracy", {"variants": ["upper"]}, "unknown variants ['upper']"),
    ("traverses", {"variants": "lap"},
     "variants must be a list or tuple, got 'lap'"),
    ("traverses", {"traverses": 3}, "traverses must be a list or tuple, got 3"),
    ("accuracy", {"threshold": 1e11}, "margin=1e-06 rounds away"),
    ("variance", {"bogus": 1}, "unknown variance parameters ['bogus']; "
     "choose from ('c', 'delta', 'monotonic', 'delta_dp', 'eps_min', "
     "'eps_max', 'points')"),
    ("accuracy", [1, 2], "--params must be a JSON object, got [1, 2]"),
])
def test_main_plot_series_rejects_malformed_params(capsys, kind, params,
                                                   message):
    assert cli.main(["plot-series", "--kind", kind,
                     "--params", json.dumps(params)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("content, message", [
    (["lap"], "the file must hold a JSON object, got ['lap']"),
    ("zipf", "the file must hold a JSON object, got 'zipf'"),
    ({"dataset": "zipf", "variants": ["lap"], "eps_values": [0.5],
      "eps": 0.5, "reps": 2},
     "unknown config fields ['eps', 'reps']; choose from ('dataset', "
     "'variants', 'eps_values', "),
])
def test_main_sweep_config_file_errors_name_the_problem(content, message,
                                                        tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(content))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {message}")


GAU_IMPORT = """
import sys
from svtkit import cli
seen = []
run_cell = cli._run_cell

def first_cell(*args):
    seen.append("scipy.special" in sys.modules)
    return run_cell(*args)

cli._run_cell = first_cell
cfg = cli.ExperimentConfig(dataset="zipf", variants=tuple(sys.argv[1:]),
                           eps_values=(0.5,), c=5, n_items=100)
cli.run_sweep(cfg)
print(seen[0])
"""


@pytest.mark.parametrize("variants, loaded", [
    (("lap", "gau"), True), (("gau",), True), (("lap", "exp-opt"), False)])
def test_sweep_imports_the_gaussian_row_before_its_first_cell(variants,
                                                              loaded):
    """A sweep with gau cells imports scipy.special before its first cell,
    so no cell's wall_time_ms carries the import; one without loads none."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", GAU_IMPORT, *variants],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.split() == [str(loaded)]


CELL_KEY = dict(eps=0.5, token="exp-opt", trav=5, c=50, delta=1.0,
                resample=False, append=True, monotonic=False, alpha=0.0,
                k_est=200, n_items=10_000)


def test_cell_config_is_one_object_per_cell_key():
    """Cells of one key share one split and SvtConfig, built as a cell
    builds them; a change to any value of the key gives another config,
    and the upper reference gets the exp-opt split and no config."""
    split, cfg = cli._cell_config(**CELL_KEY)
    assert cli._cell_config(**CELL_KEY)[1] is cfg
    assert split == cli.allocation.split(0.5, Variant.EXP_OPT_CORR, 50)
    assert cfg == SvtConfig(delta=1.0, eps1=split.eps1, eps2=split.eps2, c=50,
                            k_max=50_000, variant=Variant.EXP_OPT_CORR,
                            append=True, max_traverses=5, k_est=200,
                            delta_dp=1e-4)
    changed = dict(eps=0.25, token="exp-mean", trav=2, c=10, delta=2.0,
                   resample=True, append=False, monotonic=True, alpha=1.0,
                   k_est=7, n_items=500)
    for name, value in changed.items():
        assert cli._cell_config(**dict(CELL_KEY, **{name: value}))[1] != cfg
    assert cli._cell_config(**dict(CELL_KEY, token="upper")) == (split, None)
