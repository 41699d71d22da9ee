"""svtkit benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports svtkit from that checkout's
src/ and exits non-zero, printing no result, when there is none. Each
workload runs single-threaded in a child process of its own (child.py),
after a few setup-only processes, so that setup_s is a median of
fresh-process set-ups. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in turn; ``--out FILE`` appends
each run's full record (checks, environment, sample counts) to FILE for
compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep", "mc-accuracy", "correction-cold", "sweep-1e6")
# Setup-only processes per run; setup_s is the median over them and the
# measured process. sweep-1e6 takes about 5 s to set up, the others 1-2 s.
SETUP_PROBES = {"sweep-1e6": 1}
DEFAULT_SETUP_PROBES = 2
RUN_LIMIT_S = 170.0   # children still running this long after the start are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

# What one operation is on each workload, and the name the workload's own
# vocabulary gives each generic end-to-end metric.
OPS = {
    "sweep": ("sweep cell", "cells_per_s", "cell_ms"),
    "sweep-1e6": ("sweep cell", "cells_per_s", "cell_ms"),
    "mc-accuracy": ("Monte-Carlo trial", "trials_per_s", "trial_ms"),
    "correction-cold": ("cold optimal_correction call", "corrections_per_s",
                        "correction_ms"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run child.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--src", str(SRC),
           "--out-dir", str(OUT)]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} exceeded the run time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args[:2]} printed no result")
    return json.loads(lines[-1])


def big_scores_path() -> Path:
    """The 10^6-item scores file, keyed by the data module that writes it."""
    key = hashlib.sha256((SRC / "svtkit" / "data.py").read_bytes()).hexdigest()
    return OUT / f"zipf-1000000-{key[:12]}.scores"


def cache_sizes() -> dict:
    """Unified cache sizes by level, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def size_bytes(text: str) -> int:
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def environment(versions: dict, working_set: int) -> dict:
    caches = cache_sizes()
    l3 = size_bytes(caches["L3"]) if "L3" in caches else None
    return {
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "pinned": {var: "1" for var in THREAD_VARS},
        "working_set_bytes_computed": working_set,
        "working_set_over_l3_computed": working_set / l3 if l3 else None,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    base = ["--workload", name]
    if name == "sweep-1e6":
        scores = big_scores_path()
        if not scores.exists():
            spawn(base + ["--prepare", "--scores", str(scores)], deadline)
        base += ["--scores", str(scores)]
    probes = [spawn(base + ["--setup-only"], deadline)
              for _ in range(SETUP_PROBES.get(name, DEFAULT_SETUP_PROBES))]
    main = spawn(base + ["--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(int(trace))], deadline)
    setups = probes + [main]

    def stage(key: str) -> float:
        return statistics.median(s["stages"][key] for s in setups
                                 if key in s["stages"])

    if trace:
        values = {"setup.import_s": stage("import_s"),
                  "data.load_s": stage("load_s"),
                  "metrics.truth_s": stage("truth_s"), **main["per_layer"]}
        declared = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": main["peak_rss_mb"], **main["e2e"]}
        declared = spec["end_to_end"]
    missing = {m["name"] for m in declared} - values.keys()
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    checks = main["checks"]
    correct = (main["failed"] == 0 and main["attempted"] > 0
               and all(c.get("pass", True) for c in checks.values()))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": correct, "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "checks": checks,
        "op": OPS[name][0], "ops": main["ops"], "op_samples": main["op_samples"],
        "setup_runs_s": [s["setup_s"] for s in setups],
        "raw": {**main["raw"], "setup_s": statistics.median(
            s["raw"]["setup_s"] for s in setups)},
        "errors": main["errors"],
        "trace_file": main.get("trace_file"),
        "env": environment(main["versions"], main["working_set_bytes"]),
    }


def report(rec: dict) -> None:
    op, rate_alias, time_alias = OPS[rec["workload"]]
    aliases = {"ops_per_s": rate_alias, "op_ms_p50": f"{time_alias}_p50",
               "op_ms_p90": f"{time_alias}_p90"}
    print(f"{rec['workload']} seed={rec['seed']} seconds={rec['seconds']} "
          f"trace={rec['trace']}: {rec['ops']} ops ({op}), "
          f"{rec['op_samples']} timed samples")
    for name, m in rec["metrics"].items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"  {label:<36} {m['value']:>14.6g} {m['unit']}")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  ops_failed_frac {frac:g} ({rec['failed']} of {rec['attempted']})")
    for name, c in rec["checks"].items():
        verdict = "pass" if c["failed"] == 0 and c.get("pass", True) else "FAIL"
        print(f"  check {name}: {verdict} {c['detail']}")
    env = rec["env"]
    print(f"  env python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} nproc={env['nproc']} caches={env['caches']} "
          f"working set {env['working_set_bytes_computed']} B (computed), "
          f"{env['working_set_over_l3_computed']:.3g} of L3")
    if rec["trace_file"]:
        print(f"  spans written to {rec['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's full record here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "svtkit" / "__init__.py").is_file():
        print(f"error: no svtkit sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(spec, n, args.seed, args.seconds,
                                bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
    result = {"correct": all(r["correct"] for r in records),
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records)}
    if len(records) == 1:
        result["metrics"] = records[0]["metrics"]
    else:
        result["metrics"] = {r["workload"]: r["metrics"] for r in records}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
