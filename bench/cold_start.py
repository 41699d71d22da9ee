"""Cold start of svtkit: the wall time of fresh processes, start to exit.

Times three commands, each in a new interpreter with svtkit imported from
``--src``: ``import svtkit``, ``svtkit gen`` of the default zipf dataset,
and a default-sized zipf sweep of the lap and exp-mean variants at eps 0.5.
Prints the median over RUNS processes per command, with the quartiles,
after one unmeasured warm-up run of each. Standard library only; numpy
and scipy come from the interpreter's environment.

    python3 bench/cold_start.py
    python3 bench/cold_start.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLI = ("-m", "svtkit.cli")
RUNS = 11


def commands(out_dir: Path) -> dict[str, tuple[str, ...]]:
    return {
        "import svtkit": ("-c", "import svtkit"),
        "svtkit gen": CLI + ("gen", "--dataset", "zipf",
                             "--out", str(out_dir / "zipf.csv")),
        "svtkit sweep lap,exp-mean": CLI + (
            "sweep", "--dataset", "zipf", "--variants", "lap,exp-mean",
            "--eps", "0.5", "--out", str(out_dir / "sweep.csv")),
    }


def timed(args: tuple[str, ...], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run((sys.executable,) + args, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="directory holding the svtkit package")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": args.src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    print(f"python {sys.version.split()[0]}, svtkit from {args.src}, "
          f"{RUNS} runs per command")
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in commands(Path(tmp)).items():
            timed(cmd, env)  # warm the file cache
            seconds = [timed(cmd, env) for _ in range(RUNS)]
            q1, median, q3 = statistics.quantiles(seconds, n=4)
            print(f"{name:<28} median {median:.3f} s "
                  f"(quartiles {q1:.3f}-{q3:.3f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
