"""Benchmark launcher: one workload, one seed, one process.

    python3 bench/run.py --workload census13-main --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Pins BLAS/OpenMP thread pools to one
thread, draws the workload's inputs from the seed, then runs the workload
in a fresh process (`worker.py`) against the checkout's own `src/`. The last
line of output is the JSON result; the exit code is nonzero if the program
is missing, a check fails or a step fails. `--trace 1` reports per-layer
metrics instead of end-to-end ones and writes the spans under `.bench_out/`.
"""

from __future__ import annotations

import os

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _name in PINNED:  # before numpy is imported, here and in the worker
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 170


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, derive_seeds, smoke, write_inputs

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (SRC / "dpstream" / "__init__.py").is_file():
        print(f"no dpstream sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    seeds = derive_seeds(args.seed, workload.passes)
    work = OUT / f"work-{os.getpid()}"
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    try:
        write_inputs(work, workload, seeds)
        print("env " + json.dumps({
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": git_sha(),
            "workload": args.workload,
            "seed": args.seed,
            "derived_seeds": {"pick": seeds.pick, "streams": list(seeds.streams), "runs": list(seeds.runs)},
            "threads": {name: os.environ[name] for name in PINNED},
        }), flush=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        command = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work), "--spans", str(spans),
        ] + (["--smoke"] if args.smoke else [])
        try:
            return subprocess.run(command, env=env, timeout=WORKER_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
