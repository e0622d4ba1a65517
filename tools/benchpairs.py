"""Run the benchmark on two checkouts in alternating pairs and apply the gain rule.

    python3 tools/benchpairs.py A B --workload low5-long --pairs 10 --seed 81

A is the parent, B the change. Each pair runs `bench/run.py --workload W
--seed S --seconds <run_seconds> --trace 0` once in each checkout, A first in
odd pairs and B first in even ones; every run uses the same seed. The run
length and the end-to-end metrics, with the direction that counts as better,
are read from `BENCHMARK.json` next to this script. Each checkout's `bench/`
is only run, never written; the launcher keeps its scratch files under the
checkout's `.bench_out/`.

For every end-to-end metric the script prints each side's median and
quartiles, how many pairs B won, and whether the gain rule holds: at least ten
pairs, B better in at least nine tenths of them (ties count for neither), and
the medians apart by more than the distance between A's quartiles, in B's
favour. It also prints the no-regression verdict against the metric's relative
`bound`: `worse beyond bound` when B's median is worse than A's by more than
the bound times A's median, `unresolved` when either side's interquartile range
exceeds the bound times its median and not every B run beats every A run, and
`within bound` otherwise. It exits 1 if any run is not `correct` or gives no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def gain_rule(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("the rule needs the same nonzero number of runs on both sides")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    a, b = quartiles(parent), quartiles(change)
    spread = a[2] - a[0]
    holds = (
        len(parent) >= MIN_PAIRS
        and wins >= MIN_WIN_SHARE * len(parent)
        and sign * (a[1] - b[1]) > spread
    )
    return {"pairs": len(parent), "wins": wins, "parent": a, "change": b, "spread": spread, "holds": holds}


def bound_check(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression verdict on one metric whose relative ``bound`` B may not exceed."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = quartiles(parent), quartiles(change)
    spread_too_wide = any(q3 - q1 > bound * abs(median) for q1, median, q3 in (a, b))
    if spread_too_wide and not all(sign * (x - y) > 0 for x in parent for y in change):
        return "unresolved"
    return "worse beyond bound" if sign * (b[1] - a[1]) > bound * abs(a[1]) else "within bound"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in ``checkout``; its JSON result, or None when there is none."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT", help="parent, then change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"default {MIN_PAIRS}")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values: list[dict[str, list[float]]] = [{name: [] for name in metrics} for _ in range(2)]
    ok = True
    for pair in range(args.pairs):
        results: list[dict | None] = [None, None]
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            checkout = args.checkouts[side]
            results[side] = run_once(checkout, args.workload, args.seed, spec["run_seconds"])
            if results[side] is None or not results[side].get("correct"):
                print(f"pair {pair + 1}: run in {checkout} is not correct", file=sys.stderr)
        if not all(result and result.get("correct") for result in results):
            ok = False  # a pair counts only when both of its runs are correct
            continue
        for side, result in enumerate(results):
            for name, got in result["metrics"].items():
                if name in metrics:
                    values[side][name].append(got["value"])
        print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr)

    a, b = args.checkouts
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs; A = {a}, B = {b}")
    for name, metric in metrics.items():
        parent, change = values[0][name], values[1][name]
        if not parent or len(parent) != len(change):
            print(f"{name}: {len(parent)} A and {len(change)} B values, not compared")
            continue
        r = gain_rule(parent, change, metric["better"])
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"A {r['parent'][1]:.6g} [{r['parent'][0]:.6g}, {r['parent'][2]:.6g}] -> "
            f"B {r['change'][1]:.6g} [{r['change'][0]:.6g}, {r['change'][2]:.6g}]; "
            f"B wins {r['wins']} of {r['pairs']}; A IQR {r['spread']:.6g}; "
            f"gain rule {'holds' if r['holds'] else 'does not hold'}; "
            f"bound {metric['bound']:g}: {bound_check(parent, change, metric['better'], metric['bound'])}"
        )
        print(f"  A {' '.join(f'{v:.6g}' for v in parent)}")
        print(f"  B {' '.join(f'{v:.6g}' for v in change)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
