"""Run one benchmark workload in this process and print its result.

`run.py` starts this file after pinning the thread pools and writing the
workload's inputs into a work directory. The last line printed is the JSON
result; the lines before it name every metric with its unit and report the
output checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

import dpstream as dp  # run.py puts the checkout's src/ on the path
from dpstream.harness import ExperimentConfig, validate_config

import stats
from machine import ScaledClock
from tracing import BOUNDARIES, COUNTS, Tracer
from workloads import K, K_WAY, TAIL_WINDOW, WORKLOADS, Inputs, Workload, derive_seeds, smoke

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = {False: 7, True: 100}  # keyed by Workload.grid; grid set-up is under 1 ms
MAX_CYCLES = 20

# Timed regions use this thread's CPU clock, scaled to a reference machine
# speed (see machine.py). The benchmark is single-threaded and does no
# blocking I/O inside them, so on a dedicated core the CPU clock equals wall
# time; on a shared VM it leaves out the time the host took the vCPU away,
# which otherwise swings release tails by 10-25% between runs.
clock = ScaledClock()


def fastest(repetitions: list[list[float]]) -> list[float]:
    """Per-step minimum over repetitions of one stream.

    Cycles replay the same seeds, so the n-th release of a stream does the
    same work in every cycle, and cycles lie seconds apart, so the fastest
    repetition of each step is the one least slowed by what the scaling
    leaves of the host's load.
    """
    n = min(len(r) for r in repetitions)
    return np.min([r[:n] for r in repetitions], axis=0).tolist()


class Run:
    """Samples, counts and failed checks gathered by one benchmark process."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        # Both keyed by stream (pass or triple); one entry per untraced cycle.
        self.release_s: dict[object, list[list[float]]] = defaultdict(list)
        self.run_s: dict[bool, dict[object, list[float]]] = {False: defaultdict(list), True: defaultdict(list)}
        self.mass_excess: list[float] = []
        self.accuracy: dict[str, float] = {}

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)

    def check_release(self, released: dp.WeightedDataset, where: str) -> None:
        w = released.weights
        if not (np.isfinite(w).all() and (w >= 0).all()):
            self.problem(f"{where}: negative or non-finite synthetic weight")


def audit_ledger(ledger: dp.BudgetLedger, epsilon: Fraction, steps: int, where: str) -> list[str]:
    """Every step spends exactly epsilon: half on selection, half on measurement."""
    half = epsilon / 2
    totals: dict[object, Fraction] = defaultdict(Fraction)
    selection: dict[object, Fraction] = defaultdict(Fraction)
    measurement: dict[object, Fraction] = defaultdict(Fraction)
    for entry in ledger.entries:
        totals[entry.group] += entry.epsilon
        if entry.category == "selection":
            selection[entry.group] += entry.epsilon
        elif entry.category in ("counter", "measurement"):
            measurement[entry.group] += entry.epsilon
    problems = []
    if len(totals) != steps:
        problems.append(f"{where}: ledger has {len(totals)} spending steps, expected {steps}")
    bad = [g for g in totals if (totals[g], selection[g], measurement[g]) != (epsilon, half, half)]
    groups = list(totals)
    for g in groups[:1] + groups[-1:]:  # the ledger's own sums must agree
        if (ledger.group_total(g), ledger.category_total(g, "selection")) != (epsilon, half):
            bad.append(g)
    if bad:
        problems.append(
            f"{where}: steps {sorted(set(map(str, bad)))[:3]} do not spend "
            f"{epsilon} as {half} selection + {half} measurement"
        )
    return problems


def tail_means(rows: list) -> tuple[float, float]:
    window = rows[-TAIL_WINDOW:]
    return (
        statistics.fmean(r.avg_we for r in window),
        statistics.fmean(r.max_we for r in window),
    )


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# -- step-driven workloads -------------------------------------------------


class StepWorkload:
    """Feeds streams to synthesizers built through the public API, one step at a time."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int, run: Run):
        self.workload = workload
        self.inputs = inputs
        self.seeds = derive_seeds(seed, workload.passes)
        self.run = run

    def load(self) -> None:
        self.schema, values = dp.load_schema(self.inputs.schema)
        self.rows = dp.ingest_csv(self.inputs.dataset, self.schema, values)
        self.queries = dp.enumerate_workloads(self.schema, K_WAY)

    def stream(self, i: int) -> dp.DatasetStream:
        w = self.workload
        spec = dp.StreamSpec(
            variant="randomized_batch", batch_size=w.batch, seed=self.seeds.streams[i], max_steps=w.steps
        )
        return dp.build_stream(self.rows, spec, self.schema)

    def synthesizer(self, algorithm: str, run_seed: int):
        config = dp.RunConfig(
            epsilon=self.workload.epsilon,
            k=K,
            workloads=self.queries,
            counter_kind=self.workload.counter,
            seed=run_seed,
            seed_support_size=self.workload.seed_support,
        )
        return dp.make_synthesizer(algorithm, config)

    def setup(self) -> float:
        """CSV on disk to a synthesizer ready for step 1."""
        clock.checkpoint()
        start = clock()
        self.load()
        self.stream(0)
        self.synthesizer("main", self.seeds.runs[0])
        return clock() - start

    def feed(self, synth, stream: dp.DatasetStream, timed: bool, where: str) -> tuple[list, str, list] | None:
        """Run the whole stream through one synthesizer, evaluating against the true prefix.

        A timed pass evaluates every step; an untimed one only the tail window.
        Returns the metric rows, a fingerprint of the releases and every release
        latency, or None if a step raised.
        """
        run = self.run
        steps = stream.num_steps
        run.attempted += steps
        true = dp.WeightedDataset.empty(stream.schema)
        rows = []
        released = None
        done = 0
        latencies: list[float] = []
        try:
            for t, delta in enumerate(stream.differentials, start=1):
                t0 = clock()
                released = synth.step(delta)
                latencies.append(clock() - t0)
                done = t
                true = dp.accumulate(true, delta)
                if timed or t > steps - TAIL_WINDOW:
                    aggregate, _ = dp.evaluate_step(self.queries, true, released)
                    rows.append(aggregate)
                run.check_release(released, f"{where} step {t}")
                clock.checkpoint()
        except Exception as exc:  # a failing step is counted, not fatal to the benchmark
            run.failed += steps - done
            run.problem(f"{where} step {done + 1}: {type(exc).__name__}: {exc}")
            return None
        run.problems.extend(audit_ledger(synth.ledger, self.workload.epsilon, steps, where))
        if synth.algorithm == "main":
            true_mass = true.total_mass()
            run.mass_excess.append((released.total_mass() - true_mass) / true_mass)
        return rows, digest(repr(rows).encode(), released.points.tobytes(), released.weights.tobytes()), latencies

    def cycle(self, tracer: Tracer | None) -> str:
        """One main pass per (stream, run seed) pair; returns a fingerprint of every release."""
        with tracer or nullcontext():
            if tracer:
                self.load()  # so the trace sees the harness layer
            prints = []
            accuracy = []
            for i, run_seed in enumerate(self.seeds.runs):
                if tracer:
                    tracer.run_id = i
                stream = self.stream(i)
                synth = self.synthesizer("main", run_seed)
                start = clock()
                fed = self.feed(synth, stream, timed=True, where=f"main seed {run_seed}")
                elapsed = clock() - start
                if fed is None:
                    prints.append("failed")
                    continue
                self.run.run_s[tracer is not None][i].append(elapsed)
                if tracer is None:
                    self.run.release_s[i].append(fed[2])
                accuracy.append(tail_means(fed[0]))
                prints.append(fed[1])
        if accuracy and "avg_we_tail" not in self.run.accuracy:
            self.run.accuracy["avg_we_tail"] = statistics.median(a for a, _ in accuracy)
            self.run.accuracy["max_we_tail"] = statistics.median(m for _, m in accuracy)
        return digest(*(p.encode() for p in prints))

    def reference(self) -> None:
        """Baseline over the first pass's stream and run seed, for its tail accuracy."""
        synth = self.synthesizer("baseline", self.seeds.runs[0])
        fed = self.feed(synth, self.stream(0), timed=False, where=f"baseline seed {self.seeds.runs[0]}")
        if fed is not None:
            self.run.accuracy["baseline_avg_we_tail"] = tail_means(fed[0])[0]


# -- the experiment grid -----------------------------------------------------


class ReleaseTimer:
    """Times `step` on every synthesizer `run_experiment` builds.

    Rebinds `dpstream.harness.make_synthesizer`, the name `run_triple` looks
    up, and puts it back on exit.
    """

    def __init__(self, run: Run):
        self.run = run
        self.streams: list[dict] = []  # in creation order, which jobs=1 fixes

    def __enter__(self) -> "ReleaseTimer":
        harness = dp.harness
        self._original = original = harness.make_synthesizer
        run, streams = self.run, self.streams

        def make(algorithm, config):
            synth = original(algorithm, config)
            step = synth.step
            latencies: list[float] = []
            record = {"algorithm": algorithm, "in": 0.0, "out": 0.0, "latencies": latencies}
            streams.append(record)

            def timed(delta):
                t0 = clock()
                released = step(delta)
                latencies.append(clock() - t0)
                record["in"] += delta.total_mass()
                record["out"] = released.total_mass()
                run.check_release(released, f"{algorithm} seed {config.seed}")
                clock.checkpoint()  # inside run_s, which leaves calibrations out
                return released

            synth.step = timed
            return synth

        harness.make_synthesizer = make
        return self

    def __exit__(self, *exc: object) -> None:
        dp.harness.make_synthesizer = self._original


class GridWorkload:
    """The acceptance-09 grid through `run_experiment`, read back from its files."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int, run: Run, work: Path):
        self.workload = workload
        self.seeds = derive_seeds(seed, workload.passes)
        self.run = run
        self.work = work
        self.config_path = work / "grid.json"
        self.config_path.write_text(json.dumps({
            "dataset": str(inputs.dataset),
            "schema": str(inputs.schema),
            "stream": {
                "variant": "randomized_batch",
                "batch_size": workload.batch,
                "seed": self.seeds.streams[0],
                "max_steps": workload.steps,
            },
            "output_dir": str(work / "grid"),
            "k_way": K_WAY,
            "algorithms": ["baseline", "main"],
            "epsilons": [str(workload.epsilon)],
            "k": K,
            "counter": workload.counter,
            "fitter": {"name": "mw", "seed_support_size": workload.seed_support},
            "seeds": list(self.seeds.runs),
            "noise": "laplace",
        }, indent=2))
        self.cycles = 0

    def setup(self) -> float:
        """Config parse plus validation; ingest happens inside each triple."""
        clock.checkpoint()
        start = clock()
        config = ExperimentConfig.from_json(self.config_path)
        problems = validate_config(config)
        elapsed = clock() - start
        for p in problems:
            self.run.problem(f"validate_config: {p}")
        self.config = config
        return elapsed

    def cycle(self, tracer: Tracer | None) -> str:
        run, config = self.run, self.config
        config.output_dir = str(self.work / f"grid-{self.cycles}")
        self.cycles += 1
        with tracer or nullcontext(), ReleaseTimer(run) as timer:
            start = clock()
            results = dp.run_experiment(config, jobs=1)
            elapsed = clock() - start
        run.attempted += len(results)
        for r in results:
            if not r["ok"]:
                run.failed += 1
                run.problem(f"triple {r['algorithm']} seed {r['seed']}: {r['error']}")
        if run.failed:
            return "failed"
        run.run_s[tracer is not None]["grid"].append(elapsed)
        if tracer is None:
            for i, s in enumerate(timer.streams):
                run.release_s[i].append(s["latencies"])
        run.mass_excess.extend(
            (s["out"] - s["in"]) / s["in"] for s in timer.streams if s["algorithm"] == "main"
        )
        fingerprint = self.read_back(config)
        shutil.rmtree(config.output_dir, ignore_errors=True)
        return fingerprint

    def read_back(self, config: ExperimentConfig) -> str:
        """Check every triple's files and take the accuracy from the first cycle's."""
        run = self.run
        tails: dict[str, list[tuple[float, float]]] = defaultdict(list)
        parts = []
        for algorithm, epsilon, seed in config.triples():
            where = f"{algorithm} seed {seed}"
            run_dir = config.run_dir(Path(config.output_dir), algorithm, epsilon, seed)
            metrics_text = (run_dir / "metrics.csv").read_text(encoding="utf-8")
            summary_text = (run_dir / "summary.json").read_text(encoding="utf-8")
            parts += [metrics_text.encode(), summary_text.encode()]
            values = [float(v) for row in list(csv.reader(metrics_text.splitlines()))[1:] for v in row]
            summary = json.loads(summary_text)
            if not all(math.isfinite(v) for v in values + [summary["AvgWE"], summary["MaxWE"]]):
                run.problem(f"{where}: non-finite metric in metrics.csv or summary.json")
            meta = json.loads((run_dir / "meta.json").read_text(encoding="utf-8"))
            ledger = meta["ledger"]
            if (
                ledger["per_step_totals"] != [str(epsilon)]
                or ledger["selection_per_step"] != [str(epsilon / 2)]
                or ledger["measurement_per_step"] != [str(epsilon / 2)]
                or ledger["spent_steps"] != meta["steps"]
            ):
                run.problem(f"{where}: meta.json ledger does not spend {epsilon} per step as two halves")
            tails[algorithm].append((summary["AvgWE"], summary["MaxWE"]))
        if "avg_we_tail" not in run.accuracy:
            main = statistics.median(a for a, _ in tails["main"])
            baseline = statistics.median(a for a, _ in tails["baseline"])
            run.accuracy.update(
                avg_we_tail=main,
                max_we_tail=statistics.median(m for _, m in tails["main"]),
                baseline_avg_we_tail=baseline,
            )
            if not main < baseline:
                run.problem(f"main median AvgWE {main:.4f} is not below baseline {baseline:.4f}")
        return digest(*parts)

    def reference(self) -> None:
        """The baseline runs inside the grid."""


# -- measuring -----------------------------------------------------------------


def measure(runner, seconds: float, trace: bool, tracer: Tracer, reps: int) -> list[str]:
    """Run `reps` cycles, then more while the next one would finish within `seconds`.

    In trace mode every second cycle is traced, and two cycles are enough.
    """
    fingerprints = []
    start = time.perf_counter()
    while True:
        traced = trace and len(fingerprints) % 2 == 1
        clock.frozen = traced  # no calibration inside traced spans
        t0 = time.perf_counter()
        fingerprints.append(runner.cycle(tracer if traced else None))
        last = time.perf_counter() - t0
        enough = len(fingerprints) >= (2 if trace else reps)
        if len(fingerprints) >= MAX_CYCLES or (enough and time.perf_counter() - start + last > seconds):
            return fingerprints


def layer_metrics(run: Run, tracer: Tracer) -> dict[str, tuple[float, str]]:
    table = tracer.summary()
    out: dict[str, tuple[float, str]] = {}
    for name in BOUNDARIES:
        row = table[name]
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    for name, value in tracer.count_metrics().items():
        out[name] = (value, COUNTS[name])
    overhead = best_run_s(run, traced=True) / best_run_s(run, traced=False)
    out["trace.overhead"] = (overhead, "ratio")
    out["algorithms.mass_excess"] = (statistics.median(run.mass_excess), "ratio")
    return out


def best_run_s(run: Run, traced: bool) -> float:
    """Median over passes (the grid on `low5-grid`) of the fastest cycle's time."""
    return statistics.median(min(times) for times in run.run_s[traced].values())


def end_to_end_metrics(run: Run, setup: list[float]) -> tuple[dict[str, tuple[float, str]], str]:
    streams = [[s * 1000.0 for s in fastest(reps)] for reps in run.release_s.values()]
    streams = [s for s in streams if s]
    tail_ms, tails = stats.stream_tail(streams)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (best_run_s(run, traced=False), "s"),
        "release_ms_p50": (statistics.median(ms for stream in streams for ms in stream), "ms"),
        "release_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "avg_we_tail": (run.accuracy["avg_we_tail"], "fraction"),
        "max_we_tail": (run.accuracy["max_we_tail"], "fraction"),
        "baseline_avg_we_tail": (run.accuracy["baseline_avg_we_tail"], "fraction"),
    }
    levels = "/".join(sorted({f"p{t.level:g}" for t in tails}))
    sizes = "/".join(sorted({str(t.samples) for t in tails}))
    note = (f"{levels} within each of {len(tails)} stream groups ({sizes} releases each, "
            f"at least {min(t.beyond for t in tails)} beyond it), median across groups")
    return out, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    origin = Path(dp.__file__).resolve().parent
    if origin != ROOT / "src" / "dpstream":
        print(f"dpstream imported from {origin}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    inputs = Inputs.at(args.work)
    run = Run()
    runner = (
        GridWorkload(workload, inputs, args.seed, run, args.work)
        if workload.grid
        else StepWorkload(workload, inputs, args.seed, run)
    )
    setup = [runner.setup() for _ in range(SETUP_REPS[workload.grid])]
    tracer = Tracer()
    fingerprints = measure(runner, args.seconds, bool(args.trace), tracer, workload.reps)
    if len(set(fingerprints)) != 1:
        run.problem("repeated cycles with the same seeds released different outputs")
    if not args.trace:
        runner.reference()

    metrics: dict[str, tuple[float, str]] = {}
    lines = []
    try:
        if args.trace:
            metrics = layer_metrics(run, tracer)
            tracer.write(args.spans)
            lines.append(f"spans: {len(tracer.spans)} written to {args.spans.name}")
        else:
            metrics, note = end_to_end_metrics(run, setup)
            lines.append(f"release_ms_tail is the {note}")
            lines.append(clock.summary())
    except (KeyError, ValueError, statistics.StatisticsError) as exc:
        run.problem(f"metrics unavailable: {type(exc).__name__}: {exc}")
    excess = statistics.median(run.mass_excess) if run.mass_excess else math.nan
    lines.append(f"mass_excess {excess:.6g} ratio (reported, not checked)")
    lines.append(f"failed_share {run.failed / max(run.attempted, 1):.6g} ratio "
                 f"({run.failed} of {run.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            run.problem(f"metric {name} is not finite")
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    for line in lines:
        print(line)
    for p in run.problems:
        print(f"check failed: {p}")
    correct = not run.problems and run.failed == 0 and bool(metrics)
    print("checks: " + ("all passed" if correct else f"{len(run.problems)} failed"))
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
