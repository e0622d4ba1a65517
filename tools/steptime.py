"""Time the synthesizer steps of two checkouts side by side on the same streams.

    python3 tools/steptime.py A B --workload census13-main [--algorithm main|baseline] [--reps N] [--seed S]

Each checkout's `src/dpstream` is imported under its own package name
(`dpstream_a`, `dpstream_b`) into this one process. The scenario (schema
width, batch size, steps, counter, epsilon, seed support, rows and the number
of passes) is read from `bench/workloads.py` next to this script, and its
inputs are drawn as the benchmark draws them from the workload seed `--seed`.
Both checkouts then step their own synthesizer over the same differentials,
one step of each in turn, alternating which of the two goes first. After each
step, each side also adds the differential to its true prefix (`accumulate`)
and scores its release against it (`evaluate_step` over the 2-way workloads):
the work the benchmark's `run_s` adds to a step. A rep runs every pass;
`--reps` reps run with fresh synthesizers and fresh differentials, and each
step's step, `accumulate` and `evaluate_step` times are their fastest over the
reps (`time.perf_counter`, single-threaded).

Before stepping a pass, each side builds its differentials with its own
`build_stream`, alternating which goes first; if the two differ in any step's
points or weight bits, or in their number, the first pass and step that differ
are printed and the script exits 1 without stepping.

Each side then builds its synthesizer (the workload cover and the support
sample), timed, again alternating which goes first.

Printed: the median over all steps of each of the three fastest times for A
and for B, B's change against A for each, each side's median `build_stream`
time and median synthesizer construction time over every pass and rep, each
with B's change against A, and the first pass and step whose releases
differ in their points or weight bits, whose metric aggregates differ in any
bit, or whose ledger entries (each entry's `LEDGER_FIELDS`) or
`last_selected` differ, if any (exit status 1 then).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import statistics
import struct
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("step", "accumulate", "evaluate_step")
LEDGER_FIELDS = ("label", "group", "category", "numerator", "divisor", "epsilon")


def load_module(name: str, path: Path, package: bool = False):
    """Import ``path`` (a package's directory, or one file) as module ``name``."""
    location = path / "__init__.py" if package else path
    search = [str(path)] if package else None
    spec = importlib.util.spec_from_file_location(name, location, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def write_inputs(bench, package, work: Path, workload, seeds):
    """The benchmark's ``write_inputs``, its ``dpstream.surrogate`` import served by ``package``."""
    names = ("dpstream", "dpstream.surrogate")
    saved = {name: sys.modules.get(name) for name in names}
    sys.modules["dpstream"] = package
    sys.modules["dpstream.surrogate"] = importlib.import_module(f"{package.__name__}.surrogate")
    try:
        return bench.write_inputs(work, workload, seeds)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


class Side:
    """One checkout's package with the scenario's rows and workloads loaded."""

    def __init__(self, package, bench, workload, inputs):
        self.dp, self.bench, self.workload = package, bench, workload
        self.schema, values = package.load_schema(inputs.schema)
        self.rows = package.ingest_csv(inputs.dataset, self.schema, values)
        self.queries = package.enumerate_workloads(self.schema, bench.K_WAY)

    def deltas(self, stream_seed: int) -> list:
        w = self.workload
        spec = self.dp.StreamSpec(
            variant="randomized_batch", batch_size=w.batch, seed=stream_seed, max_steps=w.steps
        )
        return list(self.dp.build_stream(self.rows, spec, self.schema).differentials)

    def synthesizer(self, algorithm: str, run_seed: int):
        config = self.dp.RunConfig(
            epsilon=self.workload.epsilon,
            k=self.bench.K,
            workloads=self.queries,
            counter_kind=self.workload.counter,
            seed=run_seed,
            seed_support_size=self.workload.seed_support,
        )
        return self.dp.make_synthesizer(algorithm, config)


def same_dataset(a, b) -> bool:
    return (
        a.points.tobytes() == b.points.tobytes() and a.weights.tobytes() == b.weights.tobytes()
    )


def first_differing_step(a: list, b: list) -> int | None:
    """The first step (from 1) at which two differential lists differ in points or weight
    bits, or at which only one of them has a step; None when they agree."""
    for t, (x, y) in enumerate(itertools.zip_longest(a, b), start=1):
        if x is None or y is None or not same_dataset(x, y):
            return t
    return None


def same_metrics(a, b) -> bool:
    """Whether two ``evaluate_step`` results agree in every bit."""
    (agg_a, excluded_a), (agg_b, excluded_b) = a, b
    return excluded_a == excluded_b and struct.pack("4d", *agg_a) == struct.pack("4d", *agg_b)


def same_ledger(a, b, since: tuple[int, int] = (0, 0)) -> bool:
    """Whether two synthesizers agree in ``last_selected`` and in the ``LEDGER_FIELDS`` of every
    ledger entry from index ``since[0]`` of ``a``'s entries and ``since[1]`` of ``b``'s on."""
    def fields(synth, start: int) -> list[tuple]:
        return [tuple(getattr(e, name) for name in LEDGER_FIELDS) for e in synth.ledger.entries[start:]]

    return list(a.last_selected) == list(b.last_selected) and fields(a, since[0]) == fields(b, since[1])


def change(medians: list[float]) -> str:
    return f"{100 * (medians[1] / medians[0] - 1):+.1f}%"


def median_line(what: str, times: list[list[float]]) -> str:
    """The line of each side's median of ``times`` (per side, in seconds, shown in ms) for
    ``what``, and B's change against A."""
    medians = [statistics.median(side) * 1e3 for side in times]
    return f"median {what}: A {medians[0]:.3f} ms, B {medians[1]:.3f} ms, B against A {change(medians)}"


def report(checkouts: list[Path], fastest: dict[str, list[list[float]]]) -> list[str]:
    """A line per checkout with the median of each phase's per-step fastest times (given in
    seconds, shown in ms), then a line with B's change against A in each phase."""
    medians = {phase: [statistics.median(times) * 1e3 for times in sides] for phase, sides in fastest.items()}
    lines = [
        f"{mark} {checkout}: " + ", ".join(f"median {phase} {m[side]:.3f} ms" for phase, m in medians.items())
        for side, (mark, checkout) in enumerate(zip("AB", checkouts))
    ]
    lines.append("B against A: " + ", ".join(f"{phase} {change(m)}" for phase, m in medians.items()))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT", help="repositories A and B")
    parser.add_argument("--workload", required=True, help="a workload name from bench/workloads.py")
    parser.add_argument("--algorithm", choices=("main", "baseline"), default="main")
    parser.add_argument("--reps", type=int, default=5, help="fresh runs of every pass (default 5)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    bench = load_module("bench_workloads", ROOT / "bench" / "workloads.py")
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    seeds = bench.derive_seeds(args.seed, workload.passes)
    packages = [
        load_module(f"dpstream_{mark}", checkout.resolve() / "src" / "dpstream", package=True)
        for mark, checkout in zip("ab", args.checkouts)
    ]
    with tempfile.TemporaryDirectory(prefix="dpstream-steptime-") as tmp:
        inputs = write_inputs(bench, packages[0], Path(tmp), workload, seeds)
        sides = [Side(package, bench, workload, inputs) for package in packages]

    # per phase, then per side, one entry per (pass, step)
    fastest: dict[str, list[list[float]]] = {phase: [[], []] for phase in PHASES}
    builds: list[list[float]] = [[], []]  # per side, every build_stream time
    constructions: list[list[float]] = [[], []]  # per side, every synthesizer construction time
    first_difference = first_metric_difference = first_ledger_difference = None
    heading = (
        f"{args.workload} {args.algorithm}, seed {args.seed}: {workload.passes} passes x "
        f"{workload.steps} steps, fastest of {args.reps} reps per step"
    )

    def record(times: list[float], rep: int, slot: int, elapsed: float) -> None:
        if rep == 0:
            times.append(elapsed)
        else:
            times[slot] = min(times[slot], elapsed)

    for rep in range(args.reps):
        slot = 0
        for i, (stream_seed, run_seed) in enumerate(zip(seeds.streams, seeds.runs)):
            deltas: list = [None, None]
            for s in (0, 1) if (rep + i) % 2 == 0 else (1, 0):
                start = time.perf_counter()
                deltas[s] = sides[s].deltas(stream_seed)
                builds[s].append(time.perf_counter() - start)
            differing = first_differing_step(*deltas)
            if differing is not None:
                print(heading)
                print(f"differentials: first differ at pass {i} step {differing}")
                return 1
            synths: list = [None, None]
            for s in (0, 1) if (rep + i) % 2 == 0 else (1, 0):
                start = time.perf_counter()
                synths[s] = sides[s].synthesizer(args.algorithm, run_seed)
                constructions[s].append(time.perf_counter() - start)
            true = [side.dp.WeightedDataset.empty(side.schema) for side in sides]
            for t in range(len(deltas[0])):
                released, metrics = [None, None], [None, None]
                spent = tuple(len(synth.ledger.entries) for synth in synths)
                order = (0, 1) if (rep + t) % 2 == 0 else (1, 0)
                for s in order:
                    start = time.perf_counter()
                    released[s] = synths[s].step(deltas[s][t])
                    record(fastest["step"][s], rep, slot, time.perf_counter() - start)
                for s in order:
                    dp = sides[s].dp
                    start = time.perf_counter()
                    true[s] = dp.accumulate(true[s], deltas[s][t])
                    middle = time.perf_counter()
                    metrics[s] = dp.evaluate_step(sides[s].queries, true[s], released[s])
                    end = time.perf_counter()
                    record(fastest["accumulate"][s], rep, slot, middle - start)
                    record(fastest["evaluate_step"][s], rep, slot, end - middle)
                if first_difference is None and not same_dataset(*released):
                    first_difference = (i, t + 1)
                if first_metric_difference is None and not same_metrics(*metrics):
                    first_metric_difference = (i, t + 1)
                if first_ledger_difference is None and not same_ledger(*synths, spent):
                    first_ledger_difference = (i, t + 1)
                slot += 1

    print(heading)
    for line in report(args.checkouts, fastest):
        print(line)
    print(median_line("build_stream", builds))
    print(median_line("synthesizer", constructions))
    print("differentials: identical at every step")
    failed = False
    checks = (("releases", first_difference), ("metrics", first_metric_difference), ("ledger", first_ledger_difference))
    for what, where in checks:
        if where is None:
            print(f"{what}: identical at every step")
        else:
            print(f"{what}: first differ at pass {where[0]} step {where[1]}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
