"""Print one sha256 per output file of fixed zero-noise and seeded-Laplace grids.

A speed-up must leave these digests unchanged. Run the same script against the
parent checkout and the changed one and compare the output:

    python3 tools/identity.py            # this checkout's src/
    python3 tools/identity.py OTHER_DIR  # the checkout at OTHER_DIR
    python3 tools/identity.py A B        # both, compared

With two checkouts, each runs in its own process and writes its grids into
its own directory under one temporary directory. The script then prints
both digest lines of every file whose digests differ, marked A or B for the
checkout they came from, then one `<grid> <noise>: N of M identical` tally per
grid and noise mode (such as `low5 zero: 72 of 72 identical`) and the total;
it exits 1 if any differ or a run fails. Under a
differing `metrics.csv` it also prints the largest relative difference
between the two files' values and the first step `t` where a value differs
by more than 1e-9 relative.
Every grid config is also passed to `validate_config` before it runs; since
each of them runs, any problem it reports is a false rejection and exits 1.

Each grid runs through `run_experiment(jobs=1)` in a temporary directory
(or in `--work DIR`, which is kept). The census13 laplace runs also run
through `run_experiment(jobs=2)`, whose triples each fold their own true
prefixes in a worker process, while the `jobs=1` triples share one fold; the
checkout exits 1 if any of those digests differs from its `jobs=1` run's, and
prints nothing more when all match.
`runtime_sec` is dropped from every `meta.json` before hashing, because it is
wall time. Both grids run eps 0.5 and 2, seeds 0 and 1, and k = 3 over the
2-way workloads: `baseline` once (with the `simple` counter setting, which it
never reads), `main` once per counter kind (`simple`, `bounded_block`,
`unbounded_block`, `binary_tree`), and `main` with the `simple` counter and
`"fitter": {"name": "mw", "passes": 2}`, whose replays re-read every round's
cells:

- census13: the 13-attribute surrogate, 4,000 rows, 12 steps of 200 rows;
- low5: its 5 lowest-cardinality attributes, 4,000 rows, 60 steps of 5 rows.

Each checkout also prints `sha256 of this printout: <hex>` to stderr: the
sha256 of its digest lines as printed, one newline after each.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

GRIDS = {
    "census13": {"columns": None, "batch_size": 200, "max_steps": 12},
    "low5": {"columns": 5, "batch_size": 5, "max_steps": 60},
}
NOISES = ("zero", "laplace")
COUNTERS = ("simple", "bounded_block", "unbounded_block", "binary_tree")
# (algorithm, counter, fitter passes) of every run on each grid and noise mode
RUNS = [("baseline", "simple", 1)] + [("main", counter, 1) for counter in COUNTERS] + [("main", "simple", 2)]
ROWS = 4_000
FILES = ("metrics.csv", "summary.json", "meta.json")
TOLERANCE = 1e-9  # relative difference reported as the first step that differs
PARALLEL = ("census13", "laplace")  # the grid and noise mode whose runs also run with jobs=2


def write_inputs(surrogate, work: Path, name: str, columns: int | None) -> tuple[Path, Path]:
    names = [n for n, _ in surrogate.SCHEMA]
    picked = names if columns is None else surrogate.lowest_cardinality_columns(columns)
    keep = [names.index(c) for c in picked]
    dataset, schema = work / f"{name}.csv", work / f"{name}_schema.json"
    with open(dataset, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(picked)
        writer.writerows([row[i] for i in keep] for row in surrogate.generate_rows(ROWS, seed=7))
    schema.write_text(json.dumps(surrogate.schema_spec(picked), indent=2) + "\n", encoding="utf-8")
    return dataset, schema


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "meta.json":
        meta = json.loads(data)
        meta.pop("runtime_sec", None)
        data = json.dumps(meta, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def relative_difference(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def metrics_difference(a: Path, b: Path) -> str:
    """The largest relative difference between two metrics.csv files and the first step above TOLERANCE."""
    tables = []
    for path in (a, b):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh))[1:])  # below the header, one row per step
    if len(tables[0]) != len(tables[1]):
        return f"{len(tables[0])} steps against {len(tables[1])}"
    largest, first = 0.0, None
    for row_a, row_b in zip(*tables):
        differences = [relative_difference(float(x), float(y)) for x, y in zip(row_a, row_b)]
        largest = max(largest, *differences)
        if first is None and max(differences) > TOLERANCE:
            first = row_a[0]
    above = f"first step above {TOLERANCE:g}: t={first}" if first else f"no value above {TOLERANCE:g}"
    return f"largest relative difference {largest:.3g}; {above}"


def tally(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One ``<grid> <noise>: N of M identical`` line per grid and noise mode, in run order, from
    each checkout's digest line by file name (``<grid>-<noise>-...``); a file that one checkout
    lacks counts as differing."""
    files = list(dict.fromkeys([*a, *b]))
    lines = []
    for grid in GRIDS:
        for noise in NOISES:
            names = [name for name in files if name.startswith(f"{grid}-{noise}-")]
            same = sum(a.get(name) == b.get(name) for name in names)
            lines.append(f"{grid} {noise}: {same} of {len(names)} identical")
    return lines


def compare(a: Path, b: Path) -> int:
    """Run the grids on two checkouts in separate processes and print the lines that differ."""
    with tempfile.TemporaryDirectory(prefix="dpstream-identity-") as tmp:
        works = [Path(tmp) / mark for mark in "AB"]
        outputs = []
        for checkout, work in zip((a, b), works):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--work", str(work), str(checkout)],
                capture_output=True, text=True,
            )
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"FAIL {checkout}: exit code {done.returncode}", file=sys.stderr)
                return 1
            outputs.append(done.stdout.splitlines())
        # each line is "<digest>  <file>"; pair the two checkouts' lines by file
        by_file = [{line.split("  ", 1)[1]: line for line in lines} for lines in outputs]
        files = list(dict.fromkeys([*by_file[0], *by_file[1]]))
        differing = 0
        for name in files:
            pair = [lines.get(name) for lines in by_file]
            if pair[0] != pair[1]:
                differing += 1
                for mark, line in zip("AB", pair):
                    print(f"{mark} {line if line is not None else '(missing)  ' + name}")
                if name.endswith("metrics.csv") and None not in pair:
                    print(f"  {metrics_difference(*(work / 'out' / name for work in works))}")
    for line in tally(*by_file):
        print(line, file=sys.stderr)
    print(
        f"{len(files) - differing} of {len(files)} digests identical (A = {a}, B = {b})",
        file=sys.stderr,
    )
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "checkout", nargs="*", type=Path,
        help="repository whose src/ is run (default: this one); give two to compare them",
    )
    parser.add_argument(
        "--work", type=Path,
        help="write the inputs and grid outputs under this directory and keep them",
    )
    args = parser.parse_args(argv)
    if len(args.checkout) > 2:
        parser.error("give at most two checkouts")
    if len(args.checkout) == 2:
        if args.work:
            parser.error("--work takes one checkout")
        return compare(*args.checkout)
    checkout = args.checkout[0] if args.checkout else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(checkout.resolve() / "src"))
    from dpstream import harness, surrogate

    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
        return run_grids(harness, surrogate, args.work)
    with tempfile.TemporaryDirectory(prefix="dpstream-identity-") as tmp:
        return run_grids(harness, surrogate, Path(tmp))


def parallel_differences(harness, config, label: str) -> int:
    """Run ``config`` again with ``jobs=2`` into a sibling ``out-jobs2`` directory and print a
    FAIL line to stderr for each failed run and each output file whose digest differs from the
    ``jobs=1`` run's (a file one run lacks differs too); returns how many there were."""
    out = Path(config.output_dir)
    other = out.parent.parent / "out-jobs2" / out.name
    failed = 0
    for result in harness.run_experiment(dataclasses.replace(config, output_dir=str(other)), jobs=2):
        if not result["ok"]:
            failed += 1
            print(f"FAIL {label} jobs=2: {result}", file=sys.stderr)
    files = {path.relative_to(root) for root in (out, other) for path in root.rglob("*") if path.name in FILES}
    for file in sorted(files):
        digests = [file_digest(root / file) if (root / file).exists() else None for root in (out, other)]
        if digests[0] != digests[1]:
            failed += 1
            print(f"FAIL {label}/{file.as_posix()}: jobs=2 and jobs=1 digests differ", file=sys.stderr)
    return failed


def run_grids(harness, surrogate, work: Path) -> int:
    """Run every grid under ``work``, print one digest line per output file, then the
    printout's sha256 to stderr. The runs of ``PARALLEL`` are checked with ``jobs=2`` too."""
    failed, printout = 0, hashlib.sha256()
    for name, grid in GRIDS.items():
        dataset, schema = write_inputs(surrogate, work, name, grid["columns"])
        for noise in NOISES:
            for algorithm, counter, passes in RUNS:
                label = f"{name}-{noise}-{algorithm}-{counter}" + (f"-passes{passes}" if passes > 1 else "")
                out = work / "out" / label
                config = harness.ExperimentConfig(
                    dataset=str(dataset),
                    schema=str(schema),
                    stream=harness.StreamSpec(
                        variant="randomized_batch",
                        batch_size=grid["batch_size"],
                        max_steps=grid["max_steps"],
                    ),
                    output_dir=str(out),
                    algorithms=(algorithm,),
                    epsilons=("0.5", "2"),
                    counter=counter,
                    fitter={"name": "mw", "passes": passes},
                    seeds=(0, 1),
                    noise=noise,
                )
                for problem in harness.validate_config(config):
                    failed += 1
                    print(f"FAIL {label}: validate_config: {problem}", file=sys.stderr)
                for result in harness.run_experiment(config, jobs=1):
                    if not result["ok"]:
                        failed += 1
                        print(f"FAIL {label}: {result}", file=sys.stderr)
                for path in sorted(out.rglob("*")):
                    if path.name in FILES:
                        line = f"{file_digest(path)}  {label}/{path.relative_to(out).as_posix()}"
                        print(line)
                        printout.update(f"{line}\n".encode())
                if (name, noise) == PARALLEL:
                    failed += parallel_differences(harness, config, label)
    print(f"sha256 of this printout: {printout.hexdigest()}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
