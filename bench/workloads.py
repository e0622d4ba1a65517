"""The benchmark's workloads, the seeds they derive, and their generated inputs."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

K = 3
K_WAY = 2
SURROGATE_SEED = 7  # the bundled surrogate distribution (`dpstream make-surrogate`)
TAIL_WINDOW = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario.

    A step-driven workload runs `passes` main-algorithm streams per cycle, one
    per run seed, and one baseline stream for reference accuracy. A grid
    workload runs one `run_experiment` grid per cycle over `passes` run seeds.
    A run makes at least `reps` cycles, all with the same seeds.
    """

    name: str
    why: str
    attributes: int  # 13 for the full surrogate, 5 for its lowest-cardinality columns
    batch: int
    steps: int
    counter: str
    passes: int
    reps: int
    epsilon: Fraction = Fraction(1, 2)
    grid: bool = False
    seed_support: int = 10_000
    rows: int = 10_000  # dataset rows, drawn without replacement from a larger surrogate pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census13-main",
            "13 attributes, 78 two-way workloads, support grows from 10,000 points: "
            "time goes to domain, fitters and queries",
            attributes=13, batch=200, steps=20, counter="simple", passes=2, reps=1,
        ),
        Workload(
            "low5-long",
            "180-point domain, 5-row batches, binary-tree counter, eps 4: per-step fixed cost "
            "and bookkeeping that grows with t dominate",
            attributes=5, batch=5, steps=500, counter="binary_tree", passes=2, reps=3,
            # At 1/2 the counter noise on 5-row batches swings one run's tail
            # accuracy by about 25% between run seeds; at 4 it is about 4%.
            epsilon=Fraction(4),
        ),
        Workload(
            "low5-grid",
            "acceptance-09 grid through run_experiment: harness ingest and files, "
            "and the baseline path beside main",
            attributes=5, batch=200, steps=50, counter="simple", passes=9, reps=3, grid=True,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """A tiny version of a workload, for the benchmark's own tests."""
    return replace(workload, steps=10, passes=2, reps=2, seed_support=300, rows=2_000)


@dataclass(frozen=True)
class Seeds:
    """Everything the workload seed drives."""

    pick: int  # which surrogate rows form the dataset
    streams: tuple[int, ...]  # the randomized-batch shuffle of each pass
    runs: tuple[int, ...]  # the run seed of each pass


def derive_seeds(seed: int, passes: int) -> Seeds:
    pick, *rest = (int(v) for v in np.random.SeedSequence(seed).generate_state(1 + 2 * passes))
    return Seeds(pick, tuple(rest[:passes]), tuple(rest[passes:]))


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated dataset and schema inside a work directory."""

    dataset: Path
    schema: Path

    @classmethod
    def at(cls, work: Path) -> "Inputs":
        return cls(work / "surrogate.csv", work / "schema.json")


def write_inputs(work: Path, workload: Workload, seeds: Seeds) -> Inputs:
    """Draw the dataset from the bundled surrogate distribution and write it with its schema."""
    from dpstream.surrogate import SCHEMA, generate_rows, lowest_cardinality_columns, schema_spec

    pool = generate_rows(workload.rows * 5 // 4, seed=SURROGATE_SEED)
    rng = np.random.Generator(np.random.PCG64(seeds.pick))
    picked = np.sort(rng.choice(len(pool), size=workload.rows, replace=False))
    inputs = Inputs.at(work)
    work.mkdir(parents=True, exist_ok=True)
    with open(inputs.dataset, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in SCHEMA])
        writer.writerows(pool[i] for i in picked)
    columns = None if workload.attributes == len(SCHEMA) else lowest_cardinality_columns(workload.attributes)
    inputs.schema.write_text(json.dumps(schema_spec(columns), indent=2) + "\n", encoding="utf-8")
    return inputs
