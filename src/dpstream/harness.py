"""Dataset ingestion, stream construction, and experiment orchestration.

The harness owns every file format: schema JSON (which fixes the string-to-
index dictionaries), input CSVs, per-run metric CSVs, and summary/metadata
JSON. Algorithms only ever see differentials, never the accumulated dataset.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from datetime import date
from fractions import Fraction
from os import PathLike
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .algorithms import ALGORITHMS, RunConfig, checked_epsilon, make_synthesizer
from .domain import DatasetStream, DomainSchema, WeightedDataset, checked_int, step_datasets
from .evaluation import METRIC_NAMES, MetricAggregate, evaluate_step, summarize_tail
from .fitters import DEFAULT_SEED_SUPPORT
from .queries import WorkloadSet, enumerate_workloads

METRIC_COLUMNS = ("t", *METRIC_NAMES)
SUMMARY_WINDOW = 10  # summary.json averages the last 10 steps, or every step of a shorter stream
SHARED_TRUTH_BYTES = 64 << 20  # the largest truth_bytes at which a jobs=1 grid shares its true prefixes

STREAM_VARIANTS = ("timestamp_bucketed", "randomized_batch", "ordered_batch")


class IngestError(ValueError):
    """A CSV row could not be mapped onto the schema."""


def load_schema(path: str | Path) -> tuple[DomainSchema, list[list[str]]]:
    """Read a schema file: an ordered list of {name, values} attribute specs.

    The position of a value in its list defines the integer index used
    everywhere downstream.
    """
    with open(path, encoding="utf-8-sig") as fh:
        spec = json.load(fh)
    if not isinstance(spec, list) or not spec:
        raise ValueError(f"schema file {path} must be a nonempty list of attributes")
    attributes = []
    value_lists = []
    for i, entry in enumerate(spec):
        if not isinstance(entry, dict):
            raise ValueError(f"schema attribute {i} must be an object with a name and values")
        if "name" not in entry:
            raise ValueError(f"schema attribute {i} has no 'name' key")
        name = entry["name"]
        if not isinstance(name, str) or not name:  # matched against header text: null would read "None"
            raise ValueError(f"schema attribute {i} name must be a nonempty string, got {name!r}")
        if "values" not in entry:
            raise ValueError(f"schema attribute {i} ({name!r}) has no 'values' key")
        values = entry["values"]
        if not isinstance(values, list):
            raise ValueError(f"attribute {name!r} values must be a JSON list, got {values!r}")
        if not values:
            raise ValueError(f"attribute {name!r} has no values")
        strings = [str(v) for v in values]  # what CSV fields are matched against: 1 and "1" are one value
        if len(set(strings)) < len(strings):
            repeated = sorted({v for v in strings if strings.count(v) > 1})
            raise ValueError(f"attribute {name!r} has duplicate values {repeated}")
        attributes.append((name, len(values)))
        value_lists.append(strings)
    return DomainSchema(tuple(attributes)), value_lists


def _check_fields(cls: type, raw: dict[str, Any], what: str) -> None:
    """Raise ValueError if ``raw`` names a field the dataclass ``cls`` lacks or lacks one without a default."""
    known = fields(cls)
    unknown = set(raw) - {f.name for f in known}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    required = (f.name for f in known if f.default is MISSING and f.default_factory is MISSING)
    missing = [name for name in required if name not in raw]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")


@dataclass(frozen=True)
class StreamSpec:
    """How to slice a row file into a time-indexed stream."""

    variant: str
    timestamp_column: str | None = None
    bucket_days: int | None = None
    batch_size: int | None = None
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in STREAM_VARIANTS:
            raise ValueError(f"unknown stream variant {self.variant!r}; expected {STREAM_VARIANTS}")
        if self.variant == "timestamp_bucketed":
            if not self.timestamp_column:
                raise ValueError("timestamp_bucketed streams need a timestamp_column")
            checked_int(self.bucket_days, 1, "timestamp_bucketed streams need an integer bucket_days >= 1")
        else:
            checked_int(self.batch_size, 1, "batched streams need an integer batch_size >= 1")
        if self.max_steps is not None:
            checked_int(self.max_steps, 1, "max_steps must be an integer >= 1")
        checked_int(self.seed, 0, "stream seed must be a non-negative integer")

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "StreamSpec":
        if not isinstance(spec, dict):
            raise ValueError(f"stream must be an object, got {spec!r}")
        _check_fields(cls, spec, "stream spec")
        return cls(**spec)


def ingest_csv(
    path: str | Path,
    schema: DomainSchema,
    value_lists: list[list[str]],
    timestamp_column: str | None = None,
) -> list[tuple[tuple[int, ...], date | None]]:
    """Map CSV rows to dense index tuples, optionally parsing an ISO date column.

    Every schema attribute must appear in the header; extra CSV columns are
    ignored, which makes projecting a wide file onto a narrow schema free. A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    indexes = [{v: i for i, v in enumerate(values)} for values in value_lists]
    rows: list[tuple[tuple[int, ...], date | None]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader, []))}  # a repeated name reads its last
        missing = [n for n in schema.names if n not in position]
        if missing:
            raise IngestError(f"{path}: columns missing from CSV header: {missing}")
        if timestamp_column and timestamp_column not in position:
            raise IngestError(f"{path}: timestamp column {timestamp_column!r} not in header")
        columns = [(name, position[name], index) for name, index in zip(schema.names, indexes)]
        stamp_at = position[timestamp_column] if timestamp_column else -1
        width = 1 + max(stamp_at, *(i for _, i, _ in columns))  # fields a row must have
        # blank lines are skipped; reader.line_num is the file line a record ends on
        for record in filter(None, reader):
            if len(record) < width:
                raise IngestError(
                    f"{path} row {reader.line_num}: only {len(record)} of {width} fields"
                )
            point = []
            for name, i, index in columns:
                raw = record[i]
                if raw not in index:
                    raise IngestError(
                        f"{path} row {reader.line_num}: value {raw!r} in column {name!r} "
                        "is not in the schema"
                    )
                point.append(index[raw])
            stamp: date | None = None
            if timestamp_column:
                raw = record[stamp_at]
                try:
                    stamp = date.fromisoformat(raw)
                except ValueError as exc:
                    raise IngestError(
                        f"{path} row {reader.line_num}: cannot parse date {raw!r} "
                        f"in column {timestamp_column!r}"
                    ) from exc
            rows.append((tuple(point), stamp))
    return rows


def build_stream(
    rows: list[tuple[tuple[int, ...], date | None]],
    spec: StreamSpec,
    schema: DomainSchema,
) -> DatasetStream:
    """Slice ingested rows into differentials according to the stream spec.

    Each row gets a step: its timestamp's bucket counted from the earliest one, or
    its batch in file or shuffled order. Only the rows of the first ``max_steps``
    steps are read, and ``step_datasets`` builds every step from them in one sorted
    pass. An empty bucket is an empty step; zero rows make a 0-step stream. The points
    must be ints, as ``ingest_csv`` gives them: no bool scan runs on them.
    """
    if spec.variant == "timestamp_bucketed":
        if any(stamp is None for _, stamp in rows):
            raise ValueError("timestamp_bucketed stream needs a timestamp on every row")
        start = min((stamp for _, stamp in rows), default=None)
        days = np.array([(stamp - start).days for _, stamp in rows], dtype=np.int64)  # type: ignore[operator]
        steps = days // int(spec.bucket_days)  # type: ignore[arg-type]
    else:
        position = np.arange(len(rows))
        if spec.variant == "randomized_batch":
            # each row's place in the shuffle, which covers every row whatever max_steps keeps
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(spec.seed))))
            position[rng.permutation(len(rows))] = np.arange(len(rows))
        steps = position // int(spec.batch_size)  # type: ignore[arg-type]
    num_steps = int(steps.max(initial=-1)) + 1
    if spec.max_steps is not None:
        num_steps = min(num_steps, spec.max_steps)
    kept = np.flatnonzero(steps < num_steps)
    points = [rows[i][0] for i in kept.tolist()]
    return DatasetStream(schema, tuple(step_datasets(schema, points, steps[kept], num_steps)))


@dataclass
class ExperimentConfig:
    """One experiment grid: dataset x algorithms x epsilons x seeds."""

    dataset: str
    schema: str
    stream: StreamSpec
    output_dir: str
    k_way: int = 2
    algorithms: tuple[str, ...] = ("baseline", "main")
    epsilons: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))
    k: int = 3
    counter: str = "simple"
    block_size: int | None = None
    fitter: dict[str, Any] = field(default_factory=lambda: {"name": "mw"})
    seeds: tuple[int, ...] = (0,)
    noise: str = "laplace"

    def __post_init__(self) -> None:
        for name in ("dataset", "schema", "output_dir"):  # an int would open that file descriptor
            if not isinstance(getattr(self, name), (str, PathLike)):
                raise ValueError(f"{name} must be a path string, got {getattr(self, name)!r}")
        for name in ("algorithms", "epsilons", "seeds"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        if not isinstance(self.fitter, dict):
            raise ValueError(f"fitter must be an object, got {self.fitter!r}")
        if not isinstance(self.stream, StreamSpec):
            self.stream = StreamSpec.from_dict(self.stream)
        self.algorithms = tuple(self.algorithms)
        self.seeds = tuple(checked_int(s, 0, "seeds must be non-negative integers") for s in self.seeds)
        self.epsilons = tuple(checked_epsilon(e, name="each of epsilons") for e in self.epsilons)
        for name in ("algorithms", "epsilons", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty: the grid would have no runs")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; expected subset of {tuple(ALGORITHMS)}")
        self.k_way = checked_int(self.k_way, 1, "k_way must be an integer >= 1")
        # a run directory is named by algorithm, float(epsilon) and seed: runs share one iff an axis repeats
        axes = (self.algorithms, [float(e) for e in self.epsilons], self.seeds)
        if any(len(set(axis)) < len(axis) for axis in axes):
            runs: dict[Path, list[str]] = {}
            for alg, eps, seed in self.triples():
                runs.setdefault(self.run_dir(Path(), alg, eps, seed), []).append(f"({alg}, {eps}, {seed})")
            shared = [f"{' and '.join(names)} in {path}" for path, names in runs.items() if len(names) > 1]
            raise ValueError(f"runs would overwrite each other's files: {'; '.join(shared)}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must be a JSON object, got a {type(raw).__name__}")
        _check_fields(cls, raw, "config")
        return cls(**raw)

    def triples(self) -> list[tuple[str, Fraction, int]]:
        return [
            (alg, eps, seed)
            for alg in self.algorithms
            for eps in self.epsilons
            for seed in self.seeds
        ]

    def run_dir(self, out_root: Path, algorithm: str, epsilon: Fraction, seed: int) -> Path:
        dataset_name = Path(self.dataset).stem
        return out_root / dataset_name / algorithm / f"eps{float(epsilon)}" / f"seed{seed}"


def _eps_label(epsilon: Fraction) -> str:
    return repr(float(epsilon))


def load_stream(config: ExperimentConfig) -> DatasetStream:
    """Read the schema, ingest the dataset CSV and slice it into the configured stream.

    Raises IngestError for a dataset without data rows, which would make a 0-step stream.
    """
    schema, value_lists = load_schema(config.schema)
    spec = config.stream
    rows = ingest_csv(
        config.dataset,
        schema,
        value_lists,
        timestamp_column=spec.timestamp_column if spec.variant == "timestamp_bucketed" else None,
    )
    if not rows:
        raise IngestError(f"{config.dataset}: no data rows")
    return build_stream(rows, spec, schema)


def run_config(
    config: ExperimentConfig, workloads: WorkloadSet, epsilon: Fraction, seed: int, steps: int
) -> RunConfig:
    """The ``RunConfig`` of one triple over a ``steps``-step stream.

    A block counter without a ``block_size`` gets ceil(sqrt(steps)). The
    ``fitter`` object names ``mw`` and may set ``seed_support_size`` and
    ``passes``, integers >= 1. Raises ValueError for any setting the run rejects.
    """
    block_size = config.block_size
    if config.counter == "bounded_block" and block_size is None:
        block_size = max(1, math.isqrt(max(steps - 1, 0)) + 1)  # ceil sqrt(T)
    fitter = dict(config.fitter)
    name = fitter.pop("name", "mw")
    if name != "mw":
        raise ValueError(f"unknown fitter {name!r}")
    seed_support_size = fitter.pop("seed_support_size", DEFAULT_SEED_SUPPORT)
    passes = fitter.pop("passes", 1)
    if fitter:
        raise ValueError(f"unknown fitter parameters: {sorted(fitter)}")
    return RunConfig(
        epsilon=epsilon, k=config.k, workloads=workloads, counter_kind=config.counter,
        block_size=block_size, seed_support_size=seed_support_size, passes=passes, seed=seed,
        noise_mode=config.noise,
    )


def run_triple(
    config: ExperimentConfig, algorithm: str, epsilon: Fraction, seed: int, stream: DatasetStream,
    workloads: WorkloadSet, prefixes: Iterable[WeightedDataset] | None = None,
) -> dict[str, Any]:
    """Run one (algorithm, epsilon, seed) cell of the grid on ``load_stream(config)`` and its
    ``enumerate_workloads``, and write its files.

    ``prefixes``, the true dataset after each step, defaults to ``stream.prefixes()``;
    ``run_experiment`` hands the triples of a small ``jobs=1`` grid one tuple of them, so each
    prefix is accumulated once and its true workload vectors are counted once.
    """
    started = time.monotonic()
    settings = run_config(config, workloads, epsilon, seed, stream.num_steps)
    synthesizer = make_synthesizer(algorithm, settings)

    run_dir = config.run_dir(Path(config.output_dir), algorithm, epsilon, seed)
    run_dir.mkdir(parents=True, exist_ok=True)

    rows_out: list[MetricAggregate] = []  # step t's metrics at position t - 1
    excluded_cells = 0
    truth = stream.prefixes() if prefixes is None else prefixes
    for delta, true_data in zip(stream.differentials, truth, strict=True):
        synthetic = synthesizer.step(delta)
        agg = MetricAggregate._make((math.nan,) * 4)  # no metrics while the true data is empty
        if true_data.total_mass() != 0:
            agg, skipped = evaluate_step(workloads, true_data, synthetic)
            excluded_cells += skipped
        rows_out.append(agg)

    with open(run_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        writer.writerows([t, *map(repr, agg)] for t, agg in enumerate(rows_out, start=1))

    window = min(SUMMARY_WINDOW, len(rows_out))
    summary: dict[str, Any] = {
        "algorithm": algorithm,
        "epsilon": _eps_label(epsilon),
        "seed": seed,
        "window": window,
        "steps": len(rows_out),
    }
    if window:
        summary.update(summarize_tail(rows_out, window))
    with open(run_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    ledger = synthesizer.ledger
    spent_groups = ledger.groups()  # a group exists only after a positive spend
    step_totals = {str(ledger.group_total(g)) for g in spent_groups}
    selection_totals = {str(ledger.category_total(g, "selection")) for g in spent_groups}
    measure_totals = {
        str(ledger.category_total(g, "counter") + ledger.category_total(g, "measurement"))
        for g in spent_groups
    }
    meta = {
        "algorithm": algorithm,
        "epsilon": _eps_label(epsilon),
        "epsilon_exact": str(epsilon),
        "seed": seed,
        "noise": config.noise,
        "counter": config.counter,
        "block_size": settings.block_size,
        "k": settings.k,
        "k_way": config.k_way,
        "workloads": len(workloads),
        "selection_sensitivity": settings.resolved_sensitivity(),
        "steps": stream.num_steps,
        "normalize": True,  # WE is always over the true mass; the key keeps meta.json's layout
        "ledger": {
            "total_epsilon": str(ledger.total_epsilon),
            "spent_steps": len(spent_groups),
            "per_step_totals": sorted(step_totals),
            "selection_per_step": sorted(selection_totals),
            "measurement_per_step": sorted(measure_totals),
        },
        "fit_clamp_events": synthesizer.fitter.stats.clamped_exponents,
        "relwe_excluded_cells": excluded_cells,
        "runtime_sec": round(time.monotonic() - started, 3),
    }
    with open(run_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {"ok": True, "algorithm": algorithm, "epsilon": _eps_label(epsilon), "seed": seed,
            "dir": str(run_dir)}


def _failure(algorithm: str, epsilon: Fraction, seed: int, exc: Exception) -> dict[str, Any]:
    return {
        "ok": False,
        "algorithm": algorithm,
        "epsilon": _eps_label(epsilon),
        "seed": seed,
        "error": f"{type(exc).__name__}: {exc}",
    }


def _run_triple_guarded(
    config: ExperimentConfig, algorithm: str, epsilon: Fraction, seed: int, stream: DatasetStream,
    workloads: WorkloadSet, prefixes: tuple[WeightedDataset, ...] | None = None,
) -> dict[str, Any]:
    try:
        return run_triple(config, algorithm, epsilon, seed, stream, workloads, prefixes)
    except Exception as exc:  # an aborted triple must not sink the others
        return _failure(algorithm, epsilon, seed, exc)


def truth_bytes(stream: DatasetStream, workloads: WorkloadSet) -> int:
    """An upper bound on the bytes that every true prefix of ``stream`` and its workload
    vectors take: prefix t has at most min(rows of the first t differentials, domain size)
    points of p int64 coordinates, a float64 weight and an int64 key, and one float64 per
    workload cell. The sum grows as T**2 while the prefixes keep growing."""
    schema = stream.schema
    points = sum(min(rows, schema.size) for rows in itertools.accumulate(map(len, stream.differentials)))
    cells = sum(w.size for w in workloads)
    return 8 * (points * (len(schema.attributes) + 2) + stream.num_steps * cells)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[dict[str, Any]]:
    """Run the whole grid; each triple writes its own files and reports status.

    The stream is loaded and the workloads are enumerated once for the grid. With
    ``jobs=1``, two or more triples and a ``truth_bytes`` of at most
    ``SHARED_TRUTH_BYTES``, the true prefixes are folded once too, and the triples read
    the same tuple of them, whose true workload vectors the first triple memoizes for
    the others. If any of this fails, every triple reports that failure. A triple that
    does not share, as each task of ``jobs > 1``, folds its own prefixes and holds only
    the latest.
    """
    triples = config.triples()
    try:
        stream = load_stream(config)
        workloads = enumerate_workloads(stream.schema, config.k_way)
        shared = jobs == 1 and len(triples) > 1 and truth_bytes(stream, workloads) <= SHARED_TRUTH_BYTES
        truth = tuple(stream.prefixes()) if shared else None
    except Exception as exc:  # reported per triple, as each triple would have failed on it
        return [_failure(alg, eps, seed, exc) for alg, eps, seed in triples]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_triple_guarded, config, alg, eps, seed, stream, workloads)
                for alg, eps, seed in triples
            ]
            return [f.result() for f in futures]
    return [
        _run_triple_guarded(config, alg, eps, seed, stream, workloads, truth) for alg, eps, seed in triples
    ]


def validate_config(config: ExperimentConfig) -> list[str]:
    """Dry-run checks; returns a list of problems (empty means good to go).

    Reports file problems, then at most one setting problem: the first error a
    triple would fail with, from the same ``run_config`` that ``run_triple`` calls.
    """
    try:
        schema, _ = load_schema(config.schema)
    except (OSError, ValueError) as exc:
        return [f"schema: {exc}"]
    if not Path(config.dataset).exists():
        return [f"dataset file not found: {config.dataset}"]
    try:
        with open(config.dataset, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), [])
    except OSError as exc:
        return [f"dataset: {exc}"]
    problems = [f"dataset is missing schema column {n!r}" for n in schema.names if n not in header]
    spec = config.stream
    if spec.variant == "timestamp_bucketed" and spec.timestamp_column not in header:
        problems.append(f"dataset is missing timestamp column {spec.timestamp_column!r}")
    # the config checked each epsilon with k = 1 only, so each meets k here; no check reads the
    # seed, and the ceil-sqrt block size is >= 1 for any stream length, so one seed and step stand for all
    try:
        workloads = enumerate_workloads(schema, config.k_way)
        for epsilon in config.epsilons:
            run_config(config, workloads, epsilon, config.seeds[0], steps=1)
    except (TypeError, ValueError) as exc:
        problems.append(str(exc))
    return problems
