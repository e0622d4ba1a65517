import csv
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from datetime import date, timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstream import (
    DomainSchema,
    ExperimentConfig,
    NoiseSource,
    RunConfig,
    StreamSpec,
    WeightedDataset,
    build_stream,
    enumerate_workloads,
    ingest_csv,
    load_schema,
    make_counter,
)
from dpstream.cli import main as cli_main
from dpstream import harness
from dpstream.harness import (
    STREAM_VARIANTS, IngestError, load_stream, run_experiment, run_triple, validate_config
)
from dpstream.surrogate import write_surrogate

SCHEMA_SPEC = [
    {"name": "color", "values": ["red", "green", "blue"]},
    {"name": "size", "values": ["small", "large"]},
]


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(SCHEMA_SPEC))
    return path


def write_csv(path, rows, header=("color", "size")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


@pytest.fixture
def data_file(tmp_path):
    rows = [
        ["red", "small"],
        ["green", "large"],
        ["blue", "small"],
        ["red", "large"],
        ["red", "small"],
        ["green", "small"],
        ["blue", "large"],
        ["red", "small"],
        ["green", "small"],
        ["blue", "small"],
    ]
    return write_csv(tmp_path / "data.csv", rows)


class TestSchemaFile:
    def test_roundtrip(self, schema_file):
        schema, value_lists = load_schema(schema_file)
        assert schema.names == ("color", "size")
        assert schema.cardinalities == (3, 2)
        assert value_lists[0] == ["red", "green", "blue"]

    def test_duplicate_values_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "a", "values": ["x", "x"]}]))
        with pytest.raises(ValueError, match="duplicate"):
            load_schema(path)

    @pytest.mark.parametrize(
        "values, message",
        [
            ("pq", "attribute 'a' values must be a JSON list, got 'pq'"),
            ({"p": 1, "q": 2}, "attribute 'a' values must be a JSON list, got {'p': 1, 'q': 2}"),
            (3, "attribute 'a' values must be a JSON list, got 3"),
            ([1, "1"], "attribute 'a' has duplicate values ['1']"),
            (["x", True, "y", "True", "x"], "attribute 'a' has duplicate values ['True', 'x']"),
        ],
    )
    def test_values_must_be_a_list_distinct_as_text(self, tmp_path, capsys, values, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "a", "values": values}]))
        with pytest.raises(ValueError) as raised:
            load_schema(path)
        assert str(raised.value) == message
        assert cli_main(["enumerate-workloads", "--schema", str(path), "--k", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_values_are_matched_as_text(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps([{"name": "a", "values": [1, 2.5, True]}]))
        assert load_schema(path)[1] == [["1", "2.5", "True"]]

    def test_empty_values_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "a", "values": []}]))
        with pytest.raises(ValueError, match="no values"):
            load_schema(path)

    @pytest.mark.parametrize("name", [None, "", ["color"], 3, True])
    def test_name_must_be_a_nonempty_string(self, tmp_path, data_file, capsys, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([SCHEMA_SPEC[0], {"name": name, "values": ["x"]}]))
        message = f"schema attribute 1 name must be a nonempty string, got {name!r}"
        with pytest.raises(ValueError) as raised:
            load_schema(path)
        assert str(raised.value) == message
        assert cli_main(["enumerate-workloads", "--schema", str(path), "--k", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        config = write_config(tmp_path, data_file, path)
        assert_rejected_by_validate_and_run(config, tmp_path, capsys, f"schema: {message}")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([{"name": "a", "values": ["x"]}, {"name": "b"}], "schema attribute 1 ('b') has no 'values' key"),
            ([{"values": ["x", "y"]}], "schema attribute 0 has no 'name' key"),
            ([{"name": "a", "values": ["x"]}, "b"], "schema attribute 1 must be an object with a name and values"),
        ],
    )
    def test_malformed_attribute_named_in_the_error(self, tmp_path, spec, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError) as raised:
            load_schema(path)
        assert str(raised.value) == message


class TestIngest:
    def test_three_valid_rows(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(tmp_path / "d.csv", [["red", "small"], ["blue", "large"], ["red", "small"]])
        rows = ingest_csv(path, schema, value_lists)
        assert [p for p, _ in rows] == [(0, 0), (2, 1), (0, 0)]

    def test_unknown_category_names_row_and_column(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(tmp_path / "d.csv", [["red", "small"], ["purple", "small"]])
        with pytest.raises(IngestError, match=r"row 3.*'purple'.*'color'"):
            ingest_csv(path, schema, value_lists)

    def test_short_row_names_its_line(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(tmp_path / "d.csv", [["red", "small"], ["red"]])
        with pytest.raises(IngestError, match=r"row 3: only 1 of 2 fields"):
            ingest_csv(path, schema, value_lists)

    def test_errors_name_the_file_line_after_a_blank_line(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = tmp_path / "d.csv"
        path.write_text("color,size\nred,small\n\npurple,small\n")
        with pytest.raises(IngestError, match=r"row 4.*'purple'"):
            ingest_csv(path, schema, value_lists)
        path.write_text("color,size\n\nred,small\n\n\nred\n")
        with pytest.raises(IngestError, match=r"row 6: only 1 of 2 fields"):
            ingest_csv(path, schema, value_lists)

    def test_missing_schema_column_rejected(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(tmp_path / "d.csv", [["red"]], header=("color",))
        with pytest.raises(IngestError, match="missing"):
            ingest_csv(path, schema, value_lists)

    def test_extra_csv_columns_ignored(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(
            tmp_path / "d.csv",
            [["x", "red", "small"]],
            header=("junk", "color", "size"),
        )
        rows = ingest_csv(path, schema, value_lists)
        assert rows[0][0] == (0, 0)

    def test_timestamp_parsing(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(
            tmp_path / "d.csv",
            [["red", "small", "2020-01-03"]],
            header=("color", "size", "when"),
        )
        rows = ingest_csv(path, schema, value_lists, timestamp_column="when")
        assert rows[0][1].isoformat() == "2020-01-03"

    def test_bad_timestamp_names_row(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(
            tmp_path / "d.csv",
            [["red", "small", "03/01/2020"]],
            header=("color", "size", "when"),
        )
        with pytest.raises(IngestError, match="row 2"):
            ingest_csv(path, schema, value_lists, timestamp_column="when")


class TestBuildStream:
    def test_ordered_batches(self, tmp_path, schema_file, data_file):
        schema, value_lists = load_schema(schema_file)
        rows = ingest_csv(data_file, schema, value_lists)
        stream = build_stream(rows, StreamSpec(variant="ordered_batch", batch_size=3), schema)
        assert [d.total_mass() for d in stream.differentials] == [3.0, 3.0, 3.0, 1.0]

    def test_step_count_is_ceil_rows_over_batch(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(tmp_path / "d.csv", [["red", "small"]] * 977)
        rows = ingest_csv(path, schema, value_lists)
        stream = build_stream(rows, StreamSpec(variant="ordered_batch", batch_size=1), schema)
        assert stream.num_steps == 977

    def test_randomized_is_seed_deterministic_without_replacement(
        self, schema_file, data_file
    ):
        schema, value_lists = load_schema(schema_file)
        rows = ingest_csv(data_file, schema, value_lists)
        spec = StreamSpec(variant="randomized_batch", batch_size=4, seed=5)
        a = build_stream(rows, spec, schema)
        b = build_stream(rows, spec, schema)
        assert [d.as_mapping() for d in a.differentials] == [
            d.as_mapping() for d in b.differentials
        ]
        # without replacement: the accumulated stream equals the whole file
        assert a.prefix(a.num_steps).total_mass() == len(rows)
        c = build_stream(rows, StreamSpec(variant="randomized_batch", batch_size=4, seed=6), schema)
        assert [d.as_mapping() for d in a.differentials] != [
            d.as_mapping() for d in c.differentials
        ]

    def test_weekly_buckets(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(
            tmp_path / "d.csv",
            [
                ["red", "small", "2020-01-01"],
                ["green", "small", "2020-01-04"],
                ["blue", "large", "2020-01-09"],
            ],
            header=("color", "size", "when"),
        )
        rows = ingest_csv(path, schema, value_lists, timestamp_column="when")
        spec = StreamSpec(variant="timestamp_bucketed", timestamp_column="when", bucket_days=7)
        stream = build_stream(rows, spec, schema)
        assert [d.total_mass() for d in stream.differentials] == [2.0, 1.0]

    def test_empty_buckets_produce_empty_differentials(self, tmp_path, schema_file):
        schema, value_lists = load_schema(schema_file)
        path = write_csv(
            tmp_path / "d.csv",
            [["red", "small", "2020-01-01"], ["blue", "large", "2020-01-29"]],
            header=("color", "size", "when"),
        )
        rows = ingest_csv(path, schema, value_lists, timestamp_column="when")
        spec = StreamSpec(variant="timestamp_bucketed", timestamp_column="when", bucket_days=7)
        stream = build_stream(rows, spec, schema)
        assert [d.total_mass() for d in stream.differentials] == [1.0, 0.0, 0.0, 0.0, 1.0]

    def test_max_steps_caps_the_stream(self, schema_file, data_file):
        schema, value_lists = load_schema(schema_file)
        rows = ingest_csv(data_file, schema, value_lists)
        spec = StreamSpec(variant="ordered_batch", batch_size=2, max_steps=3)
        assert build_stream(rows, spec, schema).num_steps == 3

    @pytest.mark.parametrize("variant", STREAM_VARIANTS)
    def test_max_steps_builds_only_the_kept_steps(self, tmp_path, schema_file, variant):
        schema, value_lists = load_schema(schema_file)
        colors, sizes = ("red", "green", "blue"), ("small", "large")
        path = write_csv(
            tmp_path / "d.csv",
            [[colors[i % 3], sizes[i % 2], f"2020-01-{1 + i % 28:02d}"] for i in range(60)],
            header=("color", "size", "when"),
        )
        rows = ingest_csv(path, schema, value_lists, timestamp_column="when")
        fields = dict(variant=variant, seed=3)
        if variant == "timestamp_bucketed":
            fields.update(timestamp_column="when", bucket_days=2)
        else:
            fields.update(batch_size=4)
        full = build_stream(rows, StreamSpec(**fields), schema)
        capped_spec = StreamSpec(max_steps=5, **fields)
        capped = build_stream(rows, capped_spec, schema)
        assert full.num_steps > 5 and capped.num_steps == 5
        for got, want in zip(capped.differentials, full.differentials[:5]):
            assert got.points.tobytes() == want.points.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
        # an out-of-range row put in each row's place raises exactly when that row is in a kept step
        raised = 0
        for i, (_, stamp) in enumerate(rows):
            bad = rows[:i] + [((3, 0), stamp)] + rows[i + 1 :]
            with pytest.raises(ValueError, match="out of range"):
                build_stream(bad, StreamSpec(**fields), schema)
            try:
                build_stream(bad, capped_spec, schema)
            except ValueError as exc:
                assert "point coordinate out of range for schema" in str(exc)
                raised += 1
        assert raised == capped.prefix(5).total_mass() < len(rows)

    @pytest.mark.parametrize("variant", STREAM_VARIANTS)
    def test_zero_rows_make_a_zero_step_stream(self, variant):
        schema = DomainSchema((("color", 3), ("size", 2)))
        spec = StreamSpec(variant=variant, timestamp_column="when", bucket_days=7, batch_size=2)
        stream = build_stream([], spec, schema)
        assert stream.num_steps == 0 and stream.schema == schema

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            StreamSpec(variant="bogus")
        with pytest.raises(ValueError):
            StreamSpec(variant="ordered_batch")  # no batch size
        with pytest.raises(ValueError):
            StreamSpec(variant="timestamp_bucketed", timestamp_column="when", bucket_days=0)


def oracle_stream(rows, spec, schema):
    """The differentials of ``build_stream``, each step built by the checking ``WeightedDataset(...)``."""
    if spec.variant == "timestamp_bucketed":
        start = min((stamp for _, stamp in rows), default=None)
        buckets = {}
        for point, stamp in rows:
            buckets.setdefault((stamp - start).days // spec.bucket_days, []).append(point)
        slices = (buckets.get(b, []) for b in range(max(buckets, default=-1) + 1))
    else:
        ordered = [point for point, _ in rows]
        if spec.variant == "randomized_batch":
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
            ordered = [ordered[i] for i in rng.permutation(len(ordered))]
        batch = spec.batch_size
        slices = (ordered[i : i + batch] for i in range(0, len(ordered), batch))
    p = schema.num_attributes
    return [
        WeightedDataset(schema, np.array(chunk, dtype=np.int64).reshape(-1, p), np.ones(len(chunk)))
        for chunk in itertools.islice(slices, spec.max_steps)
    ]


SCHEMA_HUGE = DomainSchema(tuple((f"x{i}", 8) for i in range(22)))  # 2**66 points: no key strides


@st.composite
def streams(draw, variant):
    """Rows drawn from a few distinct points (so steps repeat rows) with dates a month apart at
    most, and a ``variant`` spec with a batch size of 1 to n + 1, a bucket width and ``max_steps``."""
    if draw(st.integers(0, 3)) == 0:
        schema = SCHEMA_HUGE
    else:
        cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        schema = DomainSchema(tuple((f"a{i}", c) for i, c in enumerate(cards)))
    point = st.tuples(*(st.integers(0, c - 1) for c in schema.cardinalities))
    pool = draw(st.lists(point, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 40))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 30)), min_size=n, max_size=n))
    rows = [(point, date(2020, 2, 20) + timedelta(days=day)) for point, day in picks]
    spec = StreamSpec(
        variant=variant,
        timestamp_column="when",
        bucket_days=draw(st.integers(1, 12)),
        batch_size=draw(st.one_of(st.integers(1, 4), st.integers(1, n + 1))),
        seed=draw(st.integers(0, 2**32)),
        max_steps=draw(st.one_of(st.none(), st.integers(1, 12))),
    )
    return schema, rows, spec


class TestBuildStreamOracle:
    @pytest.mark.parametrize("variant", STREAM_VARIANTS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_one_checked_dataset_per_step(self, variant, data):
        schema, rows, spec = data.draw(streams(variant))
        got = build_stream(rows, spec, schema)
        want = oracle_stream(rows, spec, schema)
        assert got.num_steps == len(want)
        for a, b in zip(got.differentials, want):
            assert a.points.shape == b.points.shape and a.points.tobytes() == b.points.tobytes()
            assert a.weights.dtype == b.weights.dtype and a.weights.tobytes() == b.weights.tobytes()
            assert a.points.flags.f_contiguous
            assert not a.points.flags.writeable and not a.weights.flags.writeable


def experiment_config(tmp_path, data_file, schema_file, **overrides):
    base = dict(
        dataset=str(data_file),
        schema=str(schema_file),
        stream=StreamSpec(variant="ordered_batch", batch_size=2),
        output_dir=str(tmp_path / "out"),
        k_way=2,
        algorithms=("baseline", "main"),
        epsilons=(Fraction(1),),
        k=1,
        seeds=(0,),
        noise="zero",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_grid_produces_all_files(self, tmp_path, data_file, schema_file):
        config = experiment_config(
            tmp_path, data_file, schema_file,
            epsilons=(Fraction(1, 2), Fraction(1)), seeds=(0, 1, 2),
        )
        results = run_experiment(config)
        assert len(results) == 12
        assert all(r["ok"] for r in results)
        produced = list(Path(config.output_dir).rglob("metrics.csv"))
        assert len(produced) == 12
        assert len(list(Path(config.output_dir).rglob("summary.json"))) == 12

    def test_zero_noise_reruns_are_byte_identical(self, tmp_path, data_file, schema_file):
        config = experiment_config(tmp_path, data_file, schema_file)
        run_experiment(config)
        first = {
            p.relative_to(config.output_dir): p.read_bytes()
            for p in Path(config.output_dir).rglob("metrics.csv")
        }
        run_experiment(config)
        second = {
            p.relative_to(config.output_dir): p.read_bytes()
            for p in Path(config.output_dir).rglob("metrics.csv")
        }
        assert first == second

    @pytest.mark.parametrize("batch_size, window", [(1, 10), (3, 4)])
    def test_summary_is_mean_of_last_rows(self, tmp_path, data_file, schema_file, batch_size, window):
        # 12 rows: 12 one-row steps average the last harness.SUMMARY_WINDOW = 10, 4 steps all 4
        with open(data_file, newline="") as fh:
            data_rows = list(csv.reader(fh))[1:]
        long_file = write_csv(tmp_path / "long.csv", data_rows + data_rows[:2])
        stream = StreamSpec(variant="ordered_batch", batch_size=batch_size)
        config = experiment_config(tmp_path, long_file, schema_file, stream=stream)
        run_triple(config, "main", Fraction(1), 0, load_stream(config))
        run_dir = config.run_dir(Path(config.output_dir), "main", Fraction(1), 0)
        with open(run_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 // batch_size
        tail = [float(r["AvgWE"]) for r in rows[-window:]]
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["AvgWE"] == pytest.approx(sum(tail) / window)
        assert summary["window"] == window

    def test_meta_reports_full_budget_spend(self, tmp_path, data_file, schema_file):
        config = experiment_config(tmp_path, data_file, schema_file, epsilons=(Fraction(1, 2),))
        run_triple(config, "main", Fraction(1, 2), 0, load_stream(config))
        run_dir = config.run_dir(Path(config.output_dir), "main", Fraction(1, 2), 0)
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["ledger"]["per_step_totals"] == ["1/2"]
        assert meta["ledger"]["selection_per_step"] == ["1/4"]
        assert meta["ledger"]["measurement_per_step"] == ["1/4"]
        assert Fraction(meta["epsilon_exact"]) == Fraction(1, 2)

    def test_failed_triple_does_not_sink_others(self, tmp_path, data_file, schema_file):
        # k exceeds the workload count only for the main run's config check
        config = experiment_config(tmp_path, data_file, schema_file, k=5)
        results = run_experiment(config)
        assert all(not r["ok"] for r in results)
        assert all("error" in r for r in results)

    def test_unknown_fitter_rejected(self, tmp_path, data_file, schema_file):
        mw = experiment_config(
            tmp_path, data_file, schema_file, fitter={"name": "mw", "seed_support_size": 4, "passes": 2}
        )
        assert all(r["ok"] for r in run_experiment(mw))
        other = experiment_config(tmp_path, data_file, schema_file, fitter={"name": "nn"})
        assert [r["error"] for r in run_experiment(other)] == ["ValueError: unknown fitter 'nn'"] * 2

    def test_unknown_counter_fails_every_triple_up_front(self, tmp_path, data_file, schema_file):
        config = experiment_config(tmp_path, data_file, schema_file, counter="simpel")
        results = run_experiment(config)
        assert [r["algorithm"] for r in results] == ["baseline", "main"]
        assert all(r["error"].startswith("ValueError: unknown counter kind 'simpel'") for r in results)
        assert not list(Path(config.output_dir).rglob("metrics.csv"))

    def test_grid_ingests_once(self, tmp_path, data_file, schema_file, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ingest_csv(*args, **kwargs)

        monkeypatch.setattr(harness, "ingest_csv", counted)
        config = experiment_config(tmp_path, data_file, schema_file, seeds=(0, 1, 2))
        results = run_experiment(config, jobs=1)
        assert len(results) == 6 and all(r["ok"] for r in results)
        assert len(calls) == 1

    def test_ingest_failure_reported_per_triple(self, tmp_path, schema_file):
        bad = write_csv(tmp_path / "bad.csv", [["red", "small"], ["purple", "large"]])
        config = experiment_config(tmp_path, bad, schema_file, seeds=(0, 1))
        results = run_experiment(config)
        assert [(r["algorithm"], r["seed"]) for r in results] == [
            ("baseline", 0), ("baseline", 1), ("main", 0), ("main", 1)
        ]
        assert all(not r["ok"] and "IngestError" in r["error"] and "purple" in r["error"] for r in results)
        assert not Path(config.output_dir).exists()

    @pytest.mark.parametrize("variant", STREAM_VARIANTS)
    def test_header_only_dataset_fails_every_triple_naming_the_file(
        self, tmp_path, schema_file, capsys, variant
    ):
        empty = write_csv(tmp_path / "empty.csv", [], header=("color", "size", "when"))
        stream = StreamSpec(variant=variant, timestamp_column="when", bucket_days=7, batch_size=2)
        config = experiment_config(tmp_path, empty, schema_file, stream=stream, seeds=(0, 1))
        assert validate_config(config) == []  # validate reads only the header
        results = run_experiment(config)
        assert len(results) == 4
        assert all(r["error"] == f"IngestError: {empty}: no data rows" for r in results)
        assert not Path(config.output_dir).exists()
        payload = {
            "dataset": str(empty), "schema": str(schema_file), "output_dir": str(tmp_path / "out"),
            "stream": dataclasses.asdict(stream), "epsilons": [1], "k": 1, "noise": "zero",
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert "0/2 runs completed" in capsys.readouterr().out

    def test_byte_order_mark_is_read_past(self, tmp_path, data_file, schema_file, capsys):
        schema, value_lists = load_schema(schema_file)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + data_file.read_bytes())
        assert ingest_csv(marked, schema, value_lists) == ingest_csv(data_file, schema, value_lists)
        config = experiment_config(tmp_path, marked, schema_file)
        assert validate_config(config) == []
        payload = {
            "dataset": str(marked), "schema": str(schema_file), "output_dir": str(tmp_path / "out"),
            "stream": {"variant": "ordered_batch", "batch_size": 2}, "epsilons": [1], "k": 1, "noise": "zero",
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["validate", "--config", str(config_path)]) == 0
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert "2/2 runs completed" in capsys.readouterr().out

    def test_byte_order_mark_is_read_past_in_json_files(self, tmp_path, data_file, schema_file, capsys):
        # as in the CSV files: editors that save UTF-8 with a BOM write it before the JSON too
        marked_schema = tmp_path / "marked_schema.json"
        marked_schema.write_bytes(b"\xef\xbb\xbf" + schema_file.read_bytes())
        assert load_schema(marked_schema) == load_schema(schema_file)
        payload = {
            "dataset": str(data_file), "schema": str(marked_schema), "output_dir": str(tmp_path / "out"),
            "stream": {"variant": "ordered_batch", "batch_size": 2}, "epsilons": [1], "k": 1, "noise": "zero",
        }
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(payload).encode("utf-8"))
        assert ExperimentConfig.from_json(config_path).schema == str(marked_schema)
        assert cli_main(["validate", "--config", str(config_path)]) == 0
        assert "BOM" not in capsys.readouterr().out

    def test_parallel_jobs_match_sequential(self, tmp_path, data_file, schema_file):
        config = experiment_config(tmp_path, data_file, schema_file, seeds=(0, 1))
        run_experiment(config, jobs=2)
        parallel = {
            p.relative_to(config.output_dir): p.read_bytes()
            for p in Path(config.output_dir).rglob("metrics.csv")
        }
        run_experiment(config, jobs=1)
        sequential = {
            p.relative_to(config.output_dir): p.read_bytes()
            for p in Path(config.output_dir).rglob("metrics.csv")
        }
        assert parallel == sequential


class TestConfigFile:
    def test_from_json_roundtrip(self, tmp_path, data_file, schema_file):
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            "epsilons": [0.5, 1.0],
            "algorithms": ["baseline"],
            "k": 1,
            "seeds": [0],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = ExperimentConfig.from_json(path)
        assert config.epsilons == (Fraction(1, 2), Fraction(1))
        assert validate_config(config) == []

    def test_unknown_fields_rejected(self, tmp_path, data_file, schema_file):
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            "typo_field": 1,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="typo_field"):
            ExperimentConfig.from_json(path)

    def test_validate_reports_missing_files(self, tmp_path, schema_file):
        config = ExperimentConfig(
            dataset=str(tmp_path / "nope.csv"),
            schema=str(schema_file),
            stream=StreamSpec(variant="ordered_batch", batch_size=2),
            output_dir=str(tmp_path / "out"),
        )
        problems = validate_config(config)
        assert any("not found" in p for p in problems)

    def test_validate_reports_unknown_counter(self, tmp_path, data_file, schema_file):
        config = experiment_config(tmp_path, data_file, schema_file, counter="simpel")
        assert [p.split(";")[0] for p in validate_config(config)] == ["unknown counter kind 'simpel'"]
        for name in ("simple", "bounded_block", "binary_tree", "unbounded_block"):
            config = experiment_config(tmp_path, data_file, schema_file, counter=name)
            assert validate_config(config) == []


    @pytest.mark.parametrize(
        "fitter, problem",
        [
            ({"name": "nn"}, "unknown fitter 'nn'"),
            ({"name": "mw", "pases": 2}, "unknown fitter parameters: ['pases']"),
            ({"passes": 0}, "fitter passes must be an integer >= 1, got 0"),
            ({"seed_support_size": 0}, "fitter seed_support_size must be an integer >= 1, got 0"),
        ],
    )
    def test_validate_reports_bad_fitter(self, tmp_path, data_file, schema_file, fitter, problem):
        config = experiment_config(tmp_path, data_file, schema_file, fitter=fitter)
        assert validate_config(config) == [problem]
        error = problem.removeprefix("fitter: ")
        assert [r["error"] for r in run_experiment(config)] == [f"ValueError: {error}"] * 2
        assert not list(Path(config.output_dir).rglob("metrics.csv"))

    @pytest.mark.parametrize(
        "header, stream, problem",
        [
            (("color",), {"variant": "ordered_batch", "batch_size": 2}, "dataset is missing schema column 'size'"),
            (
                ("color", "size"),
                {"variant": "timestamp_bucketed", "timestamp_column": "when", "bucket_days": 1},
                "dataset is missing timestamp column 'when'",
            ),
        ],
        ids=["schema-column", "timestamp-column"],
    )
    def test_validate_reports_a_header_problem(self, tmp_path, schema_file, capsys, header, stream, problem):
        data = write_csv(tmp_path / "data.csv", [["red", "small"][: len(header)]], header=header)
        config = experiment_config(tmp_path, data, schema_file, stream=StreamSpec.from_dict(stream))
        assert validate_config(config) == [problem]
        # run_experiment, which skips validate, fails every triple on the same header
        assert all(r["error"].startswith(f"IngestError: {data}: ") for r in run_experiment(config))
        path = write_config(tmp_path, data, schema_file, stream=stream)
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, problem)

    def test_validate_checks_every_epsilon_against_k(self, tmp_path, data_file, schema_file, capsys):
        # the config reads 1e-323 with k = 1; with k = 2 its share float(epsilon) / 4 is 0
        message = (
            "epsilon 1e-323 must be a positive, finite float64, and so must its per-share value "
            "float(epsilon) / (2k)"
        )
        config = experiment_config(tmp_path, data_file, schema_file, k_way=1, k=2, epsilons=(1, "1e-323"))
        assert validate_config(config) == [message]
        path = write_config(tmp_path, data_file, schema_file, k_way=1, k=2, epsilons=[1, "1e-323"])
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, message)

    def test_config_reads_its_own_stream(self, tmp_path, data_file, schema_file):
        config = experiment_config(tmp_path, data_file, schema_file, stream=dict(BATCHED))
        assert config.stream == StreamSpec(variant="ordered_batch", batch_size=2)
        assert validate_config(config) == []
        with pytest.raises(ValueError, match="stream must be an object, got None"):
            experiment_config(tmp_path, data_file, schema_file, stream=None)

    def test_validate_accepts_mw_fitter(self, tmp_path, data_file, schema_file):
        for fitter in ({"name": "mw"}, {"name": "mw", "seed_support_size": 4, "passes": 2}, {}):
            config = experiment_config(tmp_path, data_file, schema_file, fitter=fitter)
            assert validate_config(config) == []

    # the schema has one 2-way workload of 6 cells, so k = 1 is the only valid k
    @pytest.mark.parametrize(
        "overrides",
        [
            {"counter": "bounded_block", "block_size": 0},
            {"k": 0},
            {"noise": "laplcae"},
            {"k_way": 3},
            {"k": 2},
            {"counter": "simpel"},
            {"fitter": {"name": "nn"}},
            {"fitter": {"name": "mw", "pases": 2}},
            {"fitter": {"passes": 0}},
            {"fitter": {"seed_support_size": 0}},
        ],
        ids=lambda o: json.dumps(o),
    )
    def test_validate_reports_the_triple_error(self, tmp_path, data_file, schema_file, overrides):
        config = experiment_config(tmp_path, data_file, schema_file, **overrides)
        errors = {r["error"] for r in run_experiment(config)}
        assert len(errors) == 1
        error = errors.pop()
        assert error.startswith("ValueError: ")
        assert validate_config(config) == [error.removeprefix("ValueError: ")]
        assert not list(Path(config.output_dir).rglob("metrics.csv"))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"seeds": [0, -1]}, "seeds must be non-negative integers, got -1"),
            (
                {"stream": {"variant": "randomized_batch", "batch_size": 2, "seed": -3}},
                "stream seed must be a non-negative integer, got -3",
            ),
        ],
    )
    def test_negative_seed_rejected_naming_its_field(
        self, tmp_path, data_file, schema_file, capsys, payload, message
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            **payload,
        }))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(path)
        for command in ("validate", "run"):
            assert cli_main([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"config error: {message}\n" and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_negative_run_seed_rejected_before_any_output(self, tmp_path, data_file, schema_file):
        config = experiment_config(tmp_path, data_file, schema_file)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            run_triple(config, "main", Fraction(1), -1, load_stream(config))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["algorithms", "epsilons", "seeds"])
    def test_empty_grid_rejected(self, tmp_path, data_file, schema_file, field):
        message = f"{field} must not be empty"
        with pytest.raises(ValueError, match=message):
            experiment_config(tmp_path, data_file, schema_file, **{field: ()})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            field: [],
        }))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(path)

    def test_from_json_reads_every_field(self, tmp_path, data_file, schema_file):
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {
                "variant": "randomized_batch", "batch_size": 3, "seed": 4, "max_steps": 2,
                "timestamp_column": None, "bucket_days": None,
            },
            "output_dir": str(tmp_path / "out"),
            "k_way": 1,
            "algorithms": ["main"],
            "epsilons": [0.5, "2"],
            "k": 2,
            "counter": "bounded_block",
            "block_size": 2,
            "fitter": {"name": "mw", "passes": 2},
            "seeds": [3, 1],
            "noise": "zero",
        }
        assert set(payload) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(payload["stream"]) == {f.name for f in dataclasses.fields(StreamSpec)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = ExperimentConfig.from_json(path)
        assert config == ExperimentConfig(
            **{
                **payload,
                "stream": StreamSpec(**payload["stream"]),
                "algorithms": ("main",),
                "epsilons": (Fraction(1, 2), Fraction(2)),
                "seeds": (3, 1),
            }
        )
        assert validate_config(config) == []
        assert all(r["ok"] for r in run_experiment(config))


class TestCli:
    def test_validate_and_run(self, tmp_path, data_file, schema_file, capsys):
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            "epsilons": [1.0],
            "algorithms": ["baseline", "main"],
            "k": 1,
            "seeds": [0],
            "noise": "zero",
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["validate", "--config", str(config_path)]) == 0
        assert cli_main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "2/2 runs completed" in out

    @pytest.mark.parametrize(
        "extra, reported",
        [
            ({"typo_field": 1}, "config error: unknown config fields: ['typo_field']\n"),
            ({"epsilons": 0.5}, "config error: epsilons must be a list, got 0.5\n"),
        ],
    )
    def test_unreadable_config_fails_validate_and_run(
        self, tmp_path, data_file, schema_file, capsys, extra, reported
    ):
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            **extra,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        for command in ("validate", "run"):
            assert cli_main([command, "--config", str(config_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(reported) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"counter": "bounded_block", "block_size": 0},
            {"k": 0},
            {"noise": "laplcae"},
        ],
        ids=lambda o: json.dumps(o),
    )
    def test_run_rejects_bad_settings_before_any_output(
        self, tmp_path, data_file, schema_file, capsys, overrides
    ):
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            "k": 1,
            **overrides,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["validate", "--config", str(config_path)]) == 1
        reported = capsys.readouterr().err
        assert reported.startswith("config error: ") and reported.count("\n") == 1
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == reported
        assert not (tmp_path / "out").exists()

    def test_grid_sharing_run_directories_fails_validate_and_run(self, tmp_path, data_file, schema_file, capsys):
        # 1/2 and 0.5 are one epsilon; 1/3 and 0.3333333333333333 differ but name one directory
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            "epsilons": ["1/2", "0.5", "1/3", "0.3333333333333333"],
            "seeds": [0, 0],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="overwrite each other") as raised:
            ExperimentConfig.from_json(config_path)
        message = str(raised.value)
        assert "(main, 1/3, 0) and (main, 1/3, 0) and (main, 3333333333333333/10000000000000000, 0)" in message
        assert len(message.split("; ")) == 4  # 2 algorithms x 2 shared directories
        for command in ("validate", "run"):
            assert cli_main([command, "--config", str(config_path)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: runs would overwrite each other's files")
            assert captured.out == ""
        assert not (tmp_path / "out").exists()
        # distinct seeds and epsilons whose floats differ still pass
        experiment_config(tmp_path, data_file, schema_file, epsilons=("1/3", "0.333"), seeds=(0, 1))

    @pytest.mark.parametrize("field", ["algorithms", "epsilons", "seeds"])
    def test_empty_grid_fails_validate_and_run(self, tmp_path, data_file, schema_file, capsys, field):
        payload = {
            "dataset": str(data_file),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
            field: [],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        for command in ("validate", "run"):
            assert cli_main([command, "--config", str(config_path)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: {field} must not be empty")
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_enumerate_workloads(self, schema_file, capsys):
        assert cli_main(["enumerate-workloads", "--schema", str(schema_file), "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "(color, size)" in out
        assert "cells=6" in out

    @pytest.mark.parametrize("k", ["0", "3", "-1"])
    def test_enumerate_workloads_reports_a_bad_arity(self, schema_file, capsys, k):
        assert cli_main(["enumerate-workloads", "--schema", str(schema_file), "--k", k]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: workload arity {k} out of range [1, 2]\n" and captured.out == ""

    def test_enumerate_workloads_reports_a_missing_schema(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli_main(["enumerate-workloads", "--schema", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(missing) in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "c.json", "--jobs", "0"],
            ["run", "--config", "c.json", "--jobs", "-3"],
            ["run", "--config", "c.json", "--jobs", "two"],
            ["make-surrogate", "--out", "s", "--rows", "-5"],
            ["make-surrogate", "--out", "s", "--rows", "0"],
        ],
        ids=" ".join,
    )
    def test_counts_below_one_are_rejected_when_parsed(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            cli_main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: expected an integer >= 1, got '{argv[-1]}'" in err
        assert list(tmp_path.iterdir()) == []  # nothing ran and nothing was written

    def test_enumerate_workloads_names_the_attribute_missing_values(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps([{"name": "a"}]))
        assert cli_main(["enumerate-workloads", "--schema", str(schema)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: schema attribute 0 ('a') has no 'values' key\n" and captured.out == ""

    def test_make_surrogate(self, tmp_path, capsys):
        assert cli_main(["make-surrogate", "--out", str(tmp_path / "s"), "--rows", "50"]) == 0
        assert (tmp_path / "s" / "census_surrogate.csv").exists()
        assert (tmp_path / "s" / "census_surrogate_schema.json").exists()

    def test_make_surrogate_reports_an_out_dir_it_cannot_make(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        assert cli_main(["make-surrogate", "--out", str(out), "--rows", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert (tmp_path / "afile").read_text() == ""

    def test_make_surrogate_reports_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert cli_main(["make-surrogate", "--out", str(out), "--rows", "50", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == "" and not out.exists()

    def test_validate_fails_on_bad_config(self, tmp_path, schema_file, capsys):
        payload = {
            "dataset": str(tmp_path / "missing.csv"),
            "schema": str(schema_file),
            "stream": {"variant": "ordered_batch", "batch_size": 2},
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        assert cli_main(["validate", "--config", str(config_path)]) == 1


def write_config(tmp_path, data_file, schema_file, **extra):
    """A config file over the two-attribute data, with ``extra`` fields set."""
    payload = {
        "dataset": str(data_file),
        "schema": str(schema_file),
        "stream": {"variant": "ordered_batch", "batch_size": 2},
        "output_dir": str(tmp_path / "out"),
        "k": 1,
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def assert_rejected_by_validate_and_run(path, tmp_path, capsys, message):
    for command in ("validate", "run"):
        assert cli_main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n" and captured.out == ""
    assert not list(tmp_path.rglob("metrics.csv")) and not (tmp_path / "out").exists()


BATCHED = {"variant": "ordered_batch", "batch_size": 2}
EPSILON_RULE = 'must be a number or a string such as "1/2"'
# settings that must be integers (not bools, floats or strings) or numbers (not bools; finite; epsilons
# may be strings of one), and the error each reports
SETTING_ERRORS = [
    ({"seeds": [1.5]}, "seeds must be non-negative integers, got 1.5"),
    ({"seeds": ["2"]}, "seeds must be non-negative integers, got '2'"),
    ({"seeds": [True]}, "seeds must be non-negative integers, got True"),
    (
        {"stream": {**BATCHED, "variant": "randomized_batch", "seed": 1.5}},
        "stream seed must be a non-negative integer, got 1.5",
    ),
    ({"stream": {**BATCHED, "batch_size": 2.5}}, "batched streams need an integer batch_size >= 1, got 2.5"),
    (
        {"stream": {"variant": "timestamp_bucketed", "timestamp_column": "when", "bucket_days": 2.5}},
        "timestamp_bucketed streams need an integer bucket_days >= 1, got 2.5",
    ),
    ({"stream": {**BATCHED, "max_steps": 2.5}}, "max_steps must be an integer >= 1, got 2.5"),
    (
        {"counter": "bounded_block", "block_size": 2.5},
        "bounded block counter needs an integer block_size >= 1, got 2.5",
    ),
    ({"block_size": 2.5}, "block_size must be an integer >= 1, got 2.5"),
    ({"k": 2.5}, "k must be an integer >= 1, got 2.5"),
    ({"k": "2"}, "k must be an integer >= 1, got '2'"),
    ({"k_way": True}, "k_way must be an integer >= 1, got True"),
    ({"fitter": {"passes": True}}, "fitter passes must be an integer >= 1, got True"),
    ({"fitter": {"seed_support_size": 2.5}}, "fitter seed_support_size must be an integer >= 1, got 2.5"),
    ({"epsilons": [True]}, f"each of epsilons {EPSILON_RULE}, got True"),
    ({"epsilons": [1.0, None]}, f"each of epsilons {EPSILON_RULE}, got None"),
    ({"epsilons": ["half"]}, f"each of epsilons {EPSILON_RULE}, got 'half'"),
    ({"epsilons": [float("nan")]}, f"each of epsilons {EPSILON_RULE}, got nan"),
    ({"epsilons": [[1]]}, f"each of epsilons {EPSILON_RULE}, got [1]"),
]


CONFIG_SHAPE_ERRORS = [
    ({"stream": None}, "missing config fields: ['stream']"),
    ({"dataset": None, "stream": None}, "missing config fields: ['dataset', 'stream']"),
    ({"seeds": 3}, "seeds must be a list, got 3"),
    ({"epsilons": 1}, "epsilons must be a list, got 1"),
    ({"algorithms": "main"}, "algorithms must be a list, got 'main'"),
    ({"stream": "x"}, "stream must be an object, got 'x'"),
    ({"fitter": "mw"}, "fitter must be an object, got 'mw'"),
    ({"schema": 0}, "schema must be a path string, got 0"),
    ({"dataset": 5}, "dataset must be a path string, got 5"),
    ({"output_dir": ["out"]}, "output_dir must be a path string, got ['out']"),
    ([1, 2], "config file {path} must be a JSON object, got a list"),
]


class TestSettingChecks:
    @pytest.mark.parametrize(
        "shape, message",
        CONFIG_SHAPE_ERRORS,
        ids=[
            "no stream", "no dataset or stream", "seeds", "epsilons", "algorithms", "stream", "fitter",
            "schema", "dataset", "output_dir", "list",
        ],
    )
    def test_config_of_the_wrong_shape_names_its_field(
        self, tmp_path, data_file, schema_file, capsys, shape, message
    ):
        # a dict updates a valid config (None drops the field); a list is the whole file
        path = write_config(tmp_path, data_file, schema_file)
        payload = shape
        if isinstance(shape, dict):
            merged = {**json.loads(path.read_text()), **shape}
            payload = {name: value for name, value in merged.items() if value is not None}
        path.write_text(json.dumps(payload))
        message = message.format(path=path)
        with pytest.raises(ValueError) as raised:
            ExperimentConfig.from_json(path)
        assert str(raised.value) == message
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, message)

    @pytest.mark.parametrize("name", ["selection_sensitivity", "normalize", "summary_window"])
    def test_derived_values_are_not_settings(self, tmp_path, data_file, schema_file, capsys, name):
        path = write_config(tmp_path, data_file, schema_file, **{name: 1})
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, f"unknown config fields: ['{name}']")

    def test_a_stream_without_variant_names_the_missing_field(self, tmp_path, data_file, schema_file, capsys):
        # the stream object is checked for missing fields as the config is, not left to a TypeError
        path = write_config(tmp_path, data_file, schema_file, stream={"batch_size": 5})
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, "missing stream spec fields: ['variant']")

    @pytest.mark.parametrize("extra, message", SETTING_ERRORS, ids=lambda o: json.dumps(o))
    def test_setting_of_the_wrong_type_names_its_field(
        self, tmp_path, data_file, schema_file, capsys, extra, message
    ):
        path = write_config(tmp_path, data_file, schema_file, **extra)
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, message)

    @pytest.mark.parametrize("value", [True, None, "half", "1/0", float("inf"), [1]])
    def test_run_config_rejects_an_epsilon_that_is_no_number(self, schema_file, value):
        workloads = enumerate_workloads(load_schema(schema_file)[0], 2)
        with pytest.raises(ValueError, match=re.escape(f"epsilon {EPSILON_RULE}, got {value!r}")):
            RunConfig(epsilon=value, k=1, workloads=workloads)

    def test_numbers_of_every_kind_are_accepted(self, schema_file):
        workloads = enumerate_workloads(load_schema(schema_file)[0], 2)
        cases = [
            ("1/2", Fraction(1, 2)),
            (np.float64(0.1), Fraction(1, 10)),
            (np.int64(2), Fraction(2)),
            (np.float32(0.5), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(1, 3)),
        ]
        for epsilon, exact in cases:
            assert RunConfig(epsilon=epsilon, k=1, workloads=workloads).epsilon == exact

    def test_numpy_integers_are_integers(self, tmp_path, data_file, schema_file):
        config = experiment_config(
            tmp_path, data_file, schema_file, k=np.int64(1), k_way=np.int32(2), seeds=(np.int64(1),),
            counter="bounded_block", block_size=np.int16(2),
            fitter={"passes": np.int64(2), "seed_support_size": np.int64(4)},
            stream=StreamSpec(variant="randomized_batch", batch_size=np.int64(2), seed=np.int64(3)),
        )
        assert validate_config(config) == []
        assert all(r["ok"] for r in run_experiment(config))
        run_dir = config.run_dir(Path(config.output_dir), "main", Fraction(1), 1)
        meta = json.loads((run_dir / "meta.json").read_text())
        assert (meta["k"], meta["k_way"], meta["seed"], meta["block_size"]) == (1, 2, 1, 2)

    @pytest.mark.parametrize(
        "extra, shown",
        [
            ({"epsilons": ["1e-400"]}, "1e-400"),  # 0 in float64
            ({"epsilons": ["1e400"]}, "1e+400"),  # past the largest float64
            ({"epsilons": ["1e-323"], "k_way": 1, "k": 2}, "1e-323"),  # 0 once split into 2k = 4 shares
            ({"epsilons": [-1]}, "-1"),
        ],
    )
    def test_epsilon_outside_float64_names_the_epsilon(
        self, tmp_path, data_file, schema_file, capsys, extra, shown
    ):
        message = (
            f"epsilon {shown} must be a positive, finite float64, and so must its per-share value "
            "float(epsilon) / (2k)"
        )
        path = write_config(tmp_path, data_file, schema_file, **extra)
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, message)
        workloads = enumerate_workloads(load_schema(schema_file)[0], extra.get("k_way", 2))
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(epsilon=Fraction(str(extra["epsilons"][0])), k=extra.get("k", 1), workloads=workloads)

    def test_block_spelling_rejected_everywhere(self, tmp_path, data_file, schema_file, capsys):
        message = (
            "unknown counter kind 'block'; expected one of "
            "('simple', 'bounded_block', 'binary_tree', 'unbounded_block')"
        )
        workloads = enumerate_workloads(load_schema(schema_file)[0], 1)
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(epsilon=Fraction(1), k=1, workloads=workloads, counter_kind="block", block_size=2)
        with pytest.raises(ValueError, match=re.escape(message)):
            make_counter("block", 1.0, NoiseSource(0), block_size=2)
        path = write_config(tmp_path, data_file, schema_file, counter="block", block_size=2)
        assert_rejected_by_validate_and_run(path, tmp_path, capsys, message)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_section():
    """README's "Config file" section, up to the next heading of any level below the title."""
    text = README.read_text(encoding="utf-8")
    start = text.index("### Config file")
    return text[start : text.index("\n#", start)]


class TestReadme:
    def test_config_section_names_every_field_and_no_derived_value(self):
        section = readme_config_section()
        for f in dataclasses.fields(ExperimentConfig):
            assert f"`{f.name}`" in section or f'"{f.name}"' in section, f.name
        for name in ("selection_sensitivity", "normalize", "summary_window"):
            assert not re.search(rf"\b{name}\b", section), name

    def test_metrics_csv_line_lists_the_metric_columns(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        (line,) = [l for l in lines if l.lstrip().startswith("metrics.csv")]
        listed = line.split("#", 1)[1].removesuffix(" per step").split(", ")
        assert tuple(c.strip() for c in listed) == harness.METRIC_COLUMNS

    def test_library_example_runs(self):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("## Library use") :]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert done.returncode == 0, done.stderr
        (line,) = done.stdout.splitlines()
        assert len(line.strip("[]").split()) == 6, line

    def test_example_config_validates_on_a_surrogate(self, tmp_path):
        example = json.loads(readme_config_section().split("```json\n", 1)[1].split("```", 1)[0])
        csv_path, schema_path = write_surrogate(tmp_path / "data", num_rows=200)
        assert Path(example["dataset"]).name == csv_path.name
        assert Path(example["schema"]).name == schema_path.name
        example.update(dataset=str(csv_path), schema=str(schema_path), output_dir=str(tmp_path / "results"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(example))
        assert validate_config(ExperimentConfig.from_json(path)) == []
