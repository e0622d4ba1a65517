"""Tests of the benchmark itself: the percentile rule, span arithmetic and a smoke run per workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
from tracing import BOUNDARIES, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- the tail percentile -------------------------------------------------------


@pytest.mark.parametrize(
    "n, level, value, beyond",
    [
        (20, 50.0, 10.0, 10),
        (39, 50.0, 20.0, 19),
        (40, 75.0, 30.0, 10),
        (100, 90.0, 90.0, 10),
        (2500, 99.0, 2475.0, 25),
        (10_000, 99.9, 9990.0, 10),
    ],
)
def test_tail_is_highest_level_with_ten_beyond(n, level, value, beyond):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    tail = stats.tail(samples)
    assert tail == stats.Tail(level, value, n, beyond)


def test_tail_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError, match="19 samples"):
        stats.tail([1.0] * 19)


def test_fastest_takes_each_steps_minimum_over_repetitions():
    import worker

    repetitions = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0, 9.0], [7.0, 1.5, 0.5]]
    assert worker.fastest(repetitions) == [2.0, 1.0, 0.5]  # cut to the shortest
    assert worker.fastest([[4.0, 2.0]]) == [4.0, 2.0]


def _burn(seconds: float) -> float:
    start = time.thread_time()
    while time.thread_time() - start < seconds:
        pass
    return time.thread_time() - start


def test_scaled_clock_scales_cpu_time_and_leaves_out_calibrations(monkeypatch):
    import machine

    spent = []

    def slow_calibration():  # half the reference speed, and costly itself
        spent.append(_burn(0.02))
        return 2 * machine.REFERENCE_S

    monkeypatch.setattr(machine, "calibrate", slow_calibration)
    clock = machine.ScaledClock()
    assert len(spent) == 1 + machine.CAL_WINDOW
    raw0, scaled0 = time.thread_time(), clock()
    _burn(machine.CAL_EVERY_S + 0.01)
    clock.checkpoint()
    _burn(0.01)
    clock.frozen = True
    clock.checkpoint()  # frozen: no calibration
    raw = time.thread_time() - raw0
    assert len(spent) == 2 + machine.CAL_WINDOW
    assert clock() - scaled0 == pytest.approx((raw - spent[-1]) / 2, rel=0.02)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        ("step", 0, 100, -1, 0),
        ("fit", 10, 40, 0, 0),  # has its own child
        ("mean", 50, 70, 0, 0),
        ("eval", 20, 30, 1, 0),
        ("other", 0, 10, -1, 1),
        ("a", 2, 6, 4, 1),  # overlapping children of "other"
        ("b", 4, 8, 4, 1),
        ("c", 9, 15, 4, 1),  # runs past its parent; only 9..10 counts
    ]
    assert self_times(spans) == [50, 20, 20, 10, 3, 4, 4, 6]


def test_summary_reports_unfired_boundaries_as_zero():
    spans = [("algorithms.step", 0, 2_000_000_000, -1, 0), ("algorithms.step", 0, 500_000_000, -1, 1)]
    table = summarize(spans)
    assert list(table)[: len(BOUNDARIES)] == list(BOUNDARIES)
    assert table["algorithms.step"] == {"calls": 2, "s": 2.5, "self_s": 2.5}
    assert table["harness.run_triple"] == {"calls": 0, "s": 0.0, "self_s": 0.0}


def test_tracer_splits_eval_workload_by_caller_and_restores_names():
    import dpstream as dp
    from dpstream import algorithms, evaluation, queries

    originals = (algorithms.eval_workload, evaluation.eval_workload, dp.CounterSynthesizer.step)
    schema = dp.DomainSchema((("a", 3), ("b", 2), ("c", 2)))
    workloads = dp.enumerate_workloads(schema, 2)
    delta = dp.WeightedDataset.from_rows(schema, [(0, 1, 0), (2, 0, 1), (0, 1, 1)])
    with Tracer() as tracer:
        synth = dp.make_synthesizer(
            "main", dp.RunConfig(epsilon=Fraction(1), k=1, workloads=workloads, seed=0)
        )
        released = synth.step(delta)
        dp.evaluate_step(workloads, delta, released)
        queries.eval_workload(workloads[0], delta)
    assert (algorithms.eval_workload, evaluation.eval_workload, dp.CounterSynthesizer.step) == originals
    table = tracer.summary()
    assert table["algorithms.step"]["calls"] == 1
    assert table["queries.eval_workload.select"]["calls"] > 0
    assert table["queries.eval_workload.evaluate"]["calls"] == 4 * len(workloads)
    assert table["queries.eval_workload.other"]["calls"] == 1
    step = table["algorithms.step"]
    assert 0 < step["self_s"] < step["s"]
    counts = tracer.count_metrics()
    assert counts["mechanisms.BudgetLedger.entries"] == 0 + 1  # the second spend saw one entry
    assert counts["fitters.support_points"] == schema.size


# -- smoke runs ----------------------------------------------------------------


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[2]: line.split()[4] for line in lines if line.startswith("metric ")}
    assert printed == expected
    assert any(line.startswith("mass_excess ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "low5-grid", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
