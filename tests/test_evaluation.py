import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstream import (
    DomainSchema,
    WeightedDataset,
    Workload,
    WorkloadSet,
    aggregate,
    enumerate_workloads,
    evaluate_step,
    summarize_tail,
    workload_error,
)
from dpstream.evaluation import MetricAggregate

SCHEMA = DomainSchema((("a", 2), ("b", 2)))
W_BOTH = Workload(SCHEMA, (0, 1))


def rows_from(series):
    return [MetricAggregate(v, v, v, v) for v in series]


class TestWorkloadError:
    def test_zero_when_equal(self):
        d = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 4.0, (1, 1): 1.0})
        assert workload_error(W_BOTH, d, d) == 0.0

    def test_hand_computed_cells(self):
        # cells (0,0),(0,1),(1,0),(1,1): |4-2| + 0 + 0 + |0-2| over 4 cells
        f = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 4.0})
        g = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 2.0, (1, 1): 2.0})
        # normalized by the true mass 4: (0.5 + 0 + 0 + 0.5) / 4
        assert workload_error(W_BOTH, f, g) == pytest.approx(0.25)

    def test_symmetric_when_masses_agree(self):
        f = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 2.0})
        g = WeightedDataset.from_mapping(SCHEMA, {(1, 1): 2.0})
        assert workload_error(W_BOTH, f, g) == workload_error(W_BOTH, g, f) == 0.5

    def test_normalized_error_scale_invariant(self):
        f = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 4.0, (0, 1): 2.0})
        g = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 3.0, (1, 0): 3.0})
        base = workload_error(W_BOTH, f, g)
        f7, g7 = (WeightedDataset(SCHEMA, d.points, d.weights * 7.0) for d in (f, g))
        scaled = workload_error(W_BOTH, f7, g7)
        assert scaled == pytest.approx(base)

    def test_zero_mass_rejected(self):
        g = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 1.0})
        with pytest.raises(ValueError, match="zero-mass"):
            workload_error(W_BOTH, WeightedDataset.empty(SCHEMA), g)


def avg_relwe(workload, true_data, synthetic):
    """AvgRelWE of ``evaluate_step`` over the one workload: its relative error."""
    agg, _ = evaluate_step(WorkloadSet((workload,)), true_data, synthetic)
    return agg.avg_relwe


class TestRelativeWorkloadError:
    def test_zero_when_equal(self):
        d = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 4.0, (1, 1): 1.0})
        assert avg_relwe(W_BOTH, d, d) == 0.0

    def test_single_cell_ratio(self):
        schema = DomainSchema((("x", 1),))
        w = Workload(schema, (0,))
        f = WeightedDataset.from_mapping(schema, {(0,): 4.0})
        g = WeightedDataset.from_mapping(schema, {(0,): 3.0})
        assert avg_relwe(w, f, g) == pytest.approx(0.25)

    def test_zero_denominator_cells_excluded(self):
        # cells with true value 0 drop out of both numerator and divisor:
        # (f, g) = (4, 2), (0, 5), (2, 2) -> (0.5 + 0) / 2
        schema = DomainSchema((("x", 3),))
        w = Workload(schema, (0,))
        f = WeightedDataset.from_mapping(schema, {(0,): 4.0, (2,): 2.0})
        g = WeightedDataset.from_mapping(schema, {(0,): 2.0, (1,): 5.0, (2,): 2.0})
        assert avg_relwe(w, f, g) == pytest.approx(0.25)

    def test_all_zero_true_cells_rejected(self):
        g = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 1.0})
        with pytest.raises(ValueError, match="all true cells"):
            avg_relwe(W_BOTH, WeightedDataset.empty(SCHEMA), g)


class TestAggregate:
    def test_single_workload(self):
        agg = aggregate([0.2], [0.4])
        assert agg.avg_we == agg.max_we == 0.2
        assert agg.avg_relwe == agg.max_relwe == 0.4

    def test_mean_and_max(self):
        agg = aggregate([0.1, 0.3], [0.2, 0.6])
        assert agg.avg_we == pytest.approx(0.2)
        assert agg.max_we == 0.3
        assert agg.avg_relwe == pytest.approx(0.4)
        assert agg.max_relwe == 0.6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])

    def test_all_zero_when_streams_agree(self):
        Q = enumerate_workloads(SCHEMA, 1)
        d = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 4.0, (1, 1): 1.0})
        agg, excluded = evaluate_step(Q, d, d)
        assert agg == (0.0, 0.0, 0.0, 0.0)
        assert excluded >= 0

    def test_max_at_least_avg(self):
        rng = np.random.default_rng(0)
        Q = enumerate_workloads(SCHEMA, 1)
        for _ in range(20):
            f = WeightedDataset.from_mapping(
                SCHEMA, {(x, y): float(rng.uniform(0.5, 5)) for x in range(2) for y in range(2)}
            )
            g = WeightedDataset.from_mapping(
                SCHEMA, {(x, y): float(rng.uniform(0.5, 5)) for x in range(2) for y in range(2)}
            )
            agg, _ = evaluate_step(Q, f, g)
            assert agg.max_we >= agg.avg_we
            assert agg.max_relwe >= agg.avg_relwe

    def test_invariant_under_workload_reordering(self):
        from dpstream import WorkloadSet

        rng = np.random.default_rng(1)
        Q = enumerate_workloads(SCHEMA, 1)
        reversed_q = WorkloadSet(tuple(reversed(tuple(Q))))
        f = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 4.0, (1, 0): 2.0})
        g = WeightedDataset.from_mapping(SCHEMA, {(0, 1): 3.0, (1, 1): 3.0})
        assert evaluate_step(Q, f, g)[0] == evaluate_step(reversed_q, f, g)[0]


def reference_evaluate_step(workloads, true_data, synthetic):
    """Oracle: ``evaluate_step`` with every vector and mass computed afresh, nothing kept, in plain
    numpy: ``mean``, ``max`` and boolean masks."""
    we, relwe, excluded = [], [], 0
    for w in workloads:
        f, g = (
            np.bincount(w.point_cells(d.points), weights=d.weights, minlength=w.size)
            for d in (true_data, synthetic)
        )
        mass = float(true_data.weights.sum())
        we.append(float(np.abs(f / mass - g / mass).mean()))
        mask = f > 0
        excluded += int((~mask).sum())
        relwe.append(float(np.abs((f[mask] - g[mask]) / f[mask]).mean()))
    return (float(np.mean(we)), float(np.max(we)), float(np.mean(relwe)), float(np.max(relwe))), excluded


def assert_same_bits(got, want):
    assert got[1] == want[1] and type(got[1]) is int
    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()


class TestEvaluateStepMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=5), st.data())
    def test_matches_a_memo_free_oracle_bit_for_bit(self, cards, data):
        # cardinality-1 attributes included; both datasets share one points array
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 30))
        rows = np.column_stack([rng.integers(0, c, size=n) for c in cards])
        points = WeightedDataset(schema, rows, np.ones(n)).points
        a, b = (
            WeightedDataset._from_sorted(schema, points, rng.random(len(points)) * 4 + 0.25)
            for _ in range(2)
        )
        assert a.points is b.points and a.weights.tobytes() != b.weights.tobytes()
        workloads = enumerate_workloads(schema, data.draw(st.integers(1, 2)))
        for true_data, synthetic in ((a, b), (b, a), (a, b), (a, a), (b, b)):
            got = evaluate_step(workloads, true_data, synthetic)
            assert_same_bits(got, reference_evaluate_step(workloads, true_data, synthetic))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=4).filter(lambda c: max(c) > 1), st.data())
    def test_true_data_with_and_without_zero_cells_match_the_oracle(self, cards, data):
        # on the whole domain every true cell is positive (no masking); without the points whose
        # first non-constant attribute is 0, every workload over that attribute has zero cells
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        domain = np.indices(cards).reshape(len(cards), -1).T
        column = next(i for i, c in enumerate(cards) if c > 1)
        n = data.draw(st.integers(1, 40))
        synthetic = WeightedDataset(
            schema, np.column_stack([rng.integers(0, c, size=n) for c in cards]), rng.random(n) * 3
        )
        workloads = enumerate_workloads(schema, data.draw(st.integers(1, 2)))
        for rows, zero_cells in ((domain, False), (domain[domain[:, column] != 0], True)):
            true_data = WeightedDataset(schema, rows, rng.random(len(rows)) * 4 + 0.25)
            got = evaluate_step(workloads, true_data, synthetic)
            assert (got[1] > 0) == zero_cells
            assert_same_bits(got, reference_evaluate_step(workloads, true_data, synthetic))


class TestSummarizeTail:
    def test_constant_series(self):
        summary = summarize_tail(rows_from([0.5] * 12), window=10)
        assert summary == {"AvgWE": 0.5, "MaxWE": 0.5, "AvgRelWE": 0.5, "MaxRelWE": 0.5}

    def test_arithmetic_series(self):
        summary = summarize_tail(rows_from(range(1, 21)), window=10)
        assert summary["AvgWE"] == pytest.approx(15.5)

    def test_window_equal_to_length(self):
        summary = summarize_tail(rows_from([1.0, 2.0, 3.0]), window=3)
        assert summary["AvgWE"] == pytest.approx(2.0)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            summarize_tail(rows_from([1.0, 2.0]), window=10)
        with pytest.raises(ValueError):
            summarize_tail(rows_from([1.0]), window=0)

    @pytest.mark.parametrize("window", [True, 1.0, 2.5, "1"])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(ValueError, match=f"window must be an integer >= 1, got {window!r}"):
            summarize_tail(rows_from([1.0, 2.0]), window=window)
