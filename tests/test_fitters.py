import math

import numpy as np
import pytest

from dpstream import (
    DomainSchema,
    MarginalQuery,
    Measurement,
    WeightedDataset,
    Workload,
    WorkingSupport,
    enumerate_workloads,
    eval_query,
    eval_workload,
    make_fitter,
    mw_fit,
    mw_update,
)

SCHEMA = DomainSchema((("a", 2), ("b", 2)))
SCHEMA_1D = DomainSchema((("x", 2),))
SCHEMA_WIDE = DomainSchema(tuple((f"x{i}", 4) for i in range(10)))
# 8**22 = 2**66 points: too many for int64 point keys, so rows take the generic path
SCHEMA_HUGE = DomainSchema(tuple((f"x{i}", 8) for i in range(22)))


def relative_entropy(true_data, h):
    """Oracle: (1/|f|) sum_x f(x) ln(f(x)/h(x)) on a dense domain."""
    f = true_data.as_mapping()
    hm = h.as_mapping()
    mass = true_data.total_mass()
    out = 0.0
    for point, fw in f.items():
        if fw > 0:
            out += fw * math.log(fw / hm[point])
    return out / mass


class TestMwUpdate:
    def test_fixed_point_when_measurement_matches(self):
        h = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 1.5, (1, 1): 2.5})
        q = MarginalQuery((0,), (0,))
        out = mw_update(h, q, measured=1.5, target_mass=4.0)
        assert out.as_mapping() == pytest.approx(h.as_mapping())

    def test_two_point_closed_form(self):
        # oracle: weights proportional to (e^{1/4}, 1), renormalized to mass 2
        h = WeightedDataset.from_mapping(SCHEMA_1D, {(0,): 1.0, (1,): 1.0})
        q = MarginalQuery((0,), (0,))
        out = mw_update(h, q, measured=2.0, target_mass=2.0)
        e = math.exp(0.25)
        expected = {(0,): 2 * e / (1 + e), (1,): 2 / (1 + e)}
        got = out.as_mapping()
        assert got[(0,)] == pytest.approx(expected[(0,)], abs=1e-12)
        assert got[(1,)] == pytest.approx(expected[(1,)], abs=1e-12)

    def test_update_keeps_weights_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = WeightedDataset.from_mapping(
                SCHEMA, {(x, y): float(rng.uniform(0.1, 5)) for x in range(2) for y in range(2)}
            )
            q = MarginalQuery((int(rng.integers(2)),), (int(rng.integers(2)),))
            measured = float(rng.uniform(-10, 10))
            out = mw_update(h, q, measured, target_mass=h.total_mass())
            assert len(out) == len(h)
            assert (out.weights > 0).all()

    def test_zero_mass_rejected(self):
        q = MarginalQuery((0,), (0,))
        with pytest.raises(ValueError, match="positive-mass"):
            mw_update(WeightedDataset.empty(SCHEMA), q, 1.0, 1.0)

    def test_nonfinite_exponent_rejected(self):
        h = WeightedDataset.from_mapping(SCHEMA_1D, {(0,): 1.0})
        q = MarginalQuery((0,), (0,))
        with pytest.raises(ValueError, match="non-finite"):
            mw_update(h, q, math.nan, 1.0)

    def test_huge_exponent_is_clamped_not_fatal(self):
        h = WeightedDataset.from_mapping(SCHEMA_1D, {(0,): 1.0, (1,): 1.0})
        q = MarginalQuery((0,), (0,))
        out = mw_update(h, q, measured=1e6, target_mass=2.0)
        assert out.total_mass() == pytest.approx(2.0)


class TestMwFit:
    def test_empty_measurements_rescale_only(self):
        init = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 1.0, (1, 1): 3.0})
        out = mw_fit([], init, target_mass=8.0)
        assert out.total_mass() == pytest.approx(8.0)
        assert out.as_mapping()[(0, 0)] == pytest.approx(2.0)

    def test_single_cell_measurement_equals_mw_update(self):
        # on an init already at target mass, one single-cell workload sweep
        # reproduces the lone mw_update exactly, cell by cell
        init = WeightedDataset.from_mapping(SCHEMA_1D, {(0,): 1.0, (1,): 1.0})
        w = Workload(SCHEMA_1D, (0,))
        meas = Measurement(0, w, np.array([2.0, 0.0]))
        by_fit = mw_fit([meas], init, target_mass=2.0)
        by_updates = mw_update(init, MarginalQuery((0,), (0,)), 2.0, 2.0)
        by_updates = mw_update(by_updates, MarginalQuery((0,), (1,)), 0.0, 2.0)
        assert by_fit.as_mapping() == pytest.approx(by_updates.as_mapping())

    def test_mass_preserved_to_relative_tolerance(self):
        rng = np.random.default_rng(5)
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        for _ in range(20):
            target = float(rng.uniform(1, 50))
            init = support.uniform_dataset(float(rng.uniform(1, 20)))
            meas = [
                Measurement(i, w, rng.uniform(-5, target, size=w.size))
                for i, w in enumerate(enumerate_workloads(SCHEMA, 1))
            ]
            out = mw_fit(meas, init, target, passes=3)
            assert out.total_mass() == pytest.approx(target, rel=1e-9)

    def test_support_preserved(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        init = support.uniform_dataset(4.0)
        w = Workload(SCHEMA, (0,))
        out = mw_fit([Measurement(0, w, np.array([4.0, 0.0]))], init, 4.0, passes=5)
        assert len(out) == len(init)
        assert (out.weights > 0).all()

    def test_convergence_on_consistent_measurements(self):
        # exact measurements of both 1-way workloads drive the fitted
        # marginals onto them
        f = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 6.0, (1, 1): 2.0, (0, 1): 1.0})
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        init = support.uniform_dataset(f.total_mass())
        workloads = enumerate_workloads(SCHEMA, 1)
        meas = [Measurement(i, w, eval_workload(w, f)) for i, w in enumerate(workloads)]
        h = mw_fit(meas, init, f.total_mass(), passes=50)
        worst = max(
            float(np.abs(eval_workload(w, h) - m.values).max())
            for w, m in zip(workloads, meas)
        )
        assert worst < 1e-3

    def test_invalid_arguments(self):
        init = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            mw_fit([], init, target_mass=0.0)
        with pytest.raises(ValueError):
            mw_fit([], init, target_mass=1.0, passes=0)


class TestRelativeEntropyDecrease:
    def test_single_update_lower_bound(self):
        # oracle inequality: with |exponent| <= 1, the relative-entropy drop of
        # one update is at least ((q(h)-q(f))/(2|f|))^2 - ((m-q(f))/(2|f|))^2
        rng = np.random.default_rng(12)
        violations = 0
        for _ in range(300):
            cards = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            schema = DomainSchema((("a", cards[0]), ("b", cards[1])))
            points = [(x, y) for x in range(cards[0]) for y in range(cards[1])]
            f = WeightedDataset.from_mapping(
                schema, {p: float(rng.uniform(0.2, 5)) for p in points}
            )
            mass = f.total_mass()
            raw = {p: float(rng.uniform(0.2, 5)) for p in points}
            scale = mass / sum(raw.values())
            h = WeightedDataset.from_mapping(schema, {p: w * scale for p, w in raw.items()})
            col = int(rng.integers(2))
            q = MarginalQuery((col,), (int(rng.integers(cards[col])),))
            measured = eval_query(q, h) + float(rng.uniform(-1, 1)) * 2 * mass
            before = relative_entropy(f, h)
            after = relative_entropy(f, mw_update(h, q, measured, mass))
            qf, qh = eval_query(q, f), eval_query(q, h)
            bound = ((qh - qf) / (2 * mass)) ** 2 - ((measured - qf) / (2 * mass)) ** 2
            if before - after < bound - 1e-9:
                violations += 1
        assert violations == 0


class TestWorkingSupport:
    def test_small_domain_enumerated_densely(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        assert len(support) == 4
        assert support.points.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_large_domain_sampled_deterministically(self):
        schema = DomainSchema(tuple((f"x{i}", 4) for i in range(10)))
        a = WorkingSupport(schema, seed_size=500, seed=7)
        b = WorkingSupport(schema, seed_size=500, seed=7)
        c = WorkingSupport(schema, seed_size=500, seed=8)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert len(a) <= 500

    def test_observe_unions_new_points(self):
        schema = DomainSchema(tuple((f"x{i}", 4) for i in range(10)))
        support = WorkingSupport(schema, seed_size=50, seed=0)
        before = len(support)
        fresh = WeightedDataset.from_mapping(schema, {(3,) * 10: 1.0, (0,) * 10: 2.0})
        support.observe(fresh)
        assert len(support) >= before
        rows = {tuple(p) for p in support.points.tolist()}
        assert (3,) * 10 in rows and (0,) * 10 in rows

    def test_extend_fills_new_points_with_unit_weight(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        partial = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 5.0})
        full = support.extend(partial)
        assert full.as_mapping() == {(0, 0): 5.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}

    @pytest.mark.parametrize("schema", [SCHEMA_WIDE, SCHEMA_HUGE], ids=["keys", "rows"])
    def test_extend_matches_lookup_and_drops_points_off_support(self, schema):
        support = WorkingSupport(schema, seed_size=200, seed=1)
        rng = np.random.default_rng(2)
        inside = support.points[rng.choice(len(support), size=20, replace=False)]
        outside = np.column_stack([rng.integers(0, c, size=20) for c in schema.cardinalities])
        on_support = {tuple(p) for p in support.points.tolist()}
        outside = outside[[tuple(p) not in on_support for p in outside.tolist()]]
        assert len(outside) > 0
        points = np.concatenate([inside, outside])
        dataset = WeightedDataset(schema, points, rng.random(len(points)) + 0.5)
        full = support.extend(dataset, fill=0.25)
        existing = dataset.as_mapping()
        expected = [existing.get(tuple(p), 0.25) for p in support.points.tolist()]
        assert np.array_equal(full.points, support.points)
        assert full.weights.tolist() == expected

    def test_extend_of_empty_dataset_is_all_fill(self):
        support = WorkingSupport(SCHEMA_WIDE, seed_size=50, seed=0)
        full = support.extend(WeightedDataset.empty(SCHEMA_WIDE), fill=2.0)
        assert np.array_equal(full.points, support.points)
        assert (full.weights == 2.0).all()

    @pytest.mark.parametrize("schema", [SCHEMA_WIDE, SCHEMA_HUGE], ids=["keys", "rows"])
    def test_support_stays_sorted_and_unique(self, schema):
        support = WorkingSupport(schema, seed_size=300, seed=3)
        rng = np.random.default_rng(4)
        for n in (40, 1, 40, 1):
            assert np.array_equal(support.points, np.unique(support.points, axis=0))
            rows = np.column_stack([rng.integers(0, c, size=n) for c in schema.cardinalities])
            rows = np.concatenate([rows, support.points[:10]])  # some already on the support
            expected = np.unique(np.concatenate([support.points, rows]), axis=0)
            support.observe(WeightedDataset(schema, rows, np.ones(len(rows))))
            assert np.array_equal(support.points, expected)

    def test_unit_and_uniform_datasets(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        assert support.unit_dataset().total_mass() == 4.0
        u = support.uniform_dataset(10.0)
        assert u.total_mass() == pytest.approx(10.0)
        assert np.allclose(u.weights, 2.5)


class TestFitterFactory:
    def test_mw_fitter_applies_newest_measurement(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        fitter = make_fitter("mw", support)
        init = support.uniform_dataset(4.0)
        w0, w1 = enumerate_workloads(SCHEMA, 1)
        older = Measurement(0, w0, np.array([4.0, 0.0]))
        newest = Measurement(1, w1, np.array([0.0, 4.0]))
        out = fitter.fit([older, newest], init, 4.0)
        # with one pass only the newest measurement is applied
        expected = mw_fit([newest], init, 4.0)
        assert out.as_mapping() == pytest.approx(expected.as_mapping())

    def test_mw_fitter_replays_with_extra_passes(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        fitter = make_fitter("mw", support, passes=3)
        init = support.uniform_dataset(4.0)
        w0, w1 = enumerate_workloads(SCHEMA, 1)
        older = Measurement(0, w0, np.array([4.0, 0.0]))
        newest = Measurement(1, w1, np.array([0.0, 4.0]))
        out = fitter.fit([older, newest], init, 4.0)
        expected = mw_fit([newest], init, 4.0)
        expected = mw_fit([older, newest], expected, 4.0, passes=2)
        assert out.as_mapping() == pytest.approx(expected.as_mapping())

    def test_pgm_is_an_unimplemented_slot(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        with pytest.raises(NotImplementedError):
            make_fitter("pgm", support)

    def test_unknown_fitter_rejected(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        with pytest.raises(ValueError):
            make_fitter("nn", support)
