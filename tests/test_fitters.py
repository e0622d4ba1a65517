import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dpstream import (
    DomainSchema,
    MarginalQuery,
    Measurement,
    MultiplicativeWeightsFitter,
    WeightedDataset,
    Workload,
    WorkingSupport,
    enumerate_workloads,
    eval_query,
    eval_workload,
    mw_fit,
    mw_update,
)
from dpstream.fitters import FitStats, mw_weights
from dpstream.queries import cover_workloads

SCHEMA = DomainSchema((("a", 2), ("b", 2)))
SCHEMA_1D = DomainSchema((("x", 2),))
SCHEMA_WIDE = DomainSchema(tuple((f"x{i}", 4) for i in range(10)))
# 8**22 = 2**66 points: too many for int64 point keys, so rows take the generic path
SCHEMA_HUGE = DomainSchema(tuple((f"x{i}", 8) for i in range(22)))
SCHEMA_UNIT = DomainSchema((("a", 3), ("b", 1), ("c", 5), ("d", 4)))


def random_rows(schema, n, rng):
    return np.column_stack([rng.integers(0, c, size=n) for c in schema.cardinalities]).astype(np.int64)


def joint_ranks(*arrays):
    """Oracle keys: each row's rank in one row-wise ``np.unique`` of all the arrays together, so
    ordered and equal as the rows are, but comparable only among these arrays."""
    _, ranks = np.unique(np.concatenate(arrays), axis=0, return_inverse=True)
    return np.split(ranks.reshape(-1), np.cumsum([len(a) for a in arrays])[:-1])


def reference_mw_weights(weights, cells, values, target_mass, passes):
    """Oracle: multiplicative weights as one update of the whole vector per cell.

    The loop before the one-pass scan: the zero entries are set aside, then
    each cell with live mass, in lexicographic order, has its weights
    multiplied by exp((measured - current) / (2 M)), clamped at +-50, and the
    vector is renormalized to M. A cell whose weights all underflowed to 0 in
    an earlier update is skipped, so only clamps that reweight something count.
    Returns the fit and its number of clamps.
    """
    out = weights * (target_mass / weights[weights != 0].sum())
    active = out != 0
    live = out[active]
    clamps = 0
    for _ in range(passes):
        for c, v in zip(cells, values):
            c = c[active]
            for cell in np.unique(c):
                matching = c == cell
                current = live[matching].sum()
                if current == 0:  # every weight in the cell underflowed: nothing to reweight
                    continue
                exponent = (v[cell] - current) / (2.0 * target_mass)
                if abs(exponent) > 50.0:
                    clamps += 1
                    exponent = math.copysign(50.0, exponent)
                live[matching] *= math.exp(exponent)
                live *= target_mass / live.sum()
    out[active] = live
    return out, clamps


@st.composite
def mw_problems(draw):
    """Weight vectors with zeros, workloads with unsupported cells, and values
    that either stay well inside the exponent clamp or force it at +-50."""
    n = draw(st.integers(1, 30))
    weights = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=n, max_size=n))
    )
    assume(weights.any())
    target = draw(st.floats(0.5, 1000.0))
    cells, values = [], []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 8))
        cells.append(np.array(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))))
        scaled = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([-1000.0, 1000.0]))
        values.append(target * np.array(draw(st.lists(scaled, min_size=size, max_size=size))))
    return weights, cells, values, target, draw(st.integers(1, 3))


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

    @pytest.mark.parametrize("passes", [2.5, True, 0, np.float64(2.0)])
    def test_passes_must_be_an_integer(self, passes):
        # 2.5 used to be accepted, then fail in range() at the first fit; True ran one pass
        init = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 1.0, (1, 1): 1.0})
        w = Workload(SCHEMA, (0,))
        meas = [Measurement(0, w, np.array([1.0, 1.0]))]
        with pytest.raises(ValueError, match="passes must be an integer"):
            MultiplicativeWeightsFitter(passes=passes)
        with pytest.raises(ValueError, match="passes must be an integer"):
            mw_fit(meas, init, 2.0, passes=passes)
        with pytest.raises(ValueError, match="passes must be an integer"):
            mw_weights(init.weights, [w.cell_indices(init)], [meas[0].values], 2.0, passes)
        assert MultiplicativeWeightsFitter(passes=np.int64(2)).passes == 2


class TestMwWeights:
    @pytest.mark.parametrize("passes", [1, 3])
    def test_zero_entries_take_no_part(self, passes):
        # a vector with zeros fits exactly like the dataset of its nonzero entries,
        # down to the rescale and the per-cell sums that leave the zeros out
        schema = DomainSchema((("a", 6), ("b", 7), ("c", 5)))
        support = WorkingSupport(schema, seed_size=1000, seed=0)
        workloads = enumerate_workloads(schema, 2)
        cover = cover_workloads(workloads, support.points)  # its cells are narrow: uint8
        rng = np.random.default_rng(9)
        for _ in range(10):
            weights = rng.random(len(support)) * 3
            weights[rng.random(len(support)) < 0.3] = 0.0
            dataset = WeightedDataset(schema, support.points, weights)
            target = float(rng.uniform(50, 100))
            picked = [workloads[i] for i in rng.choice(len(workloads), size=2, replace=False)]
            meas = [Measurement(i, w, rng.uniform(0, target / 4, size=w.size)) for i, w in enumerate(picked)]
            got = mw_weights(
                weights, [cover.cells(w) for w in picked], [m.values for m in meas], target, passes
            )
            want = mw_fit(meas, dataset, target, passes=passes)
            assert got.shape == weights.shape and (got[weights == 0] == 0).all()
            assert got[got != 0].tobytes() == want.weights.tobytes()


    @settings(max_examples=300, deadline=None)
    @given(mw_problems())
    # point 7's weight underflows to 0 in pass 3; its cell is then skipped, not clamped
    @example(problem=(
        np.array([0.0] * 7 + [1.0] + [0.0] * 10 + [1.0] + [0.0] * 5),
        [
            np.array([0] * 7 + [4] + [0] * 16),
            np.array([0] * 7 + [4] + [0] * 10 + [5] + [0] * 5),
            np.array([0] * 18 + [6] + [0] * 5),
        ],
        [
            np.array([1000.0, 0.0, 0.0, 0.0, -1000.0]),
            np.array([0.0, 0.0, 0.0, 0.0, -1000.0, 1000.0]),
            np.array([-1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1000.0]),
        ],
        1.0,
        3,
    ))
    # point 10's weight ends subnormal in the per-cell updates (4.9e-324) and 0.0 in the scan
    @example(problem=(
        np.array([0.0] * 8 + [1.0, 0.0, 2.0] + [0.0] * 4),
        [
            np.array([0] * 8 + [4, 0, 5] + [0] * 4),
            np.array([0] * 8 + [3] + [0] * 6),
            np.array([0] * 10 + [4] + [0] * 4),
        ],
        [
            np.array([-15000.0, -15000.0, -15000.0, -15000.0, 15000.0, -15000.0]),
            np.array([-15000.0, -15000.0, -15000.0, 15000.0]),
            np.array([0.0, -15000.0, -15000.0, -15000.0, -15000.0]),
        ],
        15.0,
        3,
    ))
    # point 9's weights underflow in pass 3 when point 6's cell, ahead of its own, is
    # renormalized: its cell's sum is nonzero when the sweep starts but 0 at its turn
    @example(problem=(
        np.array([0.0] * 6 + [1.0, 0.0, 0.0, 1.0] + [0.0] * 9),
        [
            np.array([0] * 6 + [1] + [0] * 12),
            np.array([0] * 9 + [2] + [0] * 9),
            np.array([0] * 6 + [1] + [0] * 12),
        ],
        [
            np.array([-1000.0, 1000.0]),
            np.array([1000.0, 0.0, -1000.0]),
            np.array([-1000.0, 1000.0]),
        ],
        1.0,
        3,
    ))
    def test_one_pass_scan_matches_per_cell_updates(self, problem):
        weights, cells, values, target, passes = problem
        stats = FitStats()
        got = mw_weights(weights, cells, values, target, passes, stats)
        want, clamps = reference_mw_weights(weights, cells, values, target, passes)
        # below the normal range a float carries no relative precision
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).smallest_normal)
        assert (got[weights == 0] == 0).all()
        assert stats.clamped_exponents == clamps

    def test_cell_holding_all_the_mass_clamps_without_losing_it(self):
        # cell 0 holds all but 1e-300 of the mass and its exponent clamps at -50:
        # M + current * (exp(-50) - 1) rounds to exactly 0, but the cell sums
        # still leave a positive normalizer
        weights, cells = np.array([1.0, 1.0, 1.0, 1e-300]), [np.array([0, 0, 0, 1])]
        values = [np.array([-1000.0, 0.0])]
        stats = FitStats()
        got = mw_weights(weights, cells, values, 3.0, stats=stats)
        want, clamps = reference_mw_weights(weights, cells, values, 3.0, 1)
        assert stats.clamped_exponents == clamps == 1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got.sum() == pytest.approx(3.0)


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

    # keyed schemas of 1,024 and 4**10 points, where 500 draws repeat, and schemas of 2**66 and
    # exactly 2**63 points, which have no int64 keys
    @pytest.mark.parametrize(
        "schema",
        [
            DomainSchema(tuple((f"x{i}", 2) for i in range(10))),
            SCHEMA_WIDE,
            SCHEMA_HUGE,
            DomainSchema((("a", 2**62), ("b", 1), ("c", 2))),
        ],
        ids=["keys-small", "keys", "rows", "rows-at-the-limit"],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_sample_is_the_sorted_distinct_seed_draws(self, schema, seed):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 3))))
        draws = np.column_stack([rng.integers(0, c, size=500) for c in schema.cardinalities])
        support = WorkingSupport(schema, seed_size=500, seed=seed)
        distinct = sorted(set(map(tuple, draws.tolist())))
        assert [tuple(p) for p in support.points.tolist()] == distinct
        assert support.points.dtype == np.int64 and support.points.flags.f_contiguous
        assert (len(distinct) < 500) == (schema.size == 2**10)

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

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([SCHEMA_HUGE, SCHEMA_UNIT, SCHEMA]),
            st.lists(st.integers(1, 6), min_size=1, max_size=6).map(
                lambda cards: DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
            ),
        ),
        st.integers(1, 80),
        st.lists(st.integers(0, 12), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_observe_looks_points_up_and_changes_nothing(self, schema, seed_size, sizes, seed):
        # oracle: membership in the set of support rows, and each row's position in the support
        support = WorkingSupport(schema, seed_size=seed_size, seed=seed % 7)
        workloads = list(enumerate_workloads(schema, min(2, schema.num_attributes)))[:5]
        # a cover on the support's points keeps its cells: observe moves no point under them
        cover = cover_workloads(workloads, support.points)
        cached = [cover.cells(w) for w in workloads]
        points, keys, before = support.points, support._keys, support.points.copy()
        position = {p: i for i, p in enumerate(map(tuple, before.tolist()))}
        rng = np.random.default_rng(seed)
        for n in sizes:  # half of the rows from the support, half from the whole domain
            rows = np.concatenate(
                [before[rng.integers(0, len(before), size=n // 2)], random_rows(schema, n - n // 2, rng)]
            )
            delta = WeightedDataset(schema, rows, np.ones(len(rows)))
            at, held = support.observe(delta)
            want = [position.get(p) for p in map(tuple, delta.points.tolist())]
            assert held.dtype == bool and held.tolist() == [i is not None for i in want]
            assert at.dtype == np.intp and at.tolist() == [i for i in want if i is not None]
            assert support.points is points and not points.flags.writeable
            assert np.array_equal(points, before) and support._keys is keys
            assert all(cover.cells(w) is cells for w, cells in zip(workloads, cached))
            assert all(np.array_equal(w.point_cells(support.points), c) for w, c in zip(workloads, cached))

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.just(SCHEMA_HUGE),
            # no int64 keys; coordinates up to 2**40 and cardinality-1 attributes included
            st.lists(st.integers(1, 2**40), min_size=2, max_size=8)
            .filter(lambda cards: math.prod(cards) >= 2**63)
            .map(lambda cards: DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))),
        ),
        st.integers(1, 300),
        st.lists(st.integers(0, 40), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_keyless_lookups_match_the_joint_rank_route(self, schema, seed_size, sizes, seed):
        # the route before the support kept its sorted rows: rank the support and the other rows
        # together (joint_ranks, a row-wise np.unique), then binary-search one side's ranks
        support = WorkingSupport(schema, seed_size=seed_size, seed=seed % 7)
        assert schema.key_strides is None and support._keys.dtype.names is not None
        rng = np.random.default_rng(seed)
        cards = np.array(schema.cardinalities)
        for n in sizes:  # support rows, their neighbours in one coordinate, and random rows
            near = support.points[rng.integers(0, len(support), size=n)]
            column = rng.integers(0, len(cards), size=n)
            near[np.arange(n), column] = (near[np.arange(n), column] + 1) % cards[column]
            rows = np.concatenate(
                [support.points[rng.integers(0, len(support), size=n)], near, random_rows(schema, n, rng)]
            )
            delta = WeightedDataset(schema, rows, rng.random(len(rows)) + 0.5)
            keys, delta_keys = joint_ranks(support.points, delta.points)
            want = np.searchsorted(keys, delta_keys).clip(max=len(keys) - 1)
            want_held = keys[want] == delta_keys
            at, held = support.observe(delta)
            assert np.array_equal(held, want_held) and np.array_equal(at, want[want_held])
            assert held.sum() >= len(np.unique(rows[:n], axis=0))  # every support row is found
            if len(delta):  # extend looks the support's rows up in the dataset's
                back = np.searchsorted(delta_keys, keys).clip(max=len(delta_keys) - 1)
                found = delta_keys[back] == keys
                weights = np.full(len(support), 0.25)
                weights[found] = delta.weights[back[found]]
                assert support.extend(delta, fill=0.25).weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize(
        "seed_size, seed, match",
        [(True, 0, "seed support size"), (2.5, 0, "seed support size"), (0, 0, "seed support size"),
         (50, 2.7, "seed"), (50, True, "seed"), (50, -1, "seed")],
    )
    def test_integer_arguments_are_checked(self, seed_size, seed, match):
        # seed 2.7 used to run as seed 2 and True as seed 1; a bool or float size ended in numpy
        with pytest.raises(ValueError, match=match):
            WorkingSupport(SCHEMA_WIDE, seed_size=seed_size, seed=seed)
        got = WorkingSupport(SCHEMA_WIDE, seed_size=np.int64(50), seed=np.int32(2))
        assert np.array_equal(got.points, WorkingSupport(SCHEMA_WIDE, seed_size=50, seed=2).points)

    def test_unit_and_uniform_datasets(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        assert support.uniform_dataset(len(support)).as_mapping() == {
            (a, b): 1.0 for a in range(2) for b in range(2)
        }
        u = support.uniform_dataset(10.0)
        assert u.total_mass() == pytest.approx(10.0)
        assert np.allclose(u.weights, 2.5)


class TestFitterFactory:
    def test_mw_fitter_applies_newest_measurement(self):
        support = WorkingSupport(SCHEMA, seed_size=100, seed=0)
        fitter = MultiplicativeWeightsFitter()
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
        fitter = MultiplicativeWeightsFitter(passes=3)
        init = support.uniform_dataset(4.0)
        w0, w1 = enumerate_workloads(SCHEMA, 1)
        older = Measurement(0, w0, np.array([4.0, 0.0]))
        newest = Measurement(1, w1, np.array([0.0, 4.0]))
        out = fitter.fit([older, newest], init, 4.0)
        expected = mw_fit([newest], init, 4.0)
        expected = mw_fit([older, newest], expected, 4.0, passes=2)
        assert out.as_mapping() == pytest.approx(expected.as_mapping())
