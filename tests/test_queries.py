import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpstream import (
    DomainSchema,
    MarginalQuery,
    WeightedDataset,
    Workload,
    accumulate,
    enumerate_workloads,
    eval_query,
    eval_workload,
)
from dpstream import queries
from dpstream.fitters import WorkingSupport
from dpstream.queries import cell_values, cover_workloads, stride_cells, stride_matrix

SCHEMA = DomainSchema((("a", 2), ("b", 2)))
SCHEMA_243 = DomainSchema((("a", 2), ("b", 4), ("c", 3)))


def part(cover, flat, i):
    """Workload ``i``'s values in a flat vector of ``cover``'s layout."""
    return flat[cover.offsets[i] : cover.offsets[i] + cover.sizes[i]]


def joint_runs(cover):
    """Each workload's joint index in ``cover.joints``, and where its run of joint cells starts in
    ``cover.gather`` (one more entry: its length). Joints lie end to end in ``joints`` order, and a
    workload's flat cells sum cells of its joint alone, so the first gathered cell names the joint."""
    runs = np.append(cover.starts[cover.offsets], len(cover.gather))
    ends = np.cumsum([joint.size for joint in cover.joints])
    return np.searchsorted(ends, cover.gather[runs[:-1]], side="right"), runs


def query_at(workload, cell):
    """The marginal query of ``workload``'s lexicographic cell ``cell``, first column slowest."""
    values = np.unravel_index(cell, workload.cell_shape)
    return MarginalQuery(workload.columns, tuple(int(v) for v in values))


def brute_force_workload(workload, dataset):
    """Oracle: evaluate every cell by scanning the full domain table."""
    cards = dataset.schema.cardinalities
    table = {}
    for point, w in dataset.items():
        table[point] = table.get(point, 0.0) + w
    out = []
    shape = [cards[c] for c in workload.columns]
    for values in itertools.product(*(range(s) for s in shape)):
        cell = 0.0
        for point in itertools.product(*(range(c) for c in cards)):
            if all(point[c] == v for c, v in zip(workload.columns, values)):
                cell += table.get(point, 0.0)
        out.append(cell)
    return np.array(out)


def random_dataset(schema, rng, max_points=6):
    cards = schema.cardinalities
    cells = {}
    for _ in range(int(rng.integers(0, max_points + 1))):
        point = tuple(int(rng.integers(c)) for c in cards)
        cells[point] = cells.get(point, 0.0) + float(rng.integers(1, 5))
    return WeightedDataset.from_mapping(schema, cells)


class TestMarginalQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarginalQuery((), ())
        with pytest.raises(ValueError, match="strictly increasing"):
            MarginalQuery((1, 0), (0, 0))
        with pytest.raises(ValueError, match="length"):
            MarginalQuery((0, 1), (0,))

    @pytest.mark.parametrize("bad", [True, 1.7, 1.0, "1", None, -1])
    def test_columns_and_values_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="query column must be an integer >= 0"):
            MarginalQuery((bad,), (1,))
        with pytest.raises(ValueError, match="query value must be an integer >= 0"):
            MarginalQuery((1,), (bad,))
        query = MarginalQuery((np.int64(0), 2), (np.uint8(1), 0))
        assert (query.columns, query.values) == ((0, 2), (1, 0))
        assert all(type(v) is int for v in query.columns + query.values)

    def test_empty_dataset_gives_zero(self):
        q = MarginalQuery((0,), (1,))
        assert eval_query(q, WeightedDataset.empty(SCHEMA)) == 0.0

    def test_single_column_restriction(self):
        # oracle: enumerate both points and apply the indicator by hand
        d = WeightedDataset.from_mapping(SCHEMA, {(0, 1): 2.0, (1, 1): 3.0})
        assert eval_query(MarginalQuery((0,), (0,)), d) == 2.0
        assert eval_query(MarginalQuery((0,), (1,)), d) == 3.0
        assert eval_query(MarginalQuery((1,), (1,)), d) == 5.0

    def test_fully_specified_query_selects_one_point(self):
        d = WeightedDataset.from_mapping(SCHEMA, {(0, 1): 2.0, (1, 1): 3.0})
        assert eval_query(MarginalQuery((0, 1), (0, 1)), d) == 2.0
        assert eval_query(MarginalQuery((0, 1), (1, 0)), d) == 0.0

    def test_column_out_of_range(self):
        d = WeightedDataset.empty(SCHEMA)
        with pytest.raises(ValueError, match="out of range"):
            eval_query(MarginalQuery((5,), (0,)), d)

    def test_value_out_of_range(self):
        d = WeightedDataset.empty(SCHEMA)
        with pytest.raises(ValueError, match="out of range"):
            eval_query(MarginalQuery((0,), (2,)), d)


class TestWorkload:
    @pytest.mark.parametrize("bad", [0.9, 1.2, True, "1", None, -1])
    def test_columns_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="workload column must be an integer >= 0"):
            Workload(SCHEMA_243, (0, bad))
        workload = Workload(SCHEMA_243, (np.int64(0), np.int32(2)))
        assert workload.columns == (0, 2) and all(type(c) is int for c in workload.columns)

    def test_size_is_product_of_cardinalities(self):
        w = Workload(SCHEMA_243, (1, 2))
        assert w.size == 12
        assert w.cell_shape == (4, 3)

    def test_cells_in_lexicographic_order(self):
        # the values of cells 0, 1, ... count up with the first column slowest
        w = Workload(SCHEMA_243, (0, 2))
        for cell, (a, c) in enumerate(itertools.product(range(2), range(3))):
            d = WeightedDataset.from_mapping(SCHEMA_243, {(a, 1, c): 1.0})
            assert w.cell_indices(d).tolist() == [cell]

    def test_one_way_vector(self):
        d = WeightedDataset.from_mapping(SCHEMA, {(0, 0): 2.0, (1, 0): 5.0})
        assert eval_workload(Workload(SCHEMA, (0,)), d).tolist() == [2.0, 5.0]

    def test_vector_sums_to_total_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = random_dataset(SCHEMA_243, rng)
            for w in enumerate_workloads(SCHEMA_243, 2):
                assert eval_workload(w, d).sum() == pytest.approx(d.total_mass(), abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        w = Workload(SCHEMA_243, (0, 1))
        a, b = random_dataset(SCHEMA_243, rng), random_dataset(SCHEMA_243, rng)
        merged = eval_workload(w, accumulate(a, b))
        assert np.allclose(merged, eval_workload(w, a) + eval_workload(w, b))

    def test_matches_brute_force_contingency_table(self):
        # oracle: dense scan of the 24-point domain
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = random_dataset(SCHEMA_243, rng)
            for w in enumerate_workloads(SCHEMA_243, 2):
                assert np.allclose(eval_workload(w, d), brute_force_workload(w, d))

    def test_cells_partition_the_domain(self):
        # every point matches exactly one query of any workload
        for w in enumerate_workloads(SCHEMA_243, 2):
            for point in itertools.product(*(range(c) for c in SCHEMA_243.cardinalities)):
                d = WeightedDataset.from_mapping(SCHEMA_243, {point: 1.0})
                matches = [cell for cell in range(w.size) if eval_query(query_at(w, cell), d) == 1.0]
                assert len(matches) == 1

    @settings(max_examples=30)
    @given(st.integers(0, 1), st.integers(0, 3), st.integers(0, 2))
    def test_cell_index_agrees_with_query_at(self, x, y, z):
        d = WeightedDataset.from_mapping(SCHEMA_243, {(x, y, z): 1.0})
        for w in enumerate_workloads(SCHEMA_243, 2):
            cell = int(w.cell_indices(d)[0])
            assert eval_query(query_at(w, cell), d) == 1.0


    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=6),
        st.data(),
        st.sampled_from(["C", "F"]),
    )
    def test_point_cells_equal_ravel_multi_index(self, cards, data, order):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        arity = data.draw(st.integers(1, min(3, len(cards))))
        columns = tuple(sorted(data.draw(st.permutations(range(len(cards))))[:arity]))
        workload = Workload(schema, columns)
        n = data.draw(st.integers(0, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = np.column_stack([rng.integers(0, c, size=n) for c in cards]).astype(np.int64)
        points = np.asarray(points, order=order)
        before = points.copy()
        got = workload.point_cells(points)
        # reference: the row-major ravel this replaced
        want = np.ravel_multi_index(tuple(points[:, c] for c in columns), workload.cell_shape)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert np.array_equal(got, want)
        assert np.array_equal(points, before)
        assert not np.shares_memory(got, points)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.data())
    def test_stride_cells_equal_point_cells(self, cards, data):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        workloads = [w for k in (1, 2, 3) if k <= len(cards) for w in enumerate_workloads(schema, k)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = np.column_stack([rng.integers(0, c, size=25) for c in cards])
        cells = stride_cells(points, stride_matrix(workloads, len(cards)))
        assert cells.dtype == np.int64
        for i, w in enumerate(workloads):
            assert np.array_equal(cells[:, i], w.point_cells(points))

    def test_point_cells_reject_workloads_past_int64(self):
        # 2**21 * 2**21 * 2**21 = 2**63 cells: one more than the largest int64
        schema = DomainSchema(tuple((f"x{i}", 2**21) for i in range(3)))
        workload = Workload(schema, (0, 1, 2))
        assert workload.size == 2**63
        points = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="too many for int64"):
            workload.point_cells(points)
        just_fits = Workload(DomainSchema((("a", 2**31), ("b", 2**31 - 1))), (0, 1))
        top = np.array([[2**31 - 1, 2**31 - 2]], dtype=np.int64)
        assert just_fits.point_cells(top).tolist() == [just_fits.size - 1]


def build_cover(workloads, support, cap, limit=queries.DENSE_LIMIT):
    """``queries._cover`` of ``workloads`` on the support's points with joints of at most ``cap``
    cells, built under a ``DENSE_LIMIT`` of ``limit`` (0 for the joint path)."""
    with mock.patch.object(queries, "DENSE_LIMIT", limit):
        return queries._cover(workloads, support.points, cap)


def searched_layout(workloads, max_cells):
    """Oracle: ``_cover``'s joints, gather and starts as an earlier construction searched for them.
    The same greedy grouping, then each member's joint positions ordered by a stable argsort of
    its cells at every joint cell, with its run lengths counted by bincount."""
    schema = workloads[0].schema
    groups = []  # [column set, joint size, member indices]
    for i in sorted(range(len(workloads)), key=lambda i: -workloads[i].size):
        best, best_size = None, max_cells + 1
        for group in groups:
            union = group[0] | set(workloads[i].columns)
            size = Workload(schema, tuple(sorted(union))).size
            if size < best_size:
                best, best_size = group, size
        if best is None:
            groups.append([set(workloads[i].columns), workloads[i].size, [i]])
        else:
            best[:] = best[0] | set(workloads[i].columns), best_size, best[2] + [i]
    joints, runs, base = [], [None] * len(workloads), 0
    for columns, _, members in groups:
        joint = Workload(schema, tuple(sorted(columns)))
        shape = [card if c in columns else 1 for c, card in enumerate(schema.cardinalities)]
        grid = np.indices(shape).reshape(len(shape), -1).T
        for i in members:
            runs[i] = base, workloads[i].point_cells(grid)
        joints.append(joint)
        base += joint.size
    gather = np.concatenate([start + np.argsort(cells, kind="stable") for start, cells in runs])
    counts = np.concatenate([np.bincount(cells, minlength=w.size) for (_, cells), w in zip(runs, workloads)])
    return joints, gather, np.cumsum(counts) - counts


class TestCoverWorkloads:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=1, max_size=6), st.data())
    def test_layout_is_the_searched_one_and_mean_abs_its_workload_means(self, cards, data):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        tuples = [cols for k in (1, 2, 3) for cols in itertools.combinations(range(len(cards)), k)]
        picked = data.draw(st.lists(st.sampled_from(tuples), min_size=1, unique=True))
        workloads = [Workload(schema, cols) for cols in picked]
        cap = data.draw(st.sampled_from([0, 1, 6, 40, 10**9]))
        support = WorkingSupport(schema, seed_size=60, seed=data.draw(st.integers(0, 99)))
        cover = queries._cover(workloads, support.points, cap)
        joints, gather, starts = searched_layout(workloads, cap)
        assert cover.joints == tuple(joints)
        assert cover.gather.dtype == gather.dtype == np.intp and cover.gather.tobytes() == gather.tobytes()
        assert cover.starts.dtype == starts.dtype and cover.starts.tobytes() == starts.tobytes()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        flat = rng.normal(size=len(cover.starts)) * (rng.random(len(cover.starts)) < 0.7)
        got = cover.mean_abs(flat)
        assert got.shape == (len(workloads),)
        for i in range(len(workloads)):
            np.testing.assert_allclose(got[i], np.abs(part(cover, flat, i)).mean(), rtol=1e-12, atol=0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([1, 1, 2, 3, 5]), min_size=1, max_size=6), st.data())
    def test_groups_partition_workloads_and_marginals_match(self, cards, data):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        tuples = [
            cols for k in (1, 2, 3) for cols in itertools.combinations(range(len(cards)), k)
        ]
        picked = data.draw(st.lists(st.sampled_from(tuples), min_size=1, unique=True))
        workloads = [Workload(schema, cols) for cols in picked]
        cap = data.draw(st.sampled_from([0, 1, 6, 40, 10**9]))
        seed = data.draw(st.integers(0, 99))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # seed size 60 enumerates domains of up to 60 points; a seed size below the
        # domain size always samples. Each is scored on the dense path where its matrix
        # fits DENSE_LIMIT, and on the joint path with a limit of 0
        supports = [WorkingSupport(schema, seed_size=60, seed=seed)]
        if schema.size > 1:
            supports.append(WorkingSupport(schema, seed_size=min(60, schema.size - 1), seed=seed))
        covers = [
            (support, build_cover(workloads, support, cap, limit))
            for support, limit in itertools.product(supports, (queries.DENSE_LIMIT, 0))
        ]
        cover = covers[0][1]

        # every workload reads each cell of one joint exactly once; every joint has a member
        homes, runs = joint_runs(cover)
        bases = np.cumsum([0] + [joint.size for joint in cover.joints])
        for i, g in enumerate(homes):
            assert sorted(cover.gather[runs[i] : runs[i + 1]]) == list(range(bases[g], bases[g + 1]))
        assert sorted(set(homes.tolist())) == list(range(len(cover.joints)))
        for g, joint in enumerate(cover.joints):
            members = np.flatnonzero(homes == g).tolist()
            first = workloads[members[0]]
            assert joint.size <= cap or (len(members) == 1 and first.size > cap)
            union = {c for i in members for c in workloads[i].columns}
            assert joint.columns == tuple(sorted(union))

        # the flat layout lays every workload's cells end to end in index order
        sizes = [w.size for w in workloads]
        assert cover.sizes.tolist() == sizes
        assert cover.offsets.tolist() == np.concatenate([[0], np.cumsum(sizes)[:-1]]).tolist()

        for support, cover in covers:
            assert cover.points is support.points
            weights = rng.random(len(support)) * (rng.random(len(support)) < 0.8)
            values = cover.score(weights)
            dataset = WeightedDataset(schema, support.points, weights)
            assert values.dtype == np.float64 and values.shape == (sum(sizes),)
            for i, workload in enumerate(workloads):
                got = part(cover, values, i)
                np.testing.assert_allclose(got, eval_workload(workload, dataset), rtol=1e-12, atol=0)
            if cover.matrix is not None:
                continue
            # on the joint path a member equal to its joint is the joint's own bincount
            for i, g in enumerate(homes):
                if workloads[i].columns == cover.joints[g].columns:
                    direct = cell_values(cover.cells(workloads[i]), weights, workloads[i].size)
                    assert part(cover, values, i).tobytes() == direct.tobytes()

    def test_census_pairs_share_support_passes(self):
        # 78 two-way workloads over 13 attributes: pairs that share columns fill
        # joints of up to 1,250 cells, an eighth of the seed support's 10,000 points
        from dpstream import surrogate

        cards = [len(values) for _, values in surrogate.SCHEMA]
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        workloads = list(enumerate_workloads(schema, 2))
        support = WorkingSupport(schema)
        assert len(support) == 10_000
        cover = cover_workloads(workloads, support.points)
        assert cover.matrix is None and len(cover.joints) < len(workloads) // 3
        assert max(joint.size for joint in cover.joints) <= 10_000 // 8
        homes, _ = joint_runs(cover)
        starts = np.append(cover.starts, len(cover.gather))
        for g, joint in enumerate(cover.joints):
            # the joint's cells at the support points, built with the cover, in the smallest
            # unsigned dtype that holds the joint's size, and read-only
            cells = cover.cells(joint)
            assert cells.dtype == np.min_scalar_type(joint.size) and not cells.flags.writeable
            assert cells.tolist() == joint.point_cells(support.points).tolist()
            members = np.flatnonzero(homes == g)
            assert len(members) > 1
            for i in members:
                assert cover.sizes[i] == workloads[i].size
                # every joint cell lands in one member cell, and every member cell gets one at least
                cells = starts[cover.offsets[i] : cover.offsets[i] + cover.sizes[i] + 1]
                assert cells[-1] - cells[0] == joint.size and (np.diff(cells) >= 1).all()

    def test_joint_cells_past_uint16_are_uint32(self):
        # a lone workload of 90,000 cells: its joint's cells do not fit uint16
        schema = DomainSchema((("a", 300), ("b", 300), ("c", 2)))
        workloads = [Workload(schema, (0, 1)), Workload(schema, (2,))]
        support = WorkingSupport(schema, seed_size=500, seed=1)
        cover = build_cover(workloads, support, 8)
        assert [j.size for j in cover.joints] == [90_000, 2]
        assert [cover.cells(j).dtype for j in cover.joints] == [np.uint32, np.uint8]
        counts = np.random.default_rng(2).integers(1, 9, size=len(support)).astype(np.float64)
        values = cover.score(counts)
        dataset = WeightedDataset(schema, support.points, counts)
        for i, workload in enumerate(workloads):
            assert part(cover, values, i).tobytes() == eval_workload(workload, dataset).tobytes()

    def test_cells_are_cached_once_per_workload_in_the_smallest_dtype(self):
        # cells of any workload of the schema, not only the cover's: past uint32 they are int64,
        # which bincount takes, where uint64 it does not
        schema = DomainSchema((("a", 2**17), ("b", 2**17), ("c", 2)))
        support = WorkingSupport(schema, seed_size=50, seed=4)
        cover = build_cover([Workload(schema, (2,))], support, 8)
        assert cover.matrix is not None and cover._cells == {}
        for columns, dtype in (((2,), np.uint8), ((0,), np.uint32), ((0, 2), np.uint32), ((0, 1), np.int64)):
            workload = Workload(schema, columns)
            cells = cover.cells(workload)
            assert cells.dtype == dtype and not cells.flags.writeable
            assert cells.tolist() == workload.point_cells(support.points).tolist()
            assert cover.cells(Workload(schema, columns)) is cells
        assert len(cover._cells) == 4
        other = DomainSchema((("a", 2**17), ("b", 2**17), ("c", 3)))
        with pytest.raises(ValueError, match="does not match the cover schema"):
            cover.cells(Workload(other, (2,)))
        assert len(cover._cells) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=2, max_size=5), st.data())
    def test_scoring_at_positions_equals_dense_scoring(self, cards, data):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        workloads = list(enumerate_workloads(schema, 2)) + list(enumerate_workloads(schema, 1))
        support = WorkingSupport(schema, seed_size=50, seed=data.draw(st.integers(0, 99)))
        cover = build_cover(workloads, support, data.draw(st.sampled_from([1, 6, 40, 10**9])))
        # positions with repeats, as a differential's points and the zero entries can share one
        at = np.array(data.draw(st.lists(st.integers(0, len(support) - 1), max_size=30)), dtype=np.intp)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        weights = rng.normal(size=len(at))
        dense = np.zeros(len(support))
        np.add.at(dense, at, weights)
        np.testing.assert_allclose(cover.score(weights, at), cover.score(dense), rtol=1e-12, atol=1e-12)
        # integer weights sum exactly in any order: the same bits as eval_workload on the points
        counts = rng.integers(1, 20, size=len(at)).astype(np.float64)
        values = cover.score(counts, at)
        dataset = WeightedDataset(schema, support.points[at], counts)
        for i, workload in enumerate(workloads):
            assert part(cover, values, i).tobytes() == eval_workload(workload, dataset).tobytes()

    @staticmethod
    def _check_direct_route(support, cover, at, rng):
        """The ``at`` route against the full path on a vector holding the same entries, both on
        the joint path (a cover built under a ``DENSE_LIMIT`` of 0), on a sampled support."""
        assert len(support) < support.schema.size and cover.matrix is None
        counts = rng.integers(-3, 20, size=len(at)).astype(np.float64)  # -1 as at main's zeros
        floats = rng.random(len(at)) + 0.1
        for weights in (counts, floats):
            dense = np.zeros(len(support))
            np.add.at(dense, at, weights)  # repeated positions add
            got, want = cover.score(weights, at), cover.score(dense)
            assert got.dtype == np.float64 and got.shape == want.shape == (len(cover.starts),)
            if weights is counts:  # integer sums are exact in any order
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=2, max_size=6), st.data())
    def test_direct_at_route_matches_the_full_path(self, cards, data):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        assume(schema.size > 1)
        workloads = [w for k in (1, 2, 3) if k <= len(cards) for w in enumerate_workloads(schema, k)]
        support = WorkingSupport(schema, seed_size=min(60, schema.size - 1), seed=data.draw(st.integers(0, 99)))
        cover = build_cover(workloads, support, data.draw(st.sampled_from([0, 1, 6, 40, 10**9])), 0)
        # possibly empty, possibly repeated
        at = np.array(data.draw(st.lists(st.integers(0, len(support) - 1), max_size=40)), dtype=np.intp)
        self._check_direct_route(support, cover, at, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))

    def test_direct_at_route_with_a_cardinality_one_attribute(self):
        schema = DomainSchema((("a", 3), ("b", 1), ("c", 4), ("d", 2), ("e", 5)))
        workloads = list(enumerate_workloads(schema, 1)) + list(enumerate_workloads(schema, 2))
        assert Workload(schema, (1,)) in workloads  # a one-cell workload
        support = WorkingSupport(schema, seed_size=40, seed=5)
        cover = build_cover(workloads, support, 12, 0)
        rng = np.random.default_rng(17)
        at = rng.integers(0, len(support), size=60)
        assert len(np.unique(at)) < len(at)
        for positions in (at, at[:0], np.array([3, 3, 3])):
            self._check_direct_route(support, cover, positions, rng)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=2, max_size=6), st.data())
    def test_reduceat_scoring_matches_eval_workload(self, cards, data):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        assume(schema.size > 1)
        workloads = [w for k in (1, 2, 3) if k <= len(cards) for w in enumerate_workloads(schema, k)]
        # a seed size below the domain size samples; a DENSE_LIMIT of 0 takes the joint path
        support = WorkingSupport(schema, seed_size=min(60, schema.size - 1), seed=data.draw(st.integers(0, 99)))
        assert len(support) < schema.size
        cover = build_cover(workloads, support, data.draw(st.sampled_from([0, 1, 6, 40, 10**9])), 0)
        assert cover.matrix is None and set(cover._cells) == set(cover.joints)
        # one nonempty run of joint cells per flat cell: reduceat never reads a neighbour's value
        starts, gather = cover.starts, cover.gather
        assert len(starts) == len(cover.starts) and starts[0] == 0
        assert (np.diff(starts) >= 1).all() and starts[-1] < len(gather)
        assert len(gather) == sum(cover.joints[g].size for g in joint_runs(cover)[0])
        at = np.array(data.draw(st.lists(st.integers(0, len(support) - 1), max_size=30)), dtype=np.intp)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        floats = rng.random(len(at)) + 0.1
        counts = rng.integers(1, 20, size=len(at)).astype(np.float64)
        got_floats, got_counts = (cover.score(w, at) for w in (floats, counts))
        if len(at) == 0:
            for got in (got_floats, got_counts):
                assert got.dtype == np.float64 and got.tobytes() == np.zeros(len(cover.starts)).tobytes()
            return
        # repeated positions add, as the dataset merges repeated points
        as_floats = WeightedDataset(schema, support.points[at], floats)
        as_counts = WeightedDataset(schema, support.points[at], counts)
        for i, workload in enumerate(workloads):
            want = eval_workload(workload, as_floats)
            np.testing.assert_allclose(part(cover, got_floats, i), want, rtol=1e-12, atol=0)
            # integer weights sum exactly in any order
            assert part(cover, got_counts, i).tobytes() == eval_workload(workload, as_counts).tobytes()


class TestDenseScoring:
    """On points whose matrix fits ``DENSE_LIMIT``, scoring is one matrix product."""

    @settings(max_examples=60, deadline=None)
    # at most 256 points and 128 cells: always within DENSE_LIMIT
    @given(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=4), st.data())
    def test_dense_path_matches_eval_workload(self, cards, data):
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        workloads = list(enumerate_workloads(schema, 1))
        if len(cards) > 1:
            workloads += list(enumerate_workloads(schema, 2))
        support = WorkingSupport(schema, seed_size=schema.size, seed=0)
        cover = build_cover(workloads, support, data.draw(st.sampled_from([1, 6, 40, 10**9])))
        assert len(support) == schema.size and len(cover.starts) * len(support) <= queries.DENSE_LIMIT
        assert cover.matrix is not None and cover._cells == {}
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        weights = rng.random(len(support)) * (rng.random(len(support)) < 0.8)
        values = cover.score(weights)
        assert values.dtype == np.float64 and values.shape == (len(cover.starts),)
        dataset = WeightedDataset(schema, support.points, weights)
        for i, workload in enumerate(workloads):
            np.testing.assert_allclose(part(cover, values, i), eval_workload(workload, dataset), rtol=1e-12, atol=0)
        # integer weights sum exactly in any order, at every position or at some, with repeats
        at = np.array(data.draw(st.lists(st.integers(0, len(support) - 1), max_size=30)), dtype=np.intp)
        counts = rng.integers(1, 20, size=len(support)).astype(np.float64)
        at_counts = rng.integers(1, 20, size=len(at)).astype(np.float64)
        for dataset, got in (
            (WeightedDataset(schema, support.points, counts), cover.score(counts)),
            (WeightedDataset(schema, support.points[at], at_counts), cover.score(at_counts, at)),
        ):
            for i, workload in enumerate(workloads):
                assert part(cover, got, i).tobytes() == eval_workload(workload, dataset).tobytes()

    def test_empty_positions_score_zero(self):
        workloads = list(enumerate_workloads(SCHEMA_243, 2))
        support = WorkingSupport(SCHEMA_243, seed_size=100)
        cover = build_cover(workloads, support, 3)
        assert cover.matrix is not None
        values = cover.score(np.empty(0), np.empty(0, dtype=np.intp))
        assert values.dtype == np.float64 and values.tobytes() == np.zeros(len(cover.starts)).tobytes()

    def test_matrix_built_once_per_cover(self):
        workloads = list(enumerate_workloads(SCHEMA_243, 2))
        support = WorkingSupport(SCHEMA_243, seed_size=100)
        cover, other = build_cover(workloads, support, 3), build_cover(workloads, support, 100)
        weights = np.arange(len(support), dtype=np.float64)
        matrix = cover.matrix
        assert matrix.shape == (len(cover.starts), len(support)) and not matrix.flags.writeable
        # every point lies in exactly one cell of each workload
        assert set(np.unique(matrix)) == {0.0, 1.0}
        assert (matrix.sum(axis=0) == len(workloads)).all()
        first = cover.score(weights)
        assert cover.score(weights).tobytes() == first.tobytes()
        cover.score(weights[:2], np.array([0, 1]))
        assert cover.matrix is matrix
        # the layout does not depend on the cap: the other cover's own matrix holds the same entries
        assert other.matrix is not matrix and other.matrix.tobytes() == matrix.tobytes()

    def test_matrix_only_within_the_limit_on_any_support(self):
        schema = DomainSchema(tuple((f"x{i}", 4) for i in range(5)))  # 1,024 points
        workloads = list(enumerate_workloads(schema, 2))  # 160 cells
        entries = 160 * schema.size
        assert entries > queries.DENSE_LIMIT
        rng = np.random.default_rng(3)
        sampled = WorkingSupport(schema, seed_size=schema.size - 1, seed=0)
        whole = WorkingSupport(schema, seed_size=schema.size, seed=0)
        assert 160 * len(sampled) > queries.DENSE_LIMIT
        for support in (sampled, whole):
            cover = build_cover(workloads, support, 128)
            assert cover.matrix is None and set(cover._cells) == set(cover.joints)
            weights = rng.random(len(support))
            values = cover.score(weights)
            dataset = WeightedDataset(schema, support.points, weights)
            for i, workload in enumerate(workloads):
                np.testing.assert_allclose(part(cover, values, i), eval_workload(workload, dataset), rtol=1e-12)
        # the limit is inclusive, and sampled points within it get a matrix too
        assert build_cover(workloads, whole, 128, entries - 1).matrix is None
        assert build_cover(workloads, sampled, 128, entries - 1).matrix is not None
        dense = build_cover(workloads, whole, 128, entries)
        assert dense.matrix is not None and dense._cells == {}


class TestEvalWorkloadMemo:
    """``eval_workload`` computes once per (dataset, workload) and keeps the vector on the dataset."""

    def counting_cell_indices(self, monkeypatch):
        calls = []
        original = Workload.cell_indices

        def counted(workload, dataset):
            calls.append(workload.columns)
            return original(workload, dataset)

        monkeypatch.setattr(Workload, "cell_indices", counted)
        return calls

    def test_each_pair_computes_once(self, monkeypatch):
        calls = self.counting_cell_indices(monkeypatch)
        rng = np.random.default_rng(41)
        a, b = random_dataset(SCHEMA_243, rng, 20), random_dataset(SCHEMA_243, rng, 20)
        workloads = enumerate_workloads(SCHEMA_243, 2)
        first = [eval_workload(w, d) for d in (a, b) for w in workloads]
        assert len(calls) == 2 * len(workloads)
        again = [eval_workload(w, d) for d in (a, b) for w in workloads]
        # an equal workload built anew finds the same entry
        fresh = [eval_workload(Workload(SCHEMA_243, w.columns), d) for d in (a, b) for w in workloads]
        assert len(calls) == 2 * len(workloads)
        assert all(x is y is z for x, y, z in zip(first, again, fresh))
        doubled = WeightedDataset(SCHEMA_243, a.points, a.weights * 2.0)
        eval_workload(workloads[0], doubled)  # a new dataset computes its own
        assert len(calls) == 2 * len(workloads) + 1

    def test_vectors_are_read_only(self):
        d = random_dataset(SCHEMA_243, np.random.default_rng(42), 10)
        values = eval_workload(Workload(SCHEMA_243, (0, 2)), d)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
        assert np.array_equal(values, brute_force_workload(Workload(SCHEMA_243, (0, 2)), d))

    def test_schema_mismatch_raises_on_every_call(self, monkeypatch):
        calls = self.counting_cell_indices(monkeypatch)
        d = random_dataset(SCHEMA_243, np.random.default_rng(43), 10)
        eval_workload(Workload(SCHEMA_243, (0, 1)), d)  # kept; the same columns on another schema are not it
        other = Workload(DomainSchema((("a", 2), ("b", 4), ("z", 3))), (0, 1))
        for _ in range(3):
            with pytest.raises(ValueError, match="schema"):
                eval_workload(other, d)
        assert len(calls) == 1 + 3


class TestEnumerateWorkloads:
    def test_three_choose_two(self):
        schema = DomainSchema((("a", 2), ("b", 2), ("c", 2)))
        ws = enumerate_workloads(schema, 2)
        assert [w.columns for w in ws] == [(0, 1), (0, 2), (1, 2)]

    def test_22_choose_2(self):
        schema = DomainSchema(tuple((f"x{i}", 2) for i in range(22)))
        assert len(enumerate_workloads(schema, 2)) == 231

    def test_k_equals_p(self):
        ws = enumerate_workloads(SCHEMA_243, 3)
        assert len(ws) == 1
        assert ws[0].columns == (0, 1, 2)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_workloads(SCHEMA, 0)
        with pytest.raises(ValueError):
            enumerate_workloads(SCHEMA, 3)

    @pytest.mark.parametrize("k", [True, 1.0, 2.0, "1", None])
    def test_arity_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match=f"workload arity must be an integer, got {re.escape(repr(k))}"):
            enumerate_workloads(SCHEMA, k)
        assert [w.columns for w in enumerate_workloads(SCHEMA, np.int64(1))] == [(0,), (1,)]

    def test_distinct_workloads_required(self):
        from dpstream import WorkloadSet

        w = Workload(SCHEMA, (0,))
        with pytest.raises(ValueError, match="distinct"):
            WorkloadSet((w, w))

    def test_one_schema_required(self):
        from dpstream import WorkloadSet

        other = DomainSchema((("a", 2), ("b", 3)))  # SCHEMA but for one cardinality
        with pytest.raises(ValueError, match="workload 1 on columns \\(1,\\) is over the schema"):
            WorkloadSet((Workload(SCHEMA, (0,)), Workload(other, (1,))))
