import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstream import (
    DatasetStream,
    DomainSchema,
    WeightedDataset,
    Workload,
    accumulate,
    dataset_mean,
    eval_workload,
    stream_difference_norm,
    stream_norm,
)
from dpstream.domain import lookup_keys, merge_rows, row_keys, step_datasets

SCHEMA_2X2 = DomainSchema((("a", 2), ("b", 2)))
SCHEMA_234 = DomainSchema((("a", 2), ("b", 3), ("c", 4)))
# 8**22 = 2**66 points: too many for int64 point keys, so rows take the generic path
SCHEMA_HUGE = DomainSchema(tuple((f"x{i}", 8) for i in range(22)))


def reference_merge(points, weights):
    """Oracle: row-wise np.unique plus bincount, zero weights dropped."""
    uniq, inverse = np.unique(points, axis=0, return_inverse=True)
    merged = np.bincount(inverse.reshape(-1), weights=weights, minlength=len(uniq))
    keep = merged > 0
    return uniq[keep], merged[keep]


def random_rows(schema, n, rng):
    return np.column_stack([rng.integers(0, c, size=n) for c in schema.cardinalities]).astype(np.int64)


def small_datasets(schema=SCHEMA_2X2, max_weight=5):
    """Integer-weighted datasets on a 2x2 domain; integer weights keep float sums exact."""
    points = [(x, y) for x in range(2) for y in range(2)]
    return st.fixed_dictionaries(
        {}, optional={p: st.integers(min_value=1, max_value=max_weight) for p in points}
    ).map(lambda m: WeightedDataset.from_mapping(SCHEMA_2X2, {k: float(v) for k, v in m.items()}))


class TestSchema:
    def test_basic_properties(self):
        schema = DomainSchema((("a", 2), ("b", 3), ("c", 4)))
        assert schema.num_attributes == 3
        assert schema.size == 24
        assert schema.names == ("a", "b", "c")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            DomainSchema((("a", 2), ("a", 3)))

    def test_rejects_zero_cardinality(self):
        with pytest.raises(ValueError, match="cardinality"):
            DomainSchema((("a", 0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DomainSchema(())

    @pytest.mark.parametrize("name", [None, "", 1.5, 3, b"a"])
    def test_rejects_a_name_that_is_not_a_nonempty_string(self, name):
        with pytest.raises(ValueError, match=f"attribute 1 name must be a nonempty string, got {name!r}"):
            DomainSchema((("a", 2), (name, 3)))

    @pytest.mark.parametrize("card", [True, 2.7, 2.0, "3", None, -1])
    def test_rejects_a_cardinality_that_is_not_a_positive_integer(self, card):
        with pytest.raises(ValueError, match="'b' cardinality must be an integer >= 1"):
            DomainSchema((("a", 2), ("b", card)))

    def test_numpy_integer_cardinality_becomes_int(self):
        schema = DomainSchema((("a", np.int64(3)), ("b", np.uint8(2))))
        assert schema.attributes == (("a", 3), ("b", 2))
        assert all(type(c) is int for c in schema.cardinalities)

    def test_key_strides_last_attribute_fastest(self):
        assert SCHEMA_234.key_strides.tolist() == [12, 4, 1]
        assert DomainSchema((("a", 5),)).key_strides.tolist() == [1]
        assert SCHEMA_234.key_strides.dtype == np.int64 and not SCHEMA_234.key_strides.flags.writeable
        assert SCHEMA_HUGE.size == 2**66
        assert SCHEMA_HUGE.key_strides is None

    def test_cached_values_keep_equality_and_hash(self):
        a = DomainSchema((("a", 2), ("b", 3), ("c", 4)))
        b = DomainSchema((("a", 2), ("b", 3), ("c", 4)))
        assert (a.names, a.cardinalities, a.size) == (("a", "b", "c"), (2, 3, 4), 24)
        a.key_strides
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != DomainSchema((("a", 2), ("b", 3), ("c", 5)))
        # the hash is the one the dataclass would generate, computed once
        assert hash(a) == hash((a.attributes,)) == hash(a)

        wa, wb = Workload(a, (0, 2)), Workload(b, (0, 2))
        wa.cell_shape, wa.size
        assert wa == wb and hash(wa) == hash(wb) == hash((a, (0, 2)))
        assert {wa: 1}[wb] == 1
        assert wa != Workload(a, (0, 1))
        assert wa != Workload(DomainSchema((("a", 2), ("b", 3), ("c", 5))), (0, 2))

    def test_pickled_schema_and_workload_drop_cached_values(self):
        # a str hash is salted per process, so a cached one must not travel to workers
        schema = DomainSchema((("a", 2), ("b", 3)))
        workload = Workload(schema, (0, 1))
        hash(workload), workload.size, schema.key_strides
        for value in (schema, workload, (schema, workload)):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value
        copy = pickle.loads(pickle.dumps(workload))
        assert vars(copy) == {"schema": schema, "columns": (0, 1)}
        assert vars(copy.schema) == {"attributes": schema.attributes}
        assert hash(copy) == hash(workload)


class TestWeightedDataset:
    def test_empty_total_mass_is_zero(self):
        assert WeightedDataset.empty(SCHEMA_2X2).total_mass() == 0.0

    def test_direct_sum(self):
        d = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 2.0, (1, 1): 3.0})
        assert d.total_mass() == 5.0

    def test_unit_rows_mass_counts_rows(self):
        # oracle: the mass of a unit-weight dataset is the row count
        rng = np.random.default_rng(3)
        rows = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(100)]
        d = WeightedDataset.from_rows(SCHEMA_2X2, rows)
        assert d.total_mass() == 100.0

    def test_duplicate_rows_merge(self):
        d = WeightedDataset.from_rows(SCHEMA_2X2, [(0, 0), (0, 0), (1, 1)])
        assert d.as_mapping() == {(0, 0): 2.0, (1, 1): 1.0}

    def test_zero_weights_dropped(self):
        d = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 0.0, (1, 1): 2.0})
        assert len(d) == 1
        assert (d.weights > 0).all()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): -1.0})

    def test_out_of_range_point_rejected(self):
        with pytest.raises(ValueError):
            WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 2): 1.0})

    def test_from_mapping_checks_its_points_as_the_constructor_does(self):
        schema = DomainSchema((("a", 2), ("b", 3)))
        assert WeightedDataset.from_mapping(schema, {(1, 2): 1.0}).as_mapping() == {(1, 2): 1.0}
        with pytest.raises(ValueError, match=r"out of range for schema: value 3 for attribute 'b' is outside \[0, 3\)"):
            WeightedDataset.from_mapping(schema, {(1, 2): 1.0, (1, 3): 1.0})
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            WeightedDataset.from_mapping(schema, {(1,): 1.0})
        # checked, not cast: (1.7, 0) used to come back as (1, 0) and (True, 1) as (1, 1)
        for point in [(1.7, 0), (True, 1), (1, False), (np.float64(1.0), 0), ("1", 0), (None, 0)]:
            with pytest.raises(ValueError, match="integers"):
                WeightedDataset.from_mapping(schema, {point: 1.0})
        got = WeightedDataset.from_mapping(schema, {(np.int64(1), np.uint8(2)): 1.0}).as_mapping()
        assert got == {(1, 2): 1.0} and all(type(v) is int for v in next(iter(got)))
        assert len(WeightedDataset.from_mapping(schema, {})) == 0

    def test_arrays_are_immutable(self):
        d = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            d.weights[0] = 5.0

    def test_pickled_dataset_stays_read_only_and_leaves_its_memo_behind(self):
        rng = np.random.default_rng(15)
        d = WeightedDataset(SCHEMA_234, random_rows(SCHEMA_234, 40, rng), rng.random(40))
        workloads = [Workload(SCHEMA_234, (0, 2)), Workload(SCHEMA_234, (1,))]
        values = [eval_workload(w, d) for w in workloads]
        mass = d.total_mass()
        copy = pickle.loads(pickle.dumps(d))
        for a in (copy.points, copy.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert copy.points.flags.f_contiguous
        assert copy.points.tobytes() == d.points.tobytes()
        assert copy.weights.tobytes() == d.weights.tobytes()
        assert len(d.memo) == 3 and copy.memo == {}
        fresh = pickle.loads(pickle.dumps(d))
        for w, want in zip(workloads, values):
            got = eval_workload(w, fresh)
            assert got is not want and got.tobytes() == want.tobytes()
        assert fresh.total_mass() == mass


    def test_rows_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            WeightedDataset(SCHEMA_234, np.zeros((6, 2), dtype=np.int64), np.ones(4))
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            WeightedDataset(SCHEMA_234, np.zeros(3, dtype=np.int64), np.ones(1))

    def test_from_rows_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            WeightedDataset.from_rows(SCHEMA_234, [(0, 1), (1, 2)])

    def test_non_integer_coordinates_rejected_by_every_constructor(self):
        # each used to be truncated or cast to a stored point, such as (0, 1) for (0.5, 1.9)
        with pytest.raises(ValueError, match="integers"):
            WeightedDataset(SCHEMA_2X2, [[0.5, 1.9]], [1])
        with pytest.raises(ValueError, match="integers"):
            WeightedDataset(SCHEMA_2X2, np.array([[True, False]]), [1.0])
        with pytest.raises(ValueError, match="integers"):
            WeightedDataset.from_rows(SCHEMA_2X2, [(0.9, 1.5)])
        with pytest.raises(ValueError, match="integers"):
            WeightedDataset.from_rows(SCHEMA_2X2, [(True, False), (False, True)])
        with pytest.raises(ValueError, match="integers"):
            step_datasets(SCHEMA_2X2, [(0, 1), (0.5, 1.0)], np.array([0, 0]), 1)
        # a bool among ints, which numpy reads as an integer: (True, 1) used to be stored as (1, 1)
        for rows in ([(True, 1), (0, 1)], [(0, 1), (1, np.True_)]):
            with pytest.raises(ValueError, match="integers"):
                WeightedDataset.from_rows(SCHEMA_2X2, rows)
        for point in [(1.7, 0), (True, 1), (0, np.float64(1.0)), ("1", 0)]:
            with pytest.raises(ValueError, match="integers"):
                WeightedDataset.from_mapping(SCHEMA_2X2, {point: 1.0})
        # integers of any integer dtype still go through
        got = WeightedDataset(SCHEMA_2X2, np.array([[1, 0], [0, 1]], dtype=np.uint8), [2.0, 3.0])
        assert got.as_mapping() == {(0, 1): 3.0, (1, 0): 2.0}
        assert WeightedDataset.from_mapping(SCHEMA_2X2, {(np.int16(1), 1): 1.0}).as_mapping() == {(1, 1): 1.0}

    def test_python_rows_of_integers_are_read_exactly(self):
        # numpy reads (0, np.uint64(1)) as float64 and (0, 2**70) as objects
        builds = (
            lambda rows: WeightedDataset(SCHEMA_2X2, rows, np.ones(len(rows))),
            lambda rows: WeightedDataset.from_rows(SCHEMA_2X2, rows),
        )
        for build in builds:
            assert build([(0, np.uint64(1)), (np.int8(1), 0)]).as_mapping() == {(0, 1): 1.0, (1, 0): 1.0}
            for huge in (2**63, np.uint64(2**64 - 1), 2**70, -(2**70)):
                with pytest.raises(ValueError, match=f"out of range for schema: value {int(huge)} for attribute 'b'"):
                    build([(0, huge)])
            with pytest.raises(ValueError, match=r"\(n, 2\)"):
                build([0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        # a NaN weight used to drop its point and an infinite one to be stored
        with pytest.raises(ValueError, match="finite"):
            WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 1): bad})
        with pytest.raises(ValueError, match="finite"):
            WeightedDataset(SCHEMA_2X2, np.array([[0, 1], [1, 1]]), [1.0, bad])


INTEGER_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# one coordinate or row changed per fault; "huge" is past int64, "width" drops or adds a value,
# "scalar row" replaces a row by an int
RAW_FAULTS = {
    "bool": lambda card: True,
    "numpy bool": lambda card: np.True_,
    "float": lambda card: 1.0,
    "numpy float": lambda card: np.float64(0.0),
    "string": lambda card: "1",
    "below": lambda card: -1,
    "above": lambda card: card,
    "huge": lambda card: 2**70,
}


@st.composite
def raw_rows(draw, schema=SCHEMA_234):
    """Python rows of Python and numpy integers, ``[]`` among them, with at most one fault, and the
    fault applied (None for none). The integer types are drawn per example: numpy reads ``np.uint64``
    among signed ones as float64."""
    types = st.sampled_from(draw(st.lists(st.sampled_from(INTEGER_TYPES), min_size=1, max_size=3)))
    rows = [
        [draw(types)(draw(st.integers(0, card - 1))) for card in schema.cardinalities]
        for _ in range(draw(st.integers(0, 8)))
    ]
    fault = draw(st.sampled_from([None, None, "width", "scalar row", *RAW_FAULTS])) if rows else None
    if fault is not None:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, schema.num_attributes - 1))
        if fault == "width":
            rows[i] = rows[i][:j] if draw(st.booleans()) else rows[i] + [0]
        elif fault != "scalar row":
            rows[i][j] = RAW_FAULTS[fault](schema.cardinalities[j])
    rows = [tuple(row) for row in rows]
    if fault == "scalar row":
        rows[i] = draw(types)(draw(st.integers(0, 3)))
    return rows, fault


def built_or_none(build, *args):
    """The dataset ``build(*args)`` makes, or None where it raises ValueError."""
    try:
        return build(*args)
    except ValueError:
        return None


class TestRawRows:
    @settings(max_examples=300, deadline=None)
    @given(raw_rows())
    def test_every_constructor_accepts_and_rejects_the_same_rows(self, drawn):
        # [] used to be rejected by WeightedDataset(...), and (1, np.True_) stored as (1, 1) by it;
        # rows of integers that numpy promotes to float64, such as (0, np.uint64(1)), by all of them
        rows, fault = drawn
        checked = built_or_none(WeightedDataset, SCHEMA_234, rows, np.ones(len(rows)))
        counted = built_or_none(WeightedDataset.from_rows, SCHEMA_234, rows)
        assert (checked is None) == (counted is None), rows
        # equal rows key one entry, such as (1, 0) and (np.uint8(1), 0), or (1, 0) and (True, 0)
        mapping = dict.fromkeys(rows, 1.0)
        mapped = built_or_none(WeightedDataset.from_mapping, SCHEMA_234, mapping)
        keyed = built_or_none(WeightedDataset, SCHEMA_234, list(mapping), np.ones(len(mapping)))
        assert (mapped is None) == (keyed is None), rows
        if fault is None:
            assert None not in (checked, counted, mapped, keyed), rows
        if checked is not None:
            assert checked.points.tobytes() == counted.points.tobytes() == mapped.points.tobytes()
            assert checked.weights.tobytes() == counted.weights.tobytes()
            assert mapped.weights.tobytes() == np.ones(len(checked)).tobytes()


@pytest.mark.parametrize("schema", [SCHEMA_234, SCHEMA_HUGE], ids=["keys", "rows"])
class TestCanonicalOrder:
    """Datasets match the row-wise oracle bit for bit, on the key path and the generic path."""

    def check(self, schema, points, weights):
        got = WeightedDataset(schema, points, weights)
        want_points, want_weights = reference_merge(points, weights)
        assert np.array_equal(got.points, want_points)
        assert got.weights.tobytes() == want_weights.tobytes()

    def test_duplicates_and_zero_weights(self, schema):
        rng = np.random.default_rng(11)
        for n in (1, 2, 40, 400):
            points = random_rows(schema, n, rng)
            points = np.concatenate([points, points[: n // 2]])  # guaranteed duplicates
            weights = rng.random(len(points)) * rng.integers(0, 3, size=len(points))
            self.check(schema, points, weights)

    def test_sorted_and_reversed_input(self, schema):
        rng = np.random.default_rng(12)
        points, _ = reference_merge(random_rows(schema, 300, rng), np.ones(300))
        weights = rng.random(len(points))
        weights[::7] = 0.0
        self.check(schema, points, weights)
        self.check(schema, points[::-1], weights[::-1])

    def test_key_order_is_row_order(self, schema):
        rng = np.random.default_rng(13)
        a, b = random_rows(schema, 200, rng), random_rows(schema, 50, rng)
        keys_a, keys_b = row_keys(schema, a), row_keys(schema, b)  # keyed apart, compared together
        rows = np.concatenate([a, b])
        keys = np.concatenate([keys_a, keys_b])
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))
        same = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
        assert np.array_equal(keys[:, None] == keys[None, :], same)

    def test_caller_arrays_neither_aliased_nor_frozen(self, schema):
        rng = np.random.default_rng(14)
        presorted, _ = reference_merge(random_rows(schema, 30, rng), np.ones(30))
        for points in (presorted, random_rows(schema, 30, rng)):
            weights = np.ones(len(points))
            d = WeightedDataset(schema, points, weights)
            assert points.flags.writeable and weights.flags.writeable
            assert not np.shares_memory(d.points, points)
            assert not np.shares_memory(d.weights, weights)
            before = (d.points.copy(), d.weights.copy())
            points[:] = 0
            weights[:] = 9.0
            assert np.array_equal(d.points, before[0]) and np.array_equal(d.weights, before[1])


@pytest.mark.parametrize("schema", [SCHEMA_234, SCHEMA_HUGE], ids=["keys", "rows"])
class TestFromSorted:
    """The trusted constructor: it stores the arrays it is given, read-only, and checks nothing."""

    def test_stores_both_arrays_as_given(self, schema):
        rng = np.random.default_rng(21)
        points = WeightedDataset(schema, random_rows(schema, 60, rng), np.ones(60)).points.copy(order="F")
        weights = rng.random(len(points)) + 0.1
        got = WeightedDataset._from_sorted(schema, points, weights)
        assert got.schema == schema and got.points is points and got.weights is weights
        assert got.points.flags.f_contiguous
        assert not points.flags.writeable and not weights.flags.writeable
        want = WeightedDataset(schema, points, weights)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()


def test_points_are_column_major_on_every_constructor_path():
    rng = np.random.default_rng(31)
    rows = random_rows(SCHEMA_234, 40, rng)
    a = WeightedDataset(SCHEMA_234, rows, np.ones(len(rows)))
    b = WeightedDataset(SCHEMA_234, rows[::-1][:5], np.arange(5.0))
    stream = DatasetStream(SCHEMA_234, (a, b, WeightedDataset.empty(SCHEMA_234)))
    built = {
        "__init__": a,
        "__init__ presorted": WeightedDataset(SCHEMA_234, a.points.copy(order="C"), a.weights),
        "__init__ generic": WeightedDataset(SCHEMA_HUGE, random_rows(SCHEMA_HUGE, 9, rng), np.ones(9)),
        "from_rows": WeightedDataset.from_rows(SCHEMA_234, rows.tolist()),
        "from_mapping": WeightedDataset.from_mapping(SCHEMA_234, {(1, 2, 3): 1.0, (0, 0, 1): 2.0}),
        "empty": WeightedDataset.empty(SCHEMA_234),
        "accumulate": accumulate(a, b),
        "prefix": stream.prefix(2),
        "dataset_mean": dataset_mean([a, b]),
        "_from_sorted": WeightedDataset._from_sorted(SCHEMA_234, a.points, np.arange(1.0, len(a) + 1)),
    }
    for name, dataset in built.items():
        assert dataset.points.flags.f_contiguous, name
        assert dataset.points.dtype == np.int64 and not dataset.points.flags.writeable, name


class TestAccumulate:
    def test_identity_on_empty_prefix(self):
        d = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 1): 2.0})
        out = accumulate(WeightedDataset.empty(SCHEMA_2X2), d)
        assert out.as_mapping() == d.as_mapping()

    def test_pointwise_add(self):
        a = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 1.0})
        b = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 2.0, (1, 0): 1.0})
        assert accumulate(a, b).as_mapping() == {(0, 0): 3.0, (1, 0): 1.0}

    def test_schema_mismatch_rejected(self):
        other = DomainSchema((("a", 2), ("b", 3)))
        with pytest.raises(ValueError, match="schema"):
            accumulate(
                WeightedDataset.empty(SCHEMA_2X2), WeightedDataset.empty(other)
            )

    def test_stream_accumulation_mass(self):
        # oracle: total mass of the accumulated stream is the sum of per-step masses
        rng = np.random.default_rng(0)
        deltas = []
        for _ in range(8):
            n = int(rng.integers(0, 5))
            rows = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(n)]
            deltas.append(WeightedDataset.from_rows(SCHEMA_2X2, rows))
        stream = DatasetStream(SCHEMA_2X2, tuple(deltas))
        expected = sum(d.total_mass() for d in deltas)
        assert stream.prefix(len(deltas)).total_mass() == pytest.approx(expected, abs=1e-12)

    def test_prefix_matches_dense_oracle(self):
        # oracle: a dense 2x2 array accumulated step by step
        rng = np.random.default_rng(1)
        dense = np.zeros((2, 2))
        prefix = WeightedDataset.empty(SCHEMA_2X2)
        for _ in range(10):
            cells = {}
            for _ in range(int(rng.integers(0, 4))):
                x, y = int(rng.integers(2)), int(rng.integers(2))
                cells[(x, y)] = cells.get((x, y), 0.0) + float(rng.integers(1, 4))
            delta = WeightedDataset.from_mapping(SCHEMA_2X2, cells)
            for (x, y), w in cells.items():
                dense[x, y] += w
            prefix = accumulate(prefix, delta)
            got = np.zeros((2, 2))
            for (x, y), w in prefix.items():
                got[x, y] = w
            assert np.array_equal(got, dense)

    @settings(max_examples=50)
    @given(small_datasets(), small_datasets(), small_datasets())
    def test_associative_and_commutative(self, a, b, c):
        left = accumulate(accumulate(a, b), c).as_mapping()
        right = accumulate(a, accumulate(b, c)).as_mapping()
        assert left == right
        assert accumulate(a, b).as_mapping() == accumulate(b, a).as_mapping()


def related_rows(kind, schema, points, rng):
    """Rows for a delta that is ``kind`` to a prefix storing ``points``: sharing none of them, some,
    exactly them, or no rows at all."""
    if kind == "empty" or (kind == "equal" and len(points) == 0):
        return np.empty((0, schema.num_attributes), dtype=np.int64)
    if kind == "equal":
        return points.copy()
    rows = random_rows(schema, int(rng.integers(1, 30)), rng)
    if kind == "disjoint":
        taken = {tuple(p) for p in points.tolist()}
        return rows[[tuple(r) not in taken for r in rows.tolist()]]
    shared = points[rng.random(len(points)) < 0.5]
    return np.concatenate([shared, rows])


class TestMergeRows:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.just([]), st.lists(st.integers(1, 5), min_size=1, max_size=5)), st.data())
    def test_matches_row_unique_and_sequential_sums(self, cards, data):
        # [] stands for SCHEMA_HUGE, whose rows are keyed by rank; cardinality-1 attributes included
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards))) if cards else SCHEMA_HUGE
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = random_rows(schema, data.draw(st.integers(1, 40)), rng)
        if data.draw(st.booleans()):
            points = np.concatenate([points, points[rng.integers(0, len(points), len(points))]])
        if data.draw(st.booleans()):
            points = np.unique(points, axis=0)  # strictly increasing
        # signed weights over seven decades, so the order of each sum shows in its bits
        n = len(points)
        weights = rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
        rows, sums = merge_rows(schema, points, weights)
        want_rows = np.unique(points, axis=0)
        assert np.array_equal(rows, want_rows)
        totals = {}
        for row, w in zip(map(tuple, points.tolist()), weights.tolist()):
            totals[row] = totals.get(row, 0.0) + w
        assert sums.tobytes() == np.array([totals[row] for row in map(tuple, rows.tolist())]).tobytes()
        # strictly increasing rows too come back as new arrays
        assert not np.shares_memory(rows, points) and not np.shares_memory(sums, weights)


# keyed schemas of up to 5 values an attribute, and schemas of 2**63 points or more, which have no
# int64 point keys; cardinality-1 attributes in both
any_schemas = st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=6),
    st.lists(st.integers(1, 2**40), min_size=2, max_size=8).filter(lambda cards: math.prod(cards) >= 2**63),
).map(lambda cards: DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards))))


class TestRowKeys:
    @settings(max_examples=80, deadline=None)
    @given(any_schemas, st.integers(1, 30), st.integers(0, 30), st.integers(0, 2**32 - 1))
    def test_keys_of_separate_arrays_compare_as_their_rows(self, schema, n, m, seed):
        # the keys of one array hold against another's without ranking the two together
        rng = np.random.default_rng(seed)
        cards = np.array(schema.cardinalities)
        a = random_rows(schema, n, rng)
        near = a[rng.integers(0, n, size=m)]  # rows of a moved by one in one coordinate
        column = rng.integers(0, len(cards), size=m)
        near[np.arange(m), column] = (near[np.arange(m), column] + 1) % cards[column]
        b = np.concatenate([a[rng.integers(0, n, size=m)], near, random_rows(schema, m, rng)])
        keys_a, keys_b = row_keys(schema, np.asfortranarray(a)), row_keys(schema, b)
        assert (keys_a.dtype.names is None) == (schema.key_strides is not None)
        assert keys_a.dtype == keys_b.dtype and keys_a.ndim == keys_b.ndim == 1
        rows, keys = np.concatenate([a, b]), np.concatenate([keys_a, keys_b])
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))
        same = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
        assert np.array_equal(keys[:, None] == keys[None, :], same)
        # lookup_keys finds exactly the rows of b that a holds, at their sorted position
        distinct = np.unique(a, axis=0)
        pos, found = lookup_keys(row_keys(schema, distinct), keys_b)
        held = {tuple(r): i for i, r in enumerate(distinct.tolist())}
        assert found.tolist() == [tuple(r) in held for r in b.tolist()]
        assert pos[found].tolist() == [held[tuple(r)] for r in b.tolist() if tuple(r) in held]


class TestAccumulateMerge:
    @pytest.mark.parametrize("schema", [SCHEMA_234, SCHEMA_HUGE], ids=["keys", "rows"])
    def test_every_sum_keeps_its_row_keys(self, schema):
        # every sum accumulate builds memoizes the keys the next accumulate onto it looks up in,
        # on schemas with and without int64 point keys alike
        rng = np.random.default_rng(22)
        prefix = WeightedDataset.empty(schema)
        sums = 0
        for kind in ["disjoint", "overlapping", "equal", "empty", "overlapping"] * 4:
            rows = related_rows(kind, schema, prefix.points, rng)
            delta = WeightedDataset(schema, rows, rng.random(len(rows)) + 0.5)
            got = accumulate(prefix, delta)
            if len(prefix) and len(delta):
                sums += 1
                keys, want = got.memo["keys"], row_keys(schema, got.points)
                assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes()
                assert not keys.flags.writeable
            prefix = got
        assert sums >= 10

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.just([]), st.lists(st.integers(1, 5), min_size=1, max_size=5)), st.data())
    def test_fold_matches_the_concatenation_oracle_bit_for_bit(self, cards, data):
        # [] stands for SCHEMA_HUGE, which has no key strides; cardinality-1 attributes included
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards))) if cards else SCHEMA_HUGE
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def dataset(rows):
            # fractional weights over seven decades, so the order of each sum shows in its bits
            return WeightedDataset(schema, rows, rng.random(len(rows)) * 10.0 ** rng.integers(-3, 4, len(rows)))

        prefix = dataset(random_rows(schema, data.draw(st.integers(0, 30)), rng))
        steps = [prefix]
        kinds = st.sampled_from(["disjoint", "overlapping", "equal", "empty"])
        for kind in data.draw(st.lists(kinds, min_size=1, max_size=4)):
            delta = dataset(related_rows(kind, schema, prefix.points, rng))
            before = [(a, a.tobytes()) for a in (prefix.points, prefix.weights, delta.points, delta.weights)]
            got = accumulate(prefix, delta)
            for array, saved in before:
                assert array.tobytes() == saved and not array.flags.writeable
            pair = WeightedDataset(
                schema, np.concatenate([prefix.points, delta.points]), np.concatenate([prefix.weights, delta.weights])
            )
            steps.append(delta)
            whole = WeightedDataset(
                schema, np.concatenate([d.points for d in steps]), np.concatenate([d.weights for d in steps])
            )
            for want in (pair, whole):
                assert got.points.shape == want.points.shape
                assert got.points.tobytes() == want.points.tobytes()
                assert got.weights.tobytes() == want.weights.tobytes()
            assert got.points.flags.f_contiguous and got.points.dtype == np.int64
            assert not got.points.flags.writeable and not got.weights.flags.writeable
            prefix = got


class TestStream:
    def test_empty_stream_norm(self):
        assert stream_norm(DatasetStream(SCHEMA_2X2, ())) == 0.0

    def test_insert_only_norm_is_total_mass(self):
        deltas = (
            WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 2.0}),
            WeightedDataset.empty(SCHEMA_2X2),
            WeightedDataset.from_mapping(SCHEMA_2X2, {(1, 1): 3.0}),
        )
        stream = DatasetStream(SCHEMA_2X2, deltas)
        assert stream_norm(stream) == 5.0

    @pytest.mark.parametrize("t", [True, 1.0, 2.0, -1, 3])
    def test_prefix_time_must_be_an_integer_in_range(self, t):
        stream = DatasetStream(SCHEMA_2X2, (WeightedDataset.empty(SCHEMA_2X2),) * 2)
        with pytest.raises(ValueError, match=re.escape(f"prefix time must be an integer in [0, 2], got {t!r}")):
            stream.prefix(t)
        assert stream.prefix(np.int64(2)).total_mass() == 0.0

    def test_empty_differential_is_legal(self):
        stream = DatasetStream(SCHEMA_2X2, (WeightedDataset.empty(SCHEMA_2X2),))
        assert stream.num_steps == 1
        assert stream.prefix(1).total_mass() == 0.0

    @pytest.mark.parametrize("schema", [SCHEMA_234, SCHEMA_HUGE], ids=["keys", "generic"])
    def test_prefix_equals_fold_of_accumulate_bit_for_bit(self, schema):
        # fractional weights on overlapping points, so the order of the sums shows in the bits
        rng = np.random.default_rng(4)
        deltas = []
        for t in range(12):
            n = 0 if t % 5 == 2 else int(rng.integers(1, 20))
            rows = random_rows(schema, n, rng)
            deltas.append(WeightedDataset(schema, rows, rng.random(n) * 10.0 ** rng.integers(-3, 4)))
        stream = DatasetStream(schema, tuple(deltas))
        folded = WeightedDataset.empty(schema)
        for t in range(len(deltas) + 1):
            got = stream.prefix(t)
            assert np.array_equal(got.points, folded.points)
            assert got.weights.tobytes() == folded.weights.tobytes()
            if t < len(deltas):
                folded = accumulate(folded, deltas[t])

    @pytest.mark.parametrize("schema", [SCHEMA_234, SCHEMA_HUGE], ids=["keys", "rows"])
    def test_step_datasets_match_the_checking_constructor_per_step(self, schema):
        # one (step, point) sort over either key kind, against one WeightedDataset(...) per step
        rng = np.random.default_rng(23)
        rows = random_rows(schema, 50, rng)
        rows = np.concatenate([rows, rows[rng.integers(0, 50, size=30)]])
        steps = rng.integers(0, 7, size=len(rows))  # rows of steps 5 and 6 are left out
        got = step_datasets(schema, [tuple(r) for r in rows.tolist()], steps, 5)
        assert len(got) == 5
        for t, d in enumerate(got):
            want = WeightedDataset(schema, rows[steps == t], np.ones(np.count_nonzero(steps == t)))
            assert d.points.shape == want.points.shape and d.points.flags.f_contiguous
            assert d.points.tobytes() == want.points.tobytes()
            assert d.weights.tobytes() == want.weights.tobytes()

    def test_neighboring_streams_difference_norm(self):
        # neighbors: one unit of weight moved at a single (point, time)
        base = [
            WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 2.0}),
            WeightedDataset.from_mapping(SCHEMA_2X2, {(1, 0): 1.0}),
        ]
        bumped = [
            base[0],
            WeightedDataset.from_mapping(SCHEMA_2X2, {(1, 0): 1.0, (0, 1): 1.0}),
        ]
        f = DatasetStream(SCHEMA_2X2, tuple(base))
        f_tilde = DatasetStream(SCHEMA_2X2, tuple(bumped))
        assert stream_difference_norm(f, f_tilde) == 1.0
        assert stream_difference_norm(f, f) == 0.0

    def test_difference_norm_counts_each_divergence(self):
        a = DatasetStream(SCHEMA_2X2, (WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 2.0}),))
        b = DatasetStream(SCHEMA_2X2, (WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 1.0, (1, 1): 2.0}),))
        assert stream_difference_norm(a, b) == 3.0
