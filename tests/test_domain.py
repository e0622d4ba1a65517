import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstream import (
    DatasetStream,
    DomainSchema,
    WeightedDataset,
    accumulate,
    stream_difference_norm,
    stream_norm,
    total_mass,
)
from dpstream.domain import point_keys

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

    def test_key_strides_last_attribute_fastest(self):
        assert SCHEMA_234.key_strides == (12, 4, 1)
        assert DomainSchema((("a", 5),)).key_strides == (1,)
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

    def test_validate_point(self):
        schema = DomainSchema((("a", 2), ("b", 3)))
        assert schema.validate_point((1, 2)) == (1, 2)
        with pytest.raises(ValueError, match="out of range"):
            schema.validate_point((1, 3))
        with pytest.raises(ValueError, match="coordinates"):
            schema.validate_point((1,))


class TestWeightedDataset:
    def test_empty_total_mass_is_zero(self):
        assert total_mass(WeightedDataset.empty(SCHEMA_2X2)) == 0.0

    def test_direct_sum(self):
        d = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 2.0, (1, 1): 3.0})
        assert total_mass(d) == 5.0

    def test_unit_rows_mass_counts_rows(self):
        # oracle: the mass of a unit-weight dataset is the row count
        rng = np.random.default_rng(3)
        rows = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(100)]
        d = WeightedDataset.from_rows(SCHEMA_2X2, rows)
        assert total_mass(d) == 100.0

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

    def test_arrays_are_immutable(self):
        d = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            d.weights[0] = 5.0


    def test_rows_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            WeightedDataset(SCHEMA_234, np.zeros((6, 2), dtype=np.int64), np.ones(4))
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            WeightedDataset(SCHEMA_234, np.zeros(3, dtype=np.int64), np.ones(1))

    def test_from_rows_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            WeightedDataset.from_rows(SCHEMA_234, [(0, 1), (1, 2)])


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
        keys_a, keys_b = point_keys(schema, a, b)
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

    def test_empty_differential_is_legal(self):
        stream = DatasetStream(SCHEMA_2X2, (WeightedDataset.empty(SCHEMA_2X2),))
        assert stream.num_steps == 1
        assert stream.prefix(1).total_mass() == 0.0

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
