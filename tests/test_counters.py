import copy
import math

import numpy as np
import pytest

from dpstream import (
    BlockCounter,
    MultiDimCounter,
    NoiseSource,
    SimpleCounter,
    UnboundedBlockCounter,
    WeightedDataset,
    Workload,
    eval_workload,
    make_counter,
)
from dpstream.counters import COUNTERS, KINDS
from dpstream.domain import DomainSchema


def simulate_block_schedule(horizon):
    """Oracle: replay the unbounded-block control flow with no data.

    Partitions of sizes 4, 9, 16, ... use block sizes 2, 3, 4, ...; a block
    closes when the in-partition offset is a multiple of the block size, and
    the partition rolls over when the offset reaches the partition size.
    """
    boundaries, rollovers = [], []
    B, T, t_at = 2, 4, 0
    for t in range(1, horizon + 1):
        delta = t - t_at
        if delta % B == 0:
            boundaries.append(t)
            if delta == T:
                rollovers.append(t)
                t_at = t
                B += 1
                T = B * B
    return boundaries, rollovers


class RecordingSource:
    """A noise source that records every Laplace draw vector with its scale."""

    def __init__(self, source):
        self.source = source
        self.draws = []

    @property
    def laplace_draws(self):
        return self.source.laplace_draws

    def laplace_vector(self, scale, n):
        out = self.source.laplace_vector(scale, n)
        self.draws.append((scale, out.copy()))
        return out


class ScriptedSource:
    """Replays entry ``cell`` of recorded draw vectors, one per scalar ``laplace`` call."""

    def __init__(self, draws, cell):
        self.draws, self.cell, self.used = draws, cell, 0

    def laplace(self, scale):
        recorded_scale, values = self.draws[self.used]
        assert scale == recorded_scale
        self.used += 1
        return float(values[self.cell])


class TestKindTable:
    def test_kinds_come_from_the_table_in_order(self):
        assert KINDS == tuple(COUNTERS) == ("simple", "bounded_block", "binary_tree", "unbounded_block")
        assert all(cls.kind == kind for kind, cls in COUNTERS.items())

    @pytest.mark.parametrize("kind", KINDS)
    def test_make_counter_builds_the_class_of_its_kind(self, kind):
        c = make_counter(kind, 1.0, NoiseSource(0), block_size=4)
        assert type(c) is COUNTERS[kind]
        # only the bounded block counter takes the block size; the unbounded one starts at 2
        assert getattr(c, "block_size", None) == {"bounded_block": 4, "unbounded_block": 2}.get(kind)


class TestZeroNoisePrefixSums:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_stream_exact(self, kind):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 5, size=200)
        c = make_counter(kind, 1.0, NoiseSource(0, mode="zero"), block_size=8)
        running = 0.0
        for v in values:
            running += v
            assert c.feed(v) == pytest.approx(running, abs=1e-9)

    def test_feed_one_two_three(self):
        for kind in KINDS:
            c = make_counter(kind, 1.0, NoiseSource(0, mode="zero"), block_size=4)
            assert [c.feed(v) for v in (1.0, 2.0, 3.0)] == [1.0, 3.0, 6.0]


class TestPeek:
    def test_fresh_counter_peeks_zero(self):
        for kind in KINDS:
            c = make_counter(kind, 1.0, NoiseSource(0), block_size=4)
            assert c.peek() == 0.0

    def test_peek_repeats_last_release(self):
        c = SimpleCounter(1.0, NoiseSource(3))
        out = c.feed(5.0)
        assert c.peek() == out

    def test_hundred_peeks_identical_and_free(self):
        src = NoiseSource(3)
        c = SimpleCounter(1.0, src)
        c.feed(1.0)
        draws_before = src.laplace_draws
        values = {c.peek() for _ in range(100)}
        assert len(values) == 1
        assert src.laplace_draws == draws_before


class TestSimpleCounter:
    def test_noise_accumulates_like_sqrt_t(self):
        # oracle: sum of t independent Laplace(1/eps) draws has std sqrt(2t)/eps
        eps, t, trials = 1.0, 256, 500
        root = NoiseSource(21)
        finals = []
        for trial in range(trials):
            c = SimpleCounter(eps, root.child(trial))
            for _ in range(t):
                out = c.feed(0.0)
            finals.append(out)
        expected = math.sqrt(2 * t) / eps
        assert np.std(finals) == pytest.approx(expected, rel=0.10)

    def test_one_draw_per_item(self):
        src = NoiseSource(0)
        c = SimpleCounter(1.0, src)
        for i in range(50):
            c.feed(1.0)
        assert src.laplace_draws == 50


class TestBlockCounter:
    def test_requires_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            make_counter("bounded_block", 1.0, NoiseSource(0))

    def test_draws_per_item_at_most_two(self):
        # one draw per non-boundary item plus one fold draw per block
        src = NoiseSource(0, mode="zero")
        B, T = 5, 50
        c = BlockCounter(1.0, src, block_size=B)
        for _ in range(T):
            c.feed(1.0)
        folds = T // B
        assert src.laplace_draws == (T - folds) + folds
        assert src.laplace_draws <= 2 * T

    def test_fold_discards_in_block_noise(self):
        # at a block boundary the output is the sum of fold draws only
        src = NoiseSource(8)
        c = BlockCounter(1.0, src, block_size=4)
        outs = [c.feed(1.0) for _ in range(8)]
        ref = NoiseSource(8)
        draws = [ref.laplace(2.0) for _ in range(8)]
        # draws 0-2 are increments, draw 3 is the first fold, 4-6 increments, 7 second fold
        assert outs[3] == pytest.approx(4.0 + draws[3])
        assert outs[7] == pytest.approx(8.0 + draws[3] + draws[7])


class TestUnboundedBlockCounter:
    def test_schedule_matches_control_flow_oracle(self):
        c = UnboundedBlockCounter(1.0, NoiseSource(0, mode="zero"))
        boundaries, rollovers = [], []
        for t in range(1, 31):
            c.feed(0.0)
            if c.last_was_boundary:
                boundaries.append(t)
            if c.last_was_rollover:
                rollovers.append(t)
        oracle_b, oracle_r = simulate_block_schedule(30)
        assert boundaries == oracle_b == [2, 4, 7, 10, 13, 17, 21, 25, 29]
        assert rollovers == oracle_r == [4, 13, 29]

    def test_zero_noise_seventeen_ones(self):
        c = UnboundedBlockCounter(1.0, NoiseSource(0, mode="zero"))
        out = [c.feed(1.0) for _ in range(17)]
        assert out[-1] == 17.0

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="unbounded_block"):
            make_counter("unbounded", 1.0, NoiseSource(0))

    def test_each_item_meets_at_most_two_draws(self):
        # draw attribution from the schedule oracle: a boundary item is folded
        # with one fresh draw; any other item gets its own increment draw plus
        # its block's later fold draw
        horizon = 200
        boundaries, _ = simulate_block_schedule(horizon)
        boundary_set = set(boundaries)
        src = NoiseSource(0, mode="zero")
        c = UnboundedBlockCounter(1.0, src)
        draws_per_step = []
        for t in range(1, horizon + 1):
            before = src.laplace_draws
            c.feed(1.0)
            draws_per_step.append(src.laplace_draws - before)
        # exactly one draw happens at every step (increment or fold)
        assert draws_per_step == [1] * horizon
        for t in range(1, horizon + 1):
            own_increment = 0 if t in boundary_set else 1
            fold = 1  # the block containing t is folded exactly once
            assert own_increment + fold <= 2


class TestBinaryTreeCounter:
    def test_one_draw_per_step(self):
        src = NoiseSource(0, mode="zero")
        c = make_counter("binary_tree", 1.0, src)
        for t in range(1, 300):
            c.feed(0.0)
            assert src.laplace_draws == t

    def test_levels_track_log_of_time(self):
        c = make_counter("binary_tree", 1.0, NoiseSource(0, mode="zero"))
        for t in range(1, 1025):
            c.feed(0.0)
            assert c.levels <= math.ceil(math.log2(t + 1)) + 1


class TestParameterChecks:
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_epsilon_must_be_positive_and_finite(self, kind, epsilon):
        # a NaN epsilon used to make every release NaN
        block_size = 3 if kind == "bounded_block" else None
        with pytest.raises(ValueError, match="epsilon"):
            make_counter(kind, epsilon, NoiseSource(0), block_size)
        with pytest.raises(ValueError, match="epsilon"):
            MultiDimCounter(kind, 2, epsilon, NoiseSource(0), block_size=block_size)

    @pytest.mark.parametrize("bad", [2.5, True, 0, np.float64(3.0)])
    def test_integer_sizes_are_checked(self, bad):
        # a block size of 2.5 used to become 2, and 2.5 cells 2
        with pytest.raises(ValueError, match="block size must be an integer"):
            BlockCounter(1.0, NoiseSource(0), bad)
        with pytest.raises(ValueError, match="number of cells"):
            MultiDimCounter("simple", bad, 1.0, NoiseSource(0))
        assert BlockCounter(1.0, NoiseSource(0), np.int64(3)).block_size == 3
        assert len(MultiDimCounter("simple", np.int32(3), 1.0, NoiseSource(0))) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_values_are_rejected_before_anything_moves(self, kind, bad):
        # a NaN or infinite value used to be stored and released at every later feed
        counters = [
            (make_counter(kind, 1.0, NoiseSource(5), block_size=3), 1.0, bad),
            (MultiDimCounter(kind, 2, 1.0, NoiseSource(5), block_size=3), [1.0, 2.0], [1.0, bad]),
        ]
        for counter, good, value in counters:
            twin = copy.deepcopy(counter)
            for c in (counter, twin):
                c.feed(good)
            draws, last = counter.source.laplace_draws, np.copy(counter.peek())
            with pytest.raises(ValueError, match="finite"):
                counter.feed(value)
            assert counter.source.laplace_draws == draws and np.array_equal(counter.peek(), last)
            # nothing moved: the next feeds release what the twin's do
            for _ in range(4):
                assert np.array_equal(counter.feed(good), twin.feed(good))


class TestMultiDimCounter:
    def test_zero_noise_vector_feeds(self):
        m = MultiDimCounter("simple", 2, 1.0, NoiseSource(0, mode="zero"))
        assert m.feed(np.array([1.0, 0.0])).tolist() == [1.0, 0.0]
        assert m.feed(np.array([0.0, 2.0])).tolist() == [1.0, 2.0]

    def test_length_mismatch_rejected(self):
        m = MultiDimCounter("simple", 2, 1.0, NoiseSource(0))
        with pytest.raises(ValueError, match="cell values"):
            m.feed(np.array([1.0, 2.0, 3.0]))

    def test_cells_match_standalone_counters(self):
        # the 3 cells of feed t take draws 3(t - 1) .. 3t - 1 of the counter's one stream, in the
        # order 3 scalar laplace calls take them; vector and scalar log1p may differ in the last bit
        m = MultiDimCounter("simple", 3, 0.5, NoiseSource(31))
        ref = NoiseSource(31)
        standalone = [SimpleCounter(0.5, ref) for _ in range(3)]
        for _ in range(10):
            outs = m.feed(np.array([1.0, 2.0, 3.0]))
            want = [c.feed(v) for c, v in zip(standalone, (1.0, 2.0, 3.0))]
            assert outs.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert m.laplace_draws == ref.laplace_draws == 30

    def test_peek_returns_vector_without_draws(self):
        root = NoiseSource(31)
        m = MultiDimCounter("simple", 2, 1.0, root)
        m.feed(np.array([1.0, 1.0]))
        child_draws = m.laplace_draws
        assert child_draws == 2
        assert m.peek().shape == (2,)
        assert m.laplace_draws == child_draws

    @pytest.mark.parametrize("kind", KINDS)
    def test_cells_equal_scalar_counters_bit_for_bit(self, kind):
        # cell c releases exactly what a scalar counter does whose draws are entry c of the
        # counter's draw vectors; 32 feeds close blocks of 4, roll unbounded partitions over at
        # 4, 13 and 29, and open tree epochs up to the one starting at t=32
        source = RecordingSource(NoiseSource(31))
        rng = np.random.default_rng(6)
        m = MultiDimCounter(kind, 3, 0.5, source, block_size=4)
        scalars = [make_counter(kind, 0.5, ScriptedSource(source.draws, c), block_size=4) for c in range(3)]
        assert m.peek().tolist() == [0.0, 0.0, 0.0]
        for t in range(1, 33):
            values = rng.uniform(0, 4, size=3)
            out = m.feed(values)
            assert len(source.draws) == t and m.laplace_draws == 3 * t  # one vector of 3 per feed
            assert out.tolist() == [c.feed(v) for c, v in zip(scalars, values)]
            assert all(c.source.used == t for c in scalars)
            # peeks draw nothing (the next feeds would drift from the scalars),
            # and the caller may overwrite what it passed in or got back
            peeked = m.peek()
            assert peeked.tolist() == out.tolist()
            for array in (values, out, peeked):
                array[:] = -1.0
            assert m.peek().tolist() == [c.peek() for c in scalars]

    def test_one_record_perturbs_exactly_one_cell(self):
        # neighboring differentials (one extra unit record) change the fed
        # vector of the record's workload in exactly one cell, by exactly 1
        schema = DomainSchema((("a", 2), ("b", 3)))
        w = Workload(schema, (0, 1))
        base = WeightedDataset.from_mapping(schema, {(0, 1): 2.0, (1, 2): 1.0})
        bumped = WeightedDataset.from_mapping(schema, {(0, 1): 2.0, (1, 2): 1.0, (1, 0): 1.0})
        diff = eval_workload(w, bumped) - eval_workload(w, base)
        assert (diff != 0).sum() == 1
        assert diff.sum() == 1.0
