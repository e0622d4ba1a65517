import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from dpstream import (
    BudgetLedger,
    BudgetOverspendError,
    NoiseSource,
    exponential_mechanism,
)
from dpstream.mechanisms import BudgetEntry


class FixedUniforms:
    """Stands in for a source's generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n=None):
        if n is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:n]), self.values[n:]
        return out


class TestNoiseSource:
    def test_zero_mode_returns_exact_zero(self):
        src = NoiseSource(0, mode="zero")
        assert all(src.laplace(s) == 0.0 for s in (0.1, 1.0, 100.0))

    def test_same_seed_same_sequence(self):
        a = NoiseSource(42)
        b = NoiseSource(42)
        assert [a.laplace(1.0) for _ in range(100)] == [b.laplace(1.0) for _ in range(100)]

    def test_children_are_independent_and_deterministic(self):
        a = NoiseSource(42).child(7)
        b = NoiseSource(42).child(7)
        c = NoiseSource(42).child(8)
        seq_a = [a.laplace(1.0) for _ in range(10)]
        assert seq_a == [b.laplace(1.0) for _ in range(10)]
        assert seq_a != [c.laplace(1.0) for _ in range(10)]

    @pytest.mark.parametrize("bad", [True, 1.5, 1.0, "1", -1])
    def test_seeds_and_keys_must_be_non_negative_integers(self, bad):
        # int() would read True, 1.5 and 1.0 as 1: the stream of another seed or key
        with pytest.raises(ValueError, match=f"noise seed must be a non-negative integer, got {bad!r}"):
            NoiseSource(bad)
        with pytest.raises(ValueError, match=f"noise seed words must be non-negative integers, got {bad!r}"):
            NoiseSource((0, bad))
        with pytest.raises(ValueError, match=f"spawn keys must be non-negative integers, got {bad!r}"):
            NoiseSource(0).child(bad)
        assert NoiseSource(np.int64(3)).child(np.int32(1)).uniform() == NoiseSource(3).child(1).uniform()

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_children_never_alias(self, seed):
        def first(source):
            return source.uniform()

        def seeded(entropy):
            return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy))).random()

        root = NoiseSource(seed)
        draws = {
            "root": first(NoiseSource(seed)),
            "child(0)": first(root.child(0)),
            "child(2)": first(root.child(2)),
            "child(2, 0)": first(root.child(2, 0)),
            "child(2).child(0)": first(root.child(2).child(0)),
            "child(3)": first(root.child(3)),
            # the randomized_batch shuffle and the seed support seed their own generators
            "shuffle": seeded(seed),
            "seed support": seeded((seed, 3)),
        }
        assert draws["root"] == draws["shuffle"]  # the root is the seed's own stream
        assert draws["child(2, 0)"] == draws["child(2).child(0)"]  # keys extend
        pairs = [
            ("root", "child(0)"), ("child(2)", "child(2, 0)"), ("child(0)", "shuffle"),
            ("child(2)", "shuffle"), ("child(3)", "seed support"), ("child(0)", "seed support"),
        ]
        for a, b in pairs:
            assert draws[a] != draws[b], (a, b)

    @pytest.mark.parametrize("before, n", [(0, 5), (250, 20), (3, 600), (256, 256), (10, 0)])
    def test_laplace_vector_takes_the_uniforms_of_scalar_draws(self, before, n):
        # after before scalar draws, the vector takes the next n uniforms, and the draw after it
        # is the one n scalar calls would be followed by
        vector, scalar = NoiseSource(17), NoiseSource(17)
        for source in (vector, scalar):
            for _ in range(before):
                source.laplace(1.0)
        got = vector.laplace_vector(3.0, n)
        want = np.array([scalar.laplace(3.0) for _ in range(n)])
        assert got.shape == (n,) and got.dtype == np.float64
        # the same formula; np.log1p and math.log1p may round apart by about an ulp
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
        assert vector.laplace_draws == scalar.laplace_draws == before + n
        assert vector.laplace(1.0) == scalar.laplace(1.0)
        assert vector.uniform() == scalar.uniform()

    def test_laplace_vector_at_the_lowest_uniform(self):
        # u = 0 gives v = -1, moved up by 2**-53 as the scalar draw does: a finite value
        vector, scalar = NoiseSource(0), NoiseSource(0)
        for source in (vector, scalar):
            source._rng = FixedUniforms([0.0, 0.5])
        got = vector.laplace_vector(1.0, 2)
        assert got.tolist() == [math.log1p(-(1.0 - 2.0**-53)), 0.0]
        assert got.tolist() == [scalar.laplace(1.0), scalar.laplace(1.0)]

    @pytest.mark.parametrize("key", [(), (2,), (1, 0)])
    def test_draws_take_the_generator_uniforms_in_order(self, key):
        # a root source and its children alike: uniform, laplace and laplace_vector each take the
        # next uniforms of the generator of SeedSequence(entropy, spawn_key=key), none skipped
        source = NoiseSource(23).child(*key) if key else NoiseSource(23)
        assert source.spawn_key == key
        rng = np.random.default_rng(np.random.SeedSequence(23, spawn_key=key))
        for n in (3, 0, 1, 300, 7):
            assert source.uniform() == rng.random()
            v = 2.0 * rng.random() - 1.0
            assert source.laplace(2.0) == -2.0 * math.copysign(1.0, v) * math.log1p(-abs(v))
            v = np.maximum(2.0 * rng.random(n) - 1.0, -1.0 + 2.0**-53)
            want = -2.0 * np.copysign(1.0, v) * np.log1p(-np.abs(v))
            assert source.laplace_vector(2.0, n).tobytes() == want.tobytes()
        assert source.uniform() == rng.random()

    def test_laplace_vector_in_zero_mode(self):
        source = NoiseSource(3, mode="zero")
        got = source.laplace_vector(2.0, 7)
        assert got.tolist() == [0.0] * 7 and got.dtype == np.float64
        assert source.laplace_draws == 7
        with pytest.raises(ValueError):
            source.laplace_vector(0.0, 3)

    @pytest.mark.parametrize("mode", ["laplace", "zero"])
    @pytest.mark.parametrize("n", [-3, 2.5, True, "4"])
    def test_laplace_vector_rejects_a_bad_count_before_counting_it(self, mode, n):
        source = NoiseSource(3, mode=mode)
        source.laplace_vector(2.0, 4)
        with pytest.raises(ValueError, match="draw count"):
            source.laplace_vector(1.0, n)
        assert source.laplace_draws == 4
        assert source.laplace_vector(1.0, np.int64(0)).shape == (0,) and source.laplace_draws == 4

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            NoiseSource(0, mode="gaussian")

    def test_scale_must_be_positive(self):
        src = NoiseSource(0)
        with pytest.raises(ValueError):
            src.laplace(0.0)
        with pytest.raises(ValueError):
            src.laplace(-1.0)
        src_zero = NoiseSource(0, mode="zero")
        with pytest.raises(ValueError):
            src_zero.laplace(0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["laplace", "zero"])
    def test_scale_must_be_finite(self, scale, mode):
        # a NaN scale used to draw NaN and an infinite one [inf, -inf]
        src = NoiseSource(0, mode=mode)
        with pytest.raises(ValueError, match="finite"):
            src.laplace(scale)
        with pytest.raises(ValueError, match="finite"):
            src.laplace_vector(scale, 2)
        assert src.laplace_draws == 0

    def test_empirical_variance(self):
        # oracle: Var[Laplace(0, b)] = 2 b^2, Monte Carlo at 1e5 draws
        src = NoiseSource(123)
        b = 2.5
        draws = np.array([src.laplace(b) for _ in range(100_000)])
        assert draws.var() == pytest.approx(2 * b * b, rel=0.05)

    def test_tail_probability(self):
        # oracle: P(|X| > b ln(1/beta)) = beta for Laplace(0, b)
        src = NoiseSource(7)
        b, beta = 1.0, 0.05
        threshold = b * math.log(1 / beta)
        draws = np.array([src.laplace(b) for _ in range(100_000)])
        freq = (np.abs(draws) > threshold).mean()
        assert freq == pytest.approx(beta, abs=0.003)


class TestExponentialMechanism:
    def test_rejects_bad_inputs(self):
        src = NoiseSource(0)
        with pytest.raises(ValueError, match="nonempty"):
            exponential_mechanism([], 1.0, 1.0, src)
        with pytest.raises(ValueError, match="finite"):
            exponential_mechanism([0.0, math.inf], 1.0, 1.0, src)
        with pytest.raises(ValueError, match="epsilon"):
            exponential_mechanism([0.0], 0.0, 1.0, src)
        with pytest.raises(ValueError, match="sensitivity"):
            exponential_mechanism([0.0], 1.0, 0.0, src)

    @pytest.mark.parametrize("mode", ["laplace", "zero"])
    @pytest.mark.parametrize("utilities", [[[0.0, 5.0], [1.0, 2.0]], [[3.0]], 4.0, np.zeros((2, 0))])
    def test_rejects_utilities_that_are_not_one_dimensional(self, mode, utilities):
        source = NoiseSource(0, mode=mode)
        with pytest.raises(ValueError, match="one-dimensional"):
            exponential_mechanism(utilities, 1.0, 1.0, source)
        assert source.uniform() == NoiseSource(0).uniform()  # nothing was drawn

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["laplace", "zero"])
    def test_rejects_non_finite_epsilon_and_sensitivity(self, bad, mode):
        # a NaN epsilon used to return index 0 silently, and an infinite one with a RuntimeWarning
        src = NoiseSource(0, mode=mode)
        with pytest.raises(ValueError, match="epsilon"):
            exponential_mechanism([0.1, 0.5, 0.2], bad, 1.0, src)
        with pytest.raises(ValueError, match="sensitivity"):
            exponential_mechanism([0.1, 0.5, 0.2], 1.0, bad, src)

    @pytest.mark.parametrize("epsilon, sensitivity", [(1.0, 1e-320), (1e308, 1e-300), (1e-320, 1e300)])
    @pytest.mark.parametrize("mode", ["laplace", "zero"])
    def test_rejects_a_rate_that_is_not_positive_and_finite(self, epsilon, sensitivity, mode):
        # each value is finite and positive, but epsilon / (2 * sensitivity) overflows or underflows:
        # the overflows used to return index 0 with a RuntimeWarning
        with pytest.raises(ValueError, match="epsilon / \\(2 \\* sensitivity\\)"):
            exponential_mechanism([0.1, 0.5, 0.2], epsilon, sensitivity, NoiseSource(0, mode=mode))

    def test_zero_mode_is_argmax_with_lowest_index_ties(self):
        src = NoiseSource(0, mode="zero")
        assert exponential_mechanism([1.0, 3.0, 3.0], 1.0, 1.0, src) == 1
        assert exponential_mechanism([5.0, 5.0], 1.0, 1.0, src) == 0

    def test_zero_mode_ties_utilities_within_rounding(self):
        src = NoiseSource(0, mode="zero")
        # one ulp apart is a tie, and the lowest index wins it
        assert exponential_mechanism([1.0, 1.0 + 2**-52, 0.5], 1.0, 1.0, src) == 0
        assert exponential_mechanism([-3e9, -3e9 + 1.0], 1.0, 1.0, src) == 0
        # a real gap still picks the larger utility
        assert exponential_mechanism([1.0, 1.0 + 1e-6], 1.0, 1.0, src) == 1
        assert exponential_mechanism([0.0, 1e-8], 1.0, 1.0, src) == 1

    def test_laplace_mode_draws_ignore_the_tie_rule(self):
        # same uniforms, same picks as the plain softmax inverse-CDF draw
        u = np.array([1.0, 1.0 + 2**-52, 0.5])
        probs = np.exp(0.5 * (u - u.max()))
        probs /= probs.sum()
        for seed in range(50):
            r = NoiseSource(seed).uniform()
            expected = min(int(np.searchsorted(np.cumsum(probs), r, side="right")), 2)
            assert exponential_mechanism(u, 1.0, 1.0, NoiseSource(seed)) == expected

    def test_uniform_utilities_give_uniform_selection(self):
        src = NoiseSource(11)
        counts = np.zeros(8)
        for _ in range(10_000):
            counts[exponential_mechanism(np.zeros(8), 1.0, 1.0, src)] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_strong_gap_selects_best(self):
        # utilities (0, M) with eps*M/(2*sens) = 20: P(index 0) = 1/(1+e^20)
        src = NoiseSource(5)
        eps, sens = 1.0, 1.0
        M = 20 * 2 * sens / eps
        hits = sum(
            exponential_mechanism([0.0, M], eps, sens, src) == 1 for _ in range(10_000)
        )
        assert hits / 10_000 >= 0.999

    def test_a_gap_that_overflows_the_rate_selects_best(self):
        # rate * u overflows float64 for u = 1e308 and rate 2: the weight of every other index,
        # below exp(-1000), is exactly 0
        with np.errstate(over="raise"):
            for seed in range(5):
                assert exponential_mechanism([0.0, 1e308], 1.0, 0.25, NoiseSource(seed)) == 1
                assert exponential_mechanism([1e308, -5e307, 9e307], 1.0, 0.25, NoiseSource(seed)) == 0
                # a rate of 5e307, which overflows on a gap of 8
                assert exponential_mechanism([10.0, 2.0], 1e308, 1.0, NoiseSource(seed)) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(5))
    def test_a_spread_past_the_float64_range_selects_best_without_warning(self, seed):
        # 1e308 - (-1e308) overflows: the shift used to warn "overflow encountered in subtract"
        assert exponential_mechanism([-1e308, 1e308, 0.0], 1.0, 1.0, NoiseSource(seed)) == 1

    def test_joint_scaling_leaves_distribution_identical(self):
        # scaling utilities and sensitivity together preserves the softmax ratios,
        # so identical uniform draws give identical choices
        u = np.array([0.3, 1.7, 0.9, 2.2])
        picks_a = [exponential_mechanism(u, 1.0, 0.25, NoiseSource(s)) for s in range(200)]
        picks_b = [exponential_mechanism(u * 8, 1.0, 2.0, NoiseSource(s)) for s in range(200)]
        assert picks_a == picks_b

    def test_matches_softmax_within_multinomial_bounds(self):
        u = np.array([1.0, 2.0, 0.5])
        eps, sens = 1.5, 1.0
        logits = eps * u / (2 * sens)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        n = 100_000
        src = NoiseSource(99)
        counts = np.zeros(3)
        for _ in range(n):
            counts[exponential_mechanism(u, eps, sens, src)] += 1
        for i in range(3):
            bound = 3 * math.sqrt(probs[i] * (1 - probs[i]) / n)
            assert abs(counts[i] / n - probs[i]) <= bound

    def test_accuracy_guarantee(self):
        # the selected utility falls below u_opt - (2*sens/eps) ln(|R|/beta)
        # with probability at most beta
        rng = np.random.default_rng(17)
        src = NoiseSource(23)
        eps, sens, beta = 1.0, 1.0, 0.1
        trials, failures = 1000, 0
        for _ in range(trials):
            u = rng.uniform(0, 20, size=16)
            threshold = u.max() - (2 * sens / eps) * math.log(len(u) / beta)
            picked = exponential_mechanism(u, eps, sens, src)
            if u[picked] < threshold:
                failures += 1
        assert failures / trials <= beta


class TestBudgetLedger:
    def test_spends_within_budget(self):
        ledger = BudgetLedger(Fraction(1))
        ledger.spend("first", 0.5)
        ledger.spend("second", 0.5)
        assert ledger.group_total(None) == Fraction(1)

    def test_overspend_rejected(self):
        ledger = BudgetLedger(Fraction(1))
        ledger.spend("first", 0.5)
        with pytest.raises(BudgetOverspendError):
            ledger.spend("second", 0.6)

    def test_exact_rational_accounting(self):
        # ten spends of 1/10 hit the budget exactly; floats would drift
        ledger = BudgetLedger(Fraction(1))
        for i in range(10):
            ledger.spend(f"s{i}", 0.1)
        assert ledger.group_total(None) == Fraction(1)
        with pytest.raises(BudgetOverspendError):
            ledger.spend("extra", 0.1)

    def test_numerator_divisor_entries(self):
        ledger = BudgetLedger(Fraction(1, 2))
        entry = ledger.spend("sel", Fraction(1, 2), 6, group="t=1", category="selection")
        assert entry.numerator == Fraction(1, 2)
        assert entry.divisor == 6
        assert entry.epsilon == Fraction(1, 12)

    def test_entry_epsilon_is_a_field_divided_once(self):
        entry = BudgetLedger(Fraction(1)).spend("sel", Fraction(3, 4), 6, group="t=1")
        assert type(entry) is BudgetEntry and "epsilon" in BudgetEntry._fields
        assert entry == ("sel", Fraction(3, 4), 6, "t=1", "", Fraction(1, 8))
        assert entry.epsilon == entry.numerator / entry.divisor
        assert entry.epsilon is entry.epsilon  # stored, not a fresh quotient per read

    def test_groups_compose_in_parallel(self):
        # each step group independently gets the whole budget
        ledger = BudgetLedger(Fraction(1))
        for t in (1, 2, 3):
            ledger.spend("a", Fraction(1), 2, group=f"t={t}")
            ledger.spend("b", Fraction(1), 2, group=f"t={t}")
        assert max(ledger.group_total(g) for g in ledger.groups()) == Fraction(1)
        with pytest.raises(BudgetOverspendError):
            ledger.spend("c", Fraction(1), 2, group="t=2")

    def test_running_totals_match_entry_scan(self):
        def scan(entries, group, category=None):
            return sum(
                (e.epsilon for e in entries if e.group == group and category in (None, e.category)),
                Fraction(0),
            )

        rng = np.random.default_rng(5)
        ledger = BudgetLedger(Fraction(1))
        groups = [None, "t=1", "t=2", "t=3"]
        rejected = 0
        for i in range(300):
            group = groups[int(rng.integers(len(groups)))]
            category = ("selection", "measurement")[int(rng.integers(2))]
            size = len(ledger.entries)
            try:
                ledger.spend(f"s{i}", Fraction(1), int(rng.integers(2, 40)), group=group, category=category)
            except BudgetOverspendError:
                rejected += 1
                assert len(ledger.entries) == size  # nothing recorded
            seen = list(dict.fromkeys(e.group for e in ledger.entries))
            assert ledger.groups() == seen
            for g in groups:
                assert ledger.group_total(g) == scan(ledger.entries, g)
                for c in ("selection", "measurement", "other"):
                    assert ledger.category_total(g, c) == scan(ledger.entries, g, c)
            top = max((ledger.group_total(g) for g in ledger.groups()), default=0)
            assert top == max((scan(ledger.entries, g) for g in seen), default=0)
        assert rejected > 0

    @pytest.mark.parametrize("total", [Fraction(1), Fraction(7, 3), Fraction(2, 5)])
    def test_integer_totals_match_fraction_scan(self, total):
        # mixed divisors and float and string numerators all refine the unit
        def scan(entries, group, category=None):
            return sum(
                (e.epsilon for e in entries if e.group == group and category in (None, e.category)),
                Fraction(0),
            )

        rng = np.random.default_rng(11)
        numerators = [total, Fraction(1, 3), 0.1, "0.25", Fraction(5, 7)]
        ledger = BudgetLedger(total)
        ledger.spend("s0", 0.1, 3, group="t=2", category="selection")
        ledger.spend("s1", Fraction(2, 9), 1, group="t=1", category="counter")
        ledger.spend("s2", Fraction(1, 11), 2, group="t=3", category="measurement")
        groups = [None, "t=1", "t=2", "t=3"]
        for i in range(200):
            group = groups[int(rng.integers(len(groups)))]
            category = ("selection", "counter", "measurement")[int(rng.integers(3))]
            numerator = numerators[int(rng.integers(len(numerators)))]
            size, divisor = len(ledger.entries), int(rng.integers(1, 13))
            try:
                entry = ledger.spend(f"x{i}", numerator, divisor, group=group, category=category)
            except BudgetOverspendError:
                assert len(ledger.entries) == size
                assert scan(ledger.entries, group) + Fraction(str(numerator)) / divisor > total
            else:
                assert scan(ledger.entries, group) <= total and entry is ledger.entries[-1]
            for g in groups:
                assert ledger.group_total(g) == scan(ledger.entries, g)
                assert type(ledger.group_total(g)) is Fraction
                for c in ("selection", "counter", "measurement"):
                    assert ledger.category_total(g, c) == scan(ledger.entries, g, c)
            top = max(ledger.group_total(g) for g in ledger.groups())
            assert top == max(scan(ledger.entries, g) for g in ledger.groups())
            assert type(top) is Fraction
        assert ledger.group_total("t=1") > 0 and ledger.group_total("t=3") > 0

    def test_spend_up_to_a_non_integer_total_exactly(self):
        ledger = BudgetLedger(Fraction(7, 3))
        for _ in range(6):
            ledger.spend("share", Fraction(7, 3), 6, group="t=1")
        assert ledger.group_total("t=1") == Fraction(7, 3)
        with pytest.raises(BudgetOverspendError):
            ledger.spend("over", Fraction(1, 10**30), group="t=1")
        ledger.spend("float", 0.1, group="t=2")
        assert ledger.group_total("t=2") == Fraction(1, 10)

    def test_a_repeated_share_matches_fresh_fractions(self):
        # share A, A again (reused), B whose denominator refines the unit, then A twice: once
        # derived again at the new unit and once reused; the other ledger gets a new Fraction
        # every spend, so it derives every share
        a, b = Fraction(2, 3), Fraction(1, 5)
        spends = [
            ("a0", a, 4, "t=1", "selection"),
            ("a1", a, 4, "t=1", "counter"),
            ("b0", b, 7, "t=1", "selection"),
            ("a2", a, 4, "t=1", "selection"),
            ("a3", a, 4, "t=2", "counter"),
            ("a4", a, 8, "t=2", "selection"),  # the same numerator at another divisor
        ]
        reused, fresh = BudgetLedger(Fraction(3, 2)), BudgetLedger(Fraction(3, 2))
        with mock.patch.object(reused, "_units_of", wraps=reused._units_of) as units_of:
            for label, numerator, divisor, group, category in spends:
                reused.spend(label, numerator, divisor, group=group, category=category)
                copy = Fraction(numerator.numerator, numerator.denominator)
                fresh.spend(label, copy, divisor, group=group, category=category)
        assert units_of.call_count == 4  # a0, b0, a2 and a4 derive their share
        assert reused.entries == fresh.entries
        sixth, share_b = Fraction(1, 6), Fraction(1, 35)
        assert [e.epsilon for e in reused.entries] == [sixth, sixth, share_b, sixth, sixth, sixth / 2]
        for group in ("t=1", "t=2"):
            assert reused.group_total(group) == fresh.group_total(group)
            for category in ("selection", "counter"):
                assert reused.category_total(group, category) == fresh.category_total(group, category)
        assert reused.group_total("t=1") == Fraction(1, 2) + Fraction(1, 35)

    def test_overspend_through_a_reused_share_is_rejected(self):
        ledger = BudgetLedger(Fraction(1, 2))
        share = Fraction(1, 2)
        with mock.patch.object(ledger, "_units_of", wraps=ledger._units_of) as units_of:
            for _ in range(3):
                ledger.spend("share", share, 3, group="t=1", category="selection")
            assert ledger.group_total("t=1") == Fraction(1, 2)
            with pytest.raises(BudgetOverspendError):
                ledger.spend("over", share, 3, group="t=1", category="selection")
        assert units_of.call_count == 1  # derived by the first spend, reused by the other three
        assert len(ledger.entries) == 3 and ledger.group_total("t=1") == Fraction(1, 2)
        assert ledger.category_total("t=1", "selection") == Fraction(1, 2)
        ledger.spend("next", share, 3, group="t=2")
        assert ledger.group_total("t=2") == Fraction(1, 6)

    def test_entries_come_only_from_spend(self):
        with pytest.raises(TypeError):
            BudgetLedger(Fraction(1), [])
        ledger = BudgetLedger(Fraction(1))
        first = ledger.spend("a", Fraction(1), 2, group="t=1", category="selection")
        assert ledger.entries == [first]

    @pytest.mark.parametrize("total", [0.1, 0.3, "0.3", np.float64(0.3)])
    def test_a_float_total_spends_itself_exactly(self, total):
        # the total is read as spend reads a numerator: 0.3 is 3/10, not the binary
        # 5404319552844595/18014398509481984, which the spend of 0.3 used to exceed
        ledger = BudgetLedger(total)
        assert ledger.total_epsilon == Fraction(str(total))
        ledger.spend("all", total, group="t=1")
        assert ledger.group_total("t=1") == ledger.total_epsilon
        for _ in range(3):
            ledger.spend("thirds", total, 3, group="t=2")
        assert ledger.group_total("t=2") == ledger.total_epsilon
        with pytest.raises(BudgetOverspendError):
            ledger.spend("over", Fraction(1, 10**30), group="t=1")

    @pytest.mark.parametrize("divisor", [4.5, 2.9, True, 0, -2, "4"])
    def test_a_divisor_must_be_an_integer_of_at_least_one(self, divisor):
        # 4.5 used to record 1/4, 2.9 a divisor of 2 and True a divisor of 1
        ledger = BudgetLedger(Fraction(1))
        with pytest.raises(ValueError, match="divisor"):
            ledger.spend("bad", 1, divisor)
        assert ledger.entries == [] and ledger.group_total(None) == 0
        assert ledger.spend("good", 1, np.int64(4)).epsilon == Fraction(1, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BudgetLedger(Fraction(0))
        ledger = BudgetLedger(Fraction(1))
        with pytest.raises(ValueError):
            ledger.spend("bad", 0)
