import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from dpstream import (
    BudgetLedger,
    BudgetOverspendError,
    NoiseSource,
    exponential_mechanism,
    laplace,
    ledger_spend,
)


class TestNoiseSource:
    def test_zero_mode_returns_exact_zero(self):
        src = NoiseSource(0, mode="zero")
        assert all(laplace(s, src) == 0.0 for s in (0.1, 1.0, 100.0))

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

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            NoiseSource(0, mode="gaussian")

    def test_scale_must_be_positive(self):
        src = NoiseSource(0)
        with pytest.raises(ValueError):
            laplace(0.0, src)
        with pytest.raises(ValueError):
            laplace(-1.0, src)
        src_zero = NoiseSource(0, mode="zero")
        with pytest.raises(ValueError):
            laplace(0.0, src_zero)

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

    def test_zero_mode_is_argmax_with_lowest_index_ties(self):
        src = NoiseSource(0, mode="zero")
        assert exponential_mechanism([1.0, 3.0, 3.0], 1.0, 1.0, src) == 1
        assert exponential_mechanism([5.0, 5.0], 1.0, 1.0, src) == 0

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
        ledger_spend(ledger, "first", 0.5)
        ledger_spend(ledger, "second", 0.5)
        assert ledger.group_total(None) == Fraction(1)

    def test_overspend_rejected(self):
        ledger = BudgetLedger(Fraction(1))
        ledger_spend(ledger, "first", 0.5)
        with pytest.raises(BudgetOverspendError):
            ledger_spend(ledger, "second", 0.6)

    def test_exact_rational_accounting(self):
        # ten spends of 1/10 hit the budget exactly; floats would drift
        ledger = BudgetLedger(Fraction(1))
        for i in range(10):
            ledger_spend(ledger, f"s{i}", 0.1)
        assert ledger.group_total(None) == Fraction(1)
        with pytest.raises(BudgetOverspendError):
            ledger_spend(ledger, "extra", 0.1)

    def test_numerator_divisor_entries(self):
        ledger = BudgetLedger(Fraction(1, 2))
        entry = ledger.spend("sel", Fraction(1, 2), 6, group="t=1", category="selection")
        assert entry.numerator == Fraction(1, 2)
        assert entry.divisor == 6
        assert entry.epsilon == Fraction(1, 12)

    def test_groups_compose_in_parallel(self):
        # each step group independently gets the whole budget
        ledger = BudgetLedger(Fraction(1))
        for t in (1, 2, 3):
            ledger.spend("a", Fraction(1), 2, group=f"t={t}")
            ledger.spend("b", Fraction(1), 2, group=f"t={t}")
        assert ledger.max_group_total() == Fraction(1)
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
            assert ledger.max_group_total() == max((scan(ledger.entries, g) for g in seen), default=0)
        assert rejected > 0

    def test_totals_seeded_from_constructor_entries(self):
        first = BudgetLedger(Fraction(1))
        first.spend("a", Fraction(1), 2, group="t=1", category="selection")
        first.spend("b", Fraction(1), 4, group="t=2", category="measurement")
        copy = BudgetLedger(Fraction(1), list(first.entries))
        assert copy.groups() == ["t=1", "t=2"]
        assert copy.group_total("t=1") == Fraction(1, 2)
        assert copy.category_total("t=2", "measurement") == Fraction(1, 4)
        with pytest.raises(BudgetOverspendError):
            copy.spend("c", Fraction(3), 4, group="t=1")
        assert len(copy.entries) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BudgetLedger(Fraction(0))
        ledger = BudgetLedger(Fraction(1))
        with pytest.raises(ValueError):
            ledger.spend("bad", 0)
