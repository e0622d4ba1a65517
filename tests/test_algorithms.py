import math
import pickle
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstream import (
    CounterSynthesizer,
    DatasetStream,
    DomainSchema,
    Measurement,
    MultiDimCounter,
    NoiseSource,
    RunConfig,
    StreamingMwem,
    WeightedDataset,
    Workload,
    WorkingSupport,
    WorkloadSet,
    accumulate,
    dataset_mean,
    enumerate_workloads,
    eval_workload,
    evaluate_step,
    exponential_mechanism,
    make_synthesizer,
    mw_fit,
    stream_difference_norm,
)
from dpstream import algorithms, surrogate
from dpstream.counters import KINDS
from dpstream.queries import WorkloadCover, cell_values

SCHEMA_2X2 = DomainSchema((("a", 2), ("b", 2)))
SCHEMA_234 = DomainSchema((("a", 2), ("b", 3), ("c", 4)))


def zero_config(workloads, k, seed=0, **kwargs):
    return RunConfig(
        epsilon=Fraction(1), k=k, workloads=workloads, noise_mode="zero", seed=seed, **kwargs
    )


def random_deltas(schema, steps, seed, max_rows=6):
    rng = np.random.default_rng(seed)
    cards = schema.cardinalities
    out = []
    for _ in range(steps):
        rows = [
            tuple(int(rng.integers(c)) for c in cards)
            for _ in range(int(rng.integers(1, max_rows)))
        ]
        out.append(WeightedDataset.from_rows(schema, rows))
    return out


class TestRunConfig:
    def test_workloads_are_read_as_a_workload_set(self):
        Q = enumerate_workloads(SCHEMA_234, 2)
        assert RunConfig(epsilon=Fraction(1), k=1, workloads=Q).workloads is Q
        config = RunConfig(epsilon=Fraction(1), k=1, workloads=list(Q))
        assert isinstance(config.workloads, WorkloadSet) and tuple(config.workloads) == tuple(Q)
        with pytest.raises(ValueError, match="not workload 0's schema"):
            RunConfig(epsilon=Fraction(1), k=1, workloads=[Q[0], *enumerate_workloads(SCHEMA_2X2, 2)])
        with pytest.raises(ValueError, match="distinct"):
            RunConfig(epsilon=Fraction(1), k=1, workloads=[Q[0], Q[1], Q[0]])

    def test_k_cannot_exceed_workload_count(self):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        with pytest.raises(ValueError, match="distinct workloads"):
            RunConfig(epsilon=Fraction(1), k=3, workloads=Q)

    def test_sensitivity_defaults(self):
        two_way = enumerate_workloads(SCHEMA_234, 2)
        one_way = enumerate_workloads(SCHEMA_234, 1)
        assert RunConfig(epsilon=Fraction(1), k=1, workloads=two_way).resolved_sensitivity() == 0.25
        assert RunConfig(epsilon=Fraction(1), k=1, workloads=one_way).resolved_sensitivity() == 1.0

    def test_sensitivity_covers_smallest_workload(self):
        # a 2-way workload over a cardinality-1 attribute has |W| = 2, so its
        # utility |s - h|_1 / |W| moves by 1/2 when one record is added
        schema = DomainSchema((("a", 1), ("b", 2), ("c", 3)))
        two_way = enumerate_workloads(schema, 2)
        assert min(w.size for w in two_way) == 2
        assert RunConfig(epsilon=Fraction(1), k=1, workloads=two_way).resolved_sensitivity() == 0.5

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.data())
    def test_sensitivity_follows_the_documented_rule(self, cards, data):
        # cardinality-1 attributes included, so a workload can have 1, 2 or 3 cells
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        k_way = data.draw(st.integers(1, min(3, len(cards))))
        workloads = enumerate_workloads(schema, k_way)
        sensitivity = RunConfig(epsilon=Fraction(1), k=1, workloads=workloads).resolved_sensitivity()
        floor = 1 / min(math.prod(cards[c] for c in w.columns) for w in workloads)
        assert sensitivity >= floor
        assert sensitivity == max(0.25 if k_way == 2 else 1.0, floor)

    def test_epsilon_parsed_exactly(self):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        cfg = RunConfig(epsilon=0.1, k=1, workloads=Q)
        assert cfg.epsilon == Fraction(1, 10)

    @pytest.mark.parametrize(
        "kind, block_size",
        [("simpel", None), ("simpel", 4), ("bounded_block", None), ("block", None), ("block", 0)],
    )
    def test_bad_counter_rejected_before_any_step(self, kind, block_size):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        with pytest.raises(ValueError, match="counter"):
            RunConfig(epsilon=Fraction(1), k=1, workloads=Q, counter_kind=kind, block_size=block_size)


class TestBaseline:
    def test_empty_delta_holds_and_spends_nothing(self):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = StreamingMwem(zero_config(Q, k=2))
        g0 = synth.g
        g1 = synth.step(WeightedDataset.empty(SCHEMA_2X2))
        assert g1 is g0
        assert len(synth.ledger.entries) == 0

    def test_per_step_ledger_is_exactly_split(self):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = StreamingMwem(zero_config(Q, k=2))
        delta = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 4.0})
        for _ in range(3):
            synth.step(delta)
        ledger = synth.ledger
        for t in (1, 2, 3):
            group = f"t={t}"
            selections = [e for e in ledger.entries if e.group == group and e.category == "selection"]
            measurements = [e for e in ledger.entries if e.group == group and e.category == "measurement"]
            assert len(selections) == 2 and len(measurements) == 2
            assert all(e.numerator == Fraction(1) and e.divisor == 4 for e in selections)
            assert ledger.category_total(group, "selection") == Fraction(1, 2)
            assert ledger.category_total(group, "measurement") == Fraction(1, 2)
            assert ledger.group_total(group) == Fraction(1)

    def test_zero_noise_single_step_within_mw_bound(self):
        # one-step error against the convergence bound 2|f| sqrt(ln|X|/k)
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = StreamingMwem(zero_config(Q, k=2))
        delta = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 6.0, (1, 1): 2.0})
        g1 = synth.step(delta)
        worst = max(
            float(np.abs(eval_workload(w, g1) - eval_workload(w, delta)).max()) for w in Q
        )
        bound = 2 * delta.total_mass() * math.sqrt(math.log(4) / 2)
        assert worst <= bound

    def test_mass_accumulates(self):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = StreamingMwem(zero_config(Q, k=2))
        delta = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 4.0})
        g0_mass = synth.g.total_mass()
        for t in (1, 2, 3):
            g = synth.step(delta)
            assert g.total_mass() == pytest.approx(g0_mass + 4.0 * t, rel=1e-9)

    def test_deterministic_replay(self):
        Q = enumerate_workloads(SCHEMA_234, 2)
        deltas = random_deltas(SCHEMA_234, 6, seed=9)
        outs = []
        for _ in range(2):
            synth = StreamingMwem(
                RunConfig(epsilon=Fraction(1, 2), k=3, workloads=Q, seed=13)
            )
            outs.append([synth.step(d).as_mapping() for d in deltas])
        for a, b in zip(outs[0], outs[1]):
            assert a == b


class TestMainAlgorithm:
    def test_first_step_measurement_is_counter_plus_zero_remainder(self):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = CounterSynthesizer(zero_config(Q, k=2))
        delta = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 4.0, (1, 1): 2.0})
        synth.step(delta)
        for j in synth.last_selected:
            counter_value = synth.counters[j].peek()
            assert synth.last_measurements[j] == pytest.approx(counter_value)
            # zero noise: the counter holds the exact workload value of the delta
            assert counter_value == pytest.approx(eval_workload(Q[j], delta))

    def test_selected_indices_distinct_within_step(self):
        Q = enumerate_workloads(SCHEMA_234, 1)
        synth = CounterSynthesizer(zero_config(Q, k=3))
        synth.step(WeightedDataset.from_mapping(SCHEMA_234, {(0, 0, 0): 5.0}))
        assert len(set(synth.last_selected)) == 3

    def test_mass_identity(self):
        # |g_t| equals |differential| + |g_{t-1}| via the fitter's mass contract
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = CounterSynthesizer(zero_config(Q, k=2))
        delta = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 1): 3.0})
        prev = synth.g.total_mass()
        for _ in range(4):
            g = synth.step(delta)
            assert g.total_mass() == pytest.approx(prev + 3.0, rel=1e-9)
            prev = g.total_mass()

    def test_per_step_ledger_is_exactly_split(self):
        Q = enumerate_workloads(SCHEMA_234, 1)
        synth = CounterSynthesizer(zero_config(Q, k=3))
        delta = WeightedDataset.from_mapping(SCHEMA_234, {(0, 2, 1): 2.0})
        for _ in range(3):
            synth.step(delta)
        ledger = synth.ledger
        for t in (1, 2, 3):
            assert ledger.category_total(f"t={t}", "selection") == Fraction(1, 2)
            assert ledger.category_total(f"t={t}", "counter") == Fraction(1, 2)
            assert ledger.group_total(f"t={t}") == Fraction(1)

    def test_skips_only_when_no_data_and_no_synthetic_mass(self):
        # an empty differential with existing synthetic mass still runs a step
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = CounterSynthesizer(zero_config(Q, k=1))
        synth.step(WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 2.0}))
        entries_before = len(synth.ledger.entries)
        synth.step(WeightedDataset.empty(SCHEMA_2X2))
        assert len(synth.ledger.entries) > entries_before

    def test_empty_delta_preserves_mass(self):
        # the step still refines toward the counter values, but the surrogate
        # carries no new data so the total mass cannot move
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = CounterSynthesizer(zero_config(Q, k=2))
        delta = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 4.0})
        g1 = synth.step(delta)
        g2 = synth.step(WeightedDataset.empty(SCHEMA_2X2))
        assert g2.total_mass() == pytest.approx(g1.total_mass(), rel=1e-9)

    def test_streaming_contract_on_shared_prefix(self):
        # identical prefixes and identical seeds give identical outputs
        # through the shared prefix, whatever comes later
        Q = enumerate_workloads(SCHEMA_234, 2)
        shared = random_deltas(SCHEMA_234, 5, seed=3)
        tail_a = random_deltas(SCHEMA_234, 3, seed=4)
        tail_b = random_deltas(SCHEMA_234, 3, seed=5)
        outs = []
        for tail in (tail_a, tail_b):
            synth = CounterSynthesizer(
                RunConfig(epsilon=Fraction(1), k=2, workloads=Q, seed=21)
            )
            outs.append([synth.step(d).as_mapping() for d in shared + tail])
        for t in range(5):
            assert outs[0][t] == outs[1][t]
        assert outs[0][5] != outs[1][5]

    def test_zero_noise_normalized_error_non_increasing(self):
        # constant stream, all selections every step: the synthetic stream
        # keeps improving relative to the accumulated truth
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        synth = CounterSynthesizer(zero_config(Q, k=2))
        delta = WeightedDataset.from_mapping(SCHEMA_2X2, {(0, 0): 3.0, (1, 1): 1.0})
        f = WeightedDataset.empty(SCHEMA_2X2)
        values = []
        for _ in range(12):
            g = synth.step(delta)
            f = accumulate(f, delta)
            agg, _ = evaluate_step(Q, f, g)
            values.append(agg.avg_we)
        for prev, cur in zip(values[2:], values[3:]):
            assert cur <= prev + 1e-12


class TestRemainderBookkeeping:
    # Scripted 3-step zero-noise trace on a 2x3x4 domain with one-way
    # workloads of sizes 2, 3, 4 and k=2. The first pick of every step is
    # workload 0 (smallest cell count wins the bias-corrected utility); the
    # second pick alternates 1, 2, 1 by construction of the differentials.
    # Workload 1 is therefore selected at t=1, skipped at t=2, selected at
    # t=3, and its measurement must satisfy m(3,1) = C1(3) + q1(g2) - C1(2).
    D1 = {(0, 2, 0): 1.0, (1, 2, 1): 1.0, (0, 2, 2): 1.0, (1, 2, 3): 1.0}
    D2 = {(0, 0, 3): 1.0, (1, 1, 3): 2.0, (0, 2, 3): 1.0, (0, 1, 3): 1.0, (1, 0, 3): 1.0}
    D3 = {(0, 2, 0): 1.0, (1, 2, 1): 1.0, (0, 2, 2): 1.0, (1, 2, 3): 1.0}
    # frozen from an independent dense-array simulation of the same trace
    EXPECTED_M31 = np.array([11.25082827612189, 11.20085843309194, 15.548313290786169])
    EXPECTED_Q1_G2 = np.array([11.25082827612189, 11.20085843309194, 11.548313290786169])

    def test_trace(self):
        Q = enumerate_workloads(SCHEMA_234, 1)
        synth = CounterSynthesizer(zero_config(Q, k=2))
        deltas = [
            WeightedDataset.from_mapping(SCHEMA_234, d) for d in (self.D1, self.D2, self.D3)
        ]
        selected = []
        gs = []
        for d in deltas:
            gs.append(synth.step(d))
            selected.append(list(synth.last_selected))
        assert selected == [[0, 1], [0, 2], [0, 1]]

        w1 = Q[1]
        # zero noise makes counters exact: C1(3) covers the feeds at t in {1, 3}
        c1_at_3 = eval_workload(w1, deltas[0]) + eval_workload(w1, deltas[2])
        c1_at_2 = eval_workload(w1, deltas[0])  # held constant through t=2
        identity = c1_at_3 + eval_workload(w1, gs[1]) - c1_at_2
        np.testing.assert_allclose(synth.last_measurements[1], identity, atol=1e-9)
        np.testing.assert_allclose(synth.last_measurements[1], self.EXPECTED_M31, atol=1e-9)
        np.testing.assert_allclose(eval_workload(w1, gs[1]), self.EXPECTED_Q1_G2, atol=1e-9)

    def test_first_selection_after_t1_uses_synthetic_value(self):
        # workload 2 is first selected at t=2, so the remainder it starts from
        # is its value on g_1 (its counter was never fed before)
        Q = enumerate_workloads(SCHEMA_234, 1)
        synth = CounterSynthesizer(zero_config(Q, k=2))
        deltas = [
            WeightedDataset.from_mapping(SCHEMA_234, d) for d in (self.D1, self.D2, self.D3)
        ]
        g1 = synth.step(deltas[0])
        q2_g1 = eval_workload(Q[2], g1)
        synth.step(deltas[1])
        assert 2 in synth.last_selected
        expected = eval_workload(Q[2], deltas[1]) + q2_g1
        np.testing.assert_allclose(synth.last_measurements[2], expected, atol=1e-9)


    def test_counter_fed_on_consecutive_steps_keeps_its_remainder(self, monkeypatch):
        # scripted picks with k=1: workload 0 at t=1, workload 1 at t=2 and t=3,
        # workload 0 again at t=4
        picks = iter([0, 1, 1, 0])
        monkeypatch.setattr(algorithms, "exponential_mechanism", lambda *args: next(picks))
        Q = enumerate_workloads(SCHEMA_234, 1)
        synth = CounterSynthesizer(zero_config(Q, k=1))
        deltas = [
            WeightedDataset.from_mapping(SCHEMA_234, d)
            for d in (self.D1, self.D2, self.D3, self.D2)
        ]
        g1 = synth.step(deltas[0])
        g2 = synth.step(deltas[1])
        # first fed at t=2, workload 1 starts from its value on g_1
        q1 = [eval_workload(Q[1], data) for data in (*deltas[:3], g1, g2)]
        np.testing.assert_allclose(synth.last_measurements[1], q1[1] + q1[3], atol=1e-9)
        g3 = synth.step(deltas[2])
        # fed again at t=3: the remainder carries over instead of being re-read off g_2
        carried = q1[1] + q1[2] + q1[3]
        np.testing.assert_allclose(synth.last_measurements[1], carried, atol=1e-9)
        assert not np.allclose(q1[2] + q1[4], carried, atol=1e-6)
        synth.step(deltas[3])
        # unselected at t=2 and t=3, workload 0's remainder is re-read off g_3:
        # C0(4) + q0(g_3) - C0(3) with C0 fed D1 and D4
        expected = eval_workload(Q[0], deltas[3]) + eval_workload(Q[0], g3)
        np.testing.assert_allclose(synth.last_measurements[0], expected, atol=1e-9)


class TestRoundSelection:
    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    def test_last_selected_matches_the_step_ledger(self, algorithm):
        Q = enumerate_workloads(SCHEMA_234, 2)
        cfg = RunConfig(epsilon=Fraction(1), k=2, workloads=Q, seed=5)
        synth = make_synthesizer(algorithm, cfg)
        assert synth.last_selected == []
        deltas = random_deltas(SCHEMA_234, 6, seed=2)
        deltas.insert(3, WeightedDataset.empty(SCHEMA_234))
        for delta in deltas:
            spent = len(synth.ledger.entries)
            synth.step(delta)
            labels = [e.label for e in synth.ledger.entries[spent:]]
            if not labels:
                continue
            prefix = f"t={synth.t}/{'measure' if algorithm == 'baseline' else 'counter'}/W="
            measured = [int(label[len(prefix):]) for label in labels if label.startswith(prefix)]
            assert len(set(synth.last_selected)) == cfg.k
            assert synth.last_selected == measured


class TestFactory:
    def test_names(self):
        Q = enumerate_workloads(SCHEMA_2X2, 1)
        cfg = zero_config(Q, k=1)
        assert isinstance(make_synthesizer("baseline", cfg), StreamingMwem)
        assert isinstance(make_synthesizer("main", cfg), CounterSynthesizer)
        with pytest.raises(ValueError):
            make_synthesizer("other", cfg)

    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    @pytest.mark.parametrize("kind", ["simple", "bounded_block", "binary_tree", "unbounded_block"])
    def test_all_counter_kinds_run(self, algorithm, kind):
        Q = enumerate_workloads(SCHEMA_234, 2)
        cfg = RunConfig(
            epsilon=Fraction(1),
            k=2,
            workloads=Q,
            counter_kind=kind,
            block_size=4,
            seed=2,
        )
        synth = make_synthesizer(algorithm, cfg)
        for d in random_deltas(SCHEMA_234, 4, seed=6):
            g = synth.step(d)
        assert g.total_mass() > 0
        assert max(synth.ledger.group_total(g) for g in synth.ledger.groups()) == Fraction(1)

    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    def test_a_differential_over_another_schema_changes_nothing(self, algorithm):
        synth = make_synthesizer(algorithm, zero_config(enumerate_workloads(SCHEMA_234, 2), k=2))
        synth.step(random_deltas(SCHEMA_234, 1, seed=3)[0])
        t, entries, g = synth.t, list(synth.ledger.entries), synth.g
        # the same attribute names and a cardinality more in one: still another schema
        other = DomainSchema((("a", 2), ("b", 3), ("c", 5)))
        with pytest.raises(ValueError, match="differential schema does not match the support schema"):
            synth.step(random_deltas(other, 1, seed=3)[0])
        assert synth.t == t and synth.ledger.entries == entries and synth.g is g


def reference_releases(algorithm, config, deltas):
    """Both synthesizers' steps written with WeightedDataset operations only.

    This is the step loop before the synthetic state became a weight vector
    over the support; every release of the synthesizers must match it bit for bit.
    The support never changes: rows of a differential off it count in selection's
    reference and in measurements, and ``main``'s target is the mass of the part of
    the surrogate on the support plus that of those rows.
    """
    Q = config.workloads
    root = NoiseSource(config.seed, mode=config.noise_mode)
    select, measure, counter_root = root.child(0), root.child(1), root.child(2)
    support = WorkingSupport(Q[0].schema, seed_size=config.seed_support_size, seed=config.seed)
    eps_step = float(config.epsilon) / (2 * config.k)
    g = support.uniform_dataset(len(support))
    counters, remainders = {}, {}
    releases = []
    on_support = {tuple(p) for p in support.points.tolist()}
    for t, delta in enumerate(deltas, start=1):
        if algorithm == "baseline":
            target = delta.total_mass()
            h = support.uniform_dataset(target) if target else None
            reference = [eval_workload(w, delta) for w in Q]
        else:
            surrogate = accumulate(delta, g)
            off = np.array([tuple(p) not in on_support for p in delta.points.tolist()], dtype=bool)
            off_mass = WeightedDataset(delta.schema, delta.points[off], delta.weights[off]).total_mass()
            target = support.extend(surrogate, fill=0.0).total_mass() + off_mass
            h = support.extend(g)
            reference = [eval_workload(w, surrogate) for w in Q]
        if target == 0:
            releases.append(g)
            continue
        fits, selected = [], []
        for _ in range(config.k):
            candidates = [i for i in range(len(Q)) if i not in selected]
            bias = 0 if algorithm == "baseline" else 1
            utilities = np.array(
                [
                    np.abs(reference[i] - eval_workload(Q[i], h)).sum() / Q[i].size
                    - bias * Q[i].size
                    for i in candidates
                ]
            )
            j = candidates[
                exponential_mechanism(utilities, eps_step, config.resolved_sensitivity(), select)
            ]
            selected.append(j)
            if algorithm == "baseline":
                values = reference[j] + measure.laplace_vector(1.0 / eps_step, Q[j].size)
            else:
                if j not in remainders:
                    remainders[j] = np.zeros(Q[j].size) if t == 1 else eval_workload(Q[j], g)
                if j not in counters:
                    counters[j] = MultiDimCounter(
                        config.counter_kind, Q[j].size, eps_step, counter_root.child(j),
                        block_size=config.block_size,
                    )
                values = counters[j].feed(eval_workload(Q[j], delta)) + remainders[j]
            h = mw_fit([Measurement(j, Q[j], values)], h, target)
            fits.append(h)
        mean = dataset_mean(fits)
        if algorithm == "baseline":
            g = accumulate(g, mean)
        else:
            for i in counters:
                if i not in selected:
                    remainders[i] = eval_workload(Q[i], mean) - counters[i].peek()
            g = mean
        releases.append(g)
    return releases


class TestWeightVectorState:
    SCHEMA = DomainSchema((("a", 3), ("b", 4), ("c", 5), ("d", 3), ("e", 2)))

    def _assert_matches_reference(self, algorithm, **counter):
        # seeded Laplace noise and a 40-point seed support that most rows miss
        Q = enumerate_workloads(self.SCHEMA, 2)
        deltas = random_deltas(self.SCHEMA, 8, seed=17, max_rows=25)
        deltas.insert(3, WeightedDataset.empty(self.SCHEMA))
        config = RunConfig(
            epsilon=Fraction(1), k=3, workloads=Q, seed_support_size=40, seed=5,
            **counter,
        )
        synth = make_synthesizer(algorithm, config)
        points, before = synth.support.points, synth.support.points.copy()
        missed = 0
        for delta, want in zip(deltas, reference_releases(algorithm, config, deltas)):
            missed += int((~synth.support.observe(delta)[1]).sum())
            got = synth.step(delta)
            assert np.array_equal(got.points, want.points)
            assert got.weights.tobytes() == want.weights.tobytes()
            # the support never changed
            assert synth.support.points is points and np.array_equal(points, before)
        assert missed > len(deltas)  # rows off the support took part at most steps

    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    def test_releases_match_dataset_reference_bit_for_bit(self, algorithm):
        self._assert_matches_reference(algorithm, counter_kind="binary_tree")

    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_counter_kind_matches_dataset_reference(self, kind, algorithm):
        self._assert_matches_reference(algorithm, counter_kind=kind, block_size=4)

    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    def test_release_and_support_points_are_column_major(self, algorithm):
        Q = enumerate_workloads(self.SCHEMA, 2)
        synth = make_synthesizer(algorithm, zero_config(Q, k=2, seed_support_size=40))
        for delta in random_deltas(self.SCHEMA, 4, seed=3, max_rows=25):
            g = synth.step(delta)
            points = synth.support.points
            assert points.flags.f_contiguous and not points.flags.writeable
            assert g.points.flags.f_contiguous and not g.points.flags.writeable
            if len(g) == len(synth.support):  # no zero weight: the release shares the support's points
                assert g.points is points

    def test_underflowed_point_leaves_release_and_reenters_at_unit_weight(self):
        Q = enumerate_workloads(SCHEMA_234, 2)
        synth = CounterSynthesizer(zero_config(Q, k=2))
        victim = 5
        fit = synth.fitter.fit_weights
        inits = []

        def underflowing(cells, values, weights, target):
            inits.append(weights.copy())
            out = fit(cells, values, weights, target)
            if synth.t == 1:
                out[victim] = 0.0  # as if the weight had underflowed
            return out

        synth.fitter.fit_weights = underflowing
        deltas = random_deltas(SCHEMA_234, 2, seed=8)
        g1 = synth.step(deltas[0])
        point = tuple(synth.support.points[victim])
        assert point not in g1.as_mapping()
        assert len(g1) == len(synth.support) - 1
        inits.clear()
        g2 = synth.step(deltas[1])
        assert inits[0][victim] == 1.0
        assert inits[0].tobytes() == synth.support.extend(g1).weights.tobytes()
        assert g2.as_mapping()[point] > 0


class TestReleaseCells:
    """A release on the whole support evaluates on the cover's cached cells."""

    @staticmethod
    def _check(synth, g):
        whole = g.points is synth.support.points
        assert whole == (len(g) == len(synth.support))
        assert (g.support_cells is not None) == whole
        want = [cell_values(w.point_cells(g.points), g.weights, w.size).tobytes() for w in synth.workloads]
        assert [eval_workload(w, g).tobytes() for w in synth.workloads] == want
        copy = pickle.loads(pickle.dumps(g))
        assert copy.support_cells is None  # the lookup stays with the cover it came from
        assert [eval_workload(w, copy).tobytes() for w in synth.workloads] == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=2, max_size=5),
        st.sampled_from(["baseline", "main"]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_every_release_evaluates_as_its_own_points_bit_for_bit(self, cards, algorithm, sampled, seed):
        # cardinality-1 attributes included; a sampled support holds at most half the domain
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        seed_size = max(1, schema.size // 2) if sampled else schema.size
        config = RunConfig(
            epsilon=Fraction(1), k=1, workloads=enumerate_workloads(schema, 2), seed_support_size=seed_size,
            seed=seed % 5,
        )
        synth = make_synthesizer(algorithm, config)
        assert (len(synth.support) < schema.size) == (seed_size < schema.size)
        self._check(synth, synth.g)
        for delta in random_deltas(schema, 4, seed=seed, max_rows=12):
            self._check(synth, synth.step(delta))
        weights = synth._weights.copy()
        weights[seed % len(weights)] = 0.0  # as if the weight had underflowed
        g = synth._release(weights)
        assert len(g) == len(synth.support) - 1 and g.support_cells is None
        self._check(synth, g)


class TestRelease:
    """``_release`` turns a weight vector on the support into the release."""

    @pytest.fixture
    def synth(self):
        return make_synthesizer("main", zero_config(enumerate_workloads(SCHEMA_234, 2), k=1))

    @staticmethod
    def _check(synth, weights):
        g = synth._release(weights)
        want = WeightedDataset(SCHEMA_234, synth.support.points, weights)
        assert g is synth.g and g.points.tobytes() == want.points.tobytes()
        assert g.weights.tobytes() == want.weights.tobytes() and not np.shares_memory(g.weights, weights)
        assert g.points.flags.f_contiguous and not g.points.flags.writeable and not g.weights.flags.writeable
        assert synth._weights is weights and weights.flags.writeable
        return g

    def test_positive_weights_share_the_support_points(self, synth):
        g = self._check(synth, np.random.default_rng(22).random(len(synth.support)) + 0.1)
        assert g.points is synth.support.points and g.support_cells is not None

    def test_zero_weights_dropped(self, synth):
        rng = np.random.default_rng(24)
        weights = rng.random(len(synth.support)) * rng.integers(0, 2, size=len(synth.support))
        assert (weights == 0).any() and (weights > 0).any()
        g = self._check(synth, weights)
        assert not np.shares_memory(g.points, synth.support.points) and g.support_cells is None
        assert len(self._check(synth, np.zeros(len(synth.support)))) == 0

    def test_negative_weight_rejected(self, synth):
        weights = np.ones(len(synth.support))
        weights[2] = -1.0
        with pytest.raises(ValueError, match="negative"):
            synth._release(weights)


class TestCoverScoring:
    # the surrogate census schema's cardinalities: 78 two-way workloads in fewer groups
    SCHEMA = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate((9, 8, 16, 7, 14, 6, 5, 2, 3, 3, 6, 20, 2))))

    def _synth(self, algorithm, seed=0):
        Q = enumerate_workloads(self.SCHEMA, 2)
        config = RunConfig(epsilon=Fraction(1), k=3, workloads=Q, seed_support_size=2_000, seed=seed)
        return make_synthesizer(algorithm, config)

    def _first_round(self, synth, delta, monkeypatch):
        """Step ``synth`` on ``delta``; return the reference, fit, zeros and difference scoring
        round 1's ``select`` started from, the exact change vector (delta's weights at its points
        on the support, -1 at the zeros) and the direct scoring of delta's rows off the support."""
        seen, select, mean_abs = [], algorithms._Differential.select, WorkloadCover.mean_abs

        def selecting(d, h, unselected, l, zeros=None):
            if l == 1:
                at, held = synth.support.observe(delta)
                change = np.zeros(len(h))
                np.add.at(change, at, delta.weights[held])
                change[synth._weights == 0] -= 1.0  # the previous release's zero entries
                missed = WeightedDataset(delta.schema, delta.points[~held], delta.weights[~held])
                direct = np.concatenate([eval_workload(w, missed) for w in synth.workloads])
                seen.append([d._reference.copy(), h.copy(), zeros, None, change, direct])
            return select(d, h, unselected, l, zeros)

        def scoring(cover, flat):
            if seen[-1][3] is None:  # round 1's difference, the first scored
                seen[-1][3] = flat.copy()
            return mean_abs(cover, flat)

        with monkeypatch.context() as patch:
            patch.setattr(algorithms._Differential, "select", selecting)
            patch.setattr(WorkloadCover, "mean_abs", scoring)
            synth.step(delta)
        return seen[0]

    def test_round_one_from_surrogate_matches_direct_scoring(self, monkeypatch):
        synth = self._synth("main")
        cover, support = synth._cover, synth.support
        points = support.points
        deltas = random_deltas(self.SCHEMA, 6, seed=21, max_rows=60)
        for t, delta in enumerate(deltas, start=1):
            if t == 4:
                synth._weights[::7] = 0.0  # as if these weights had underflowed
                assert (synth._weights == 0).sum() > len(support) // 8
            if t == 5:  # some rows of this differential lie on the support
                held = points[:: len(points) // 30]
                delta = accumulate(delta, WeightedDataset(self.SCHEMA, held, np.ones(len(held))))
            zeros_before = np.flatnonzero(synth._weights == 0)
            reference, h, zeros, difference, change, direct = self._first_round(synth, delta, monkeypatch)
            assert np.array_equal(zeros, zeros_before)  # round 1 scored in integers at the zeros
            assert support.points is points  # the support never grows
            # each workload counts every row off the support once
            off_mass = direct.sum() / len(synth.workloads)
            assert 0 < off_mass < delta.total_mass() if t == 5 else off_mass == delta.total_mass()
            np.testing.assert_allclose(reference - h, change, rtol=0, atol=1e-12 * reference.max())
            # integer entries: the full cover scoring of the change, plus the direct scoring of the
            # rows off the support, gives the same bits
            assert difference.tobytes() == (cover.score(change) + direct).tobytes()
            # scoring is linear: the surrogate's values less the fit's, up to rounding
            values = cover.score(reference) + direct
            np.testing.assert_allclose(
                difference, values - cover.score(h), rtol=1e-12, atol=1e-12 * values.max()
            )

    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    def test_support_caches_only_workloads_evaluated_on_releases(self, algorithm, monkeypatch):
        synth = self._synth(algorithm, seed=3)
        cover = synth._cover
        assert cover.matrix is None and len(cover.joints) < len(synth.workloads)
        # the cover's build caches the cells of its joints, which every scoring reads
        built = dict(cover._cells)
        assert set(built) == set(cover.joints)
        fits, fit_weights = [], synth.fitter.fit_weights
        measured, select = [], algorithms._Differential.select

        def recording(cells, values, weights, target):
            fits.append((list(measured), list(cells), synth.support.points))
            return fit_weights(cells, values, weights, target)

        def selecting(*args):  # each selected workload is measured before the fit
            j = select(*args)
            if len(measured) == synth.config.k:  # a new round
                measured.clear()
            measured.append(j)
            return j

        synth.fitter.fit_weights = recording
        monkeypatch.setattr(algorithms._Differential, "select", selecting)
        for delta in random_deltas(self.SCHEMA, 10, seed=4, max_rows=60):
            synth.step(delta)
        # every scoring read the joint cells the cover built, at the support's points, in the
        # smallest unsigned dtype holding the joint's size: uint8 up to the cap of 250 cells,
        # uint16 for a lone workload past it
        assert synth._cover is cover
        assert {cells.dtype for cells in built.values()} == {np.dtype(np.uint8), np.dtype(np.uint16)}
        for joint, cells in built.items():
            assert cover.cells(joint) is cells
            assert cells.dtype == np.min_scalar_type(joint.size) and not cells.flags.writeable
            assert np.array_equal(cells, joint.point_cells(synth.support.points))
        # beside them, the cover holds the fitted workloads, which include those main's
        # remainders read off the releases
        cached = set(cover._cells)
        assert cached == set(built) | {synth.workloads[j] for js, _, _ in fits for j in js}
        # evaluating a release adds the cells of exactly the workloads evaluated
        evaluated = synth.workloads[::5]
        assert synth.g.support_cells is not None
        for w in evaluated:
            eval_workload(w, synth.g)
        assert set(cover._cells) == cached | set(evaluated)
        # each round fits every workload measured so far on its cells at the support's points
        assert len(fits) == 10 * synth.config.k
        for measured, cells, points in fits:
            assert len(measured) == len(cells) >= 1
            for j, got in zip(measured, cells):
                want = synth.workloads[j].point_cells(points)
                assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    def test_fit_reads_each_workloads_cells_off_the_cover(self, algorithm, passes, monkeypatch):
        Q = enumerate_workloads(self.SCHEMA, 2)
        config = RunConfig(
            epsilon=Fraction(1), k=3, workloads=Q, seed_support_size=2_000, seed=6, passes=passes
        )
        synth = make_synthesizer(algorithm, config)
        cover, points = synth._cover, synth.support.points
        # every point_cells on the support's points from here on: no workload's twice
        computed, point_cells = [], Workload.point_cells

        def counting(workload, at):
            if at is points:
                computed.append(workload)
            return point_cells(workload, at)

        monkeypatch.setattr(Workload, "point_cells", counting)
        fits, fit_weights = [], synth.fitter.fit_weights
        selected, select = [], algorithms._Differential.select

        def recording(cells, values, weights, target):
            workloads = [synth.workloads[j] for j in selected[-len(cells):]]
            fits.append([(w, got, w in cover._cells and cover.cells(w)) for w, got in zip(workloads, cells)])
            return fit_weights(cells, values, weights, target)

        def selecting(*args):  # each selected workload is measured before the fit
            selected.append(select(*args))
            return selected[-1]

        synth.fitter.fit_weights = recording
        monkeypatch.setattr(algorithms._Differential, "select", selecting)
        for delta in random_deltas(self.SCHEMA, 6, seed=9, max_rows=60):
            synth.step(delta)
        assert len(fits) == 6 * config.k
        for fit in fits:
            for w, got, cached in fit:
                # the cover held the cells when the fit ran; the fit got them widened, bit for bit
                assert cached is not False and cached.dtype == np.min_scalar_type(w.size)
                assert got.dtype == np.intp and got.flags.writeable and not np.shares_memory(got, cached)
                assert got.tobytes() == point_cells(w, points).astype(np.intp).tobytes()
                assert got.tobytes() == cached.astype(np.intp).tobytes()
        assert len(computed) == len(set(computed)) == len(cover._cells) - len(cover.joints)


class TestSupportEvent:
    """The support event of a neighbour pair: a record at a point off the seed support."""

    def test_record_off_the_seed_support_is_never_released(self):
        # the census13 schema, 5 steps of 200 surrogate rows; the neighbour adds one record at t=3
        schema = DomainSchema(tuple((name, len(values)) for name, values in surrogate.SCHEMA))
        index = [{v: i for i, v in enumerate(values)} for _, values in surrogate.SCHEMA]
        rows = [tuple(map(dict.__getitem__, index, row)) for row in surrogate.generate_rows(1_000, seed=7)]
        record = tuple(c - 1 for c in schema.cardinalities)
        assert record not in rows
        base = [WeightedDataset.from_rows(schema, rows[i : i + 200]) for i in range(0, 1_000, 200)]
        neighbour = base[:2] + [accumulate(base[2], WeightedDataset.from_rows(schema, [record]))] + base[3:]
        pair = DatasetStream(schema, base), DatasetStream(schema, neighbour)
        assert stream_difference_norm(*pair) == 1.0
        workloads = enumerate_workloads(schema, 2)
        for seed in range(5):
            for algorithm in ("baseline", "main"):
                config = RunConfig(epsilon=Fraction(1, 2), k=3, workloads=workloads, seed=seed)
                synth = make_synthesizer(algorithm, config)
                points, size = synth.support.points, len(synth.support)
                assert not (points == record).all(axis=1).any()  # off the seed support
                for t, delta in enumerate(neighbour, start=1):
                    released = synth.step(delta)
                    assert not (released.points == record).all(axis=1).any(), (seed, algorithm, t)
                    assert synth.support.points is points and len(synth.support) == size


class RecordedDelta(WeightedDataset):
    """A differential that records, at every read of its points, weights, mass or memo, the
    innermost ``dpstream.algorithms`` frame that made it as ``<class of its self>.<function>``."""

    __slots__ = ("reads",)

    @classmethod
    def of(cls, delta):
        out = cls._from_sorted(delta.schema, delta.points.copy(order="F"), delta.weights.copy())
        out.reads = []
        return out

    def _record(self, name):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals["__name__"] != algorithms.__name__:
            frame = frame.f_back
        where = frame and f"{type(frame.f_locals.get('self')).__name__}.{frame.f_code.co_name}"
        self.reads.append((name, where))

    @property
    def points(self):
        self._record("points")
        return self._points

    @property
    def weights(self):
        self._record("weights")
        return self._weights

    def total_mass(self):
        self._record("total_mass")
        return super().total_mass()

    @property
    def memo(self):
        self._record("memo")
        return WeightedDataset.memo.__get__(self)  # the base class's slot

    @memo.setter
    def memo(self, value):
        WeightedDataset.memo.__set__(self, value)


class Diverged(Exception):
    """A replayed boundary call that is not the recorded one at its place."""


class TestPrivacyBoundary:
    """Only the differential's charged mechanisms read it."""

    SCHEMA = DomainSchema((("a", 3), ("b", 4), ("c", 5), ("d", 3), ("e", 2)))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("algorithm", ["baseline", "main"])
    def test_every_read_of_the_differential_is_inside_a_boundary_method(self, algorithm, seed):
        Q = enumerate_workloads(self.SCHEMA, 2)
        config = RunConfig(epsilon=Fraction(1), k=3, workloads=Q, seed_support_size=40, seed=seed)
        synth, twin = make_synthesizer(algorithm, config), make_synthesizer(algorithm, config)
        points = synth.support.points
        deltas = random_deltas(self.SCHEMA, 6, seed=seed, max_rows=25)
        deltas[2] = accumulate(deltas[2], WeightedDataset(self.SCHEMA, points[::7], np.ones(len(points[::7]))))
        deltas[4] = WeightedDataset.empty(self.SCHEMA)
        boundary = "_Differential."  # a boundary method's frame, by the class of its self
        names, held = set(), set()
        for delta in deltas:
            held.update(synth.support.observe(delta)[1].tolist())
            recorded = RecordedDelta.of(delta)
            released = synth.step(recorded)
            outside = [(name, where) for name, where in recorded.reads if not (where or "").startswith(boundary)]
            assert outside == [], (algorithm, seed, synth.t)
            names.update(name for name, _ in recorded.reads)
            # recording changes nothing: the twin steps the plain differential
            assert released.weights.tobytes() == twin.step(delta).weights.tobytes()
        assert held == {False, True}  # rows on and off the support
        assert {"points", "weights", "memo"} <= names
        assert ("total_mass" in names) == (algorithm == "baseline")

    def test_remainders_read_no_counter_state_outside_its_feed(self, monkeypatch):
        # k below the workload count: workloads leave the selection and come back, and each
        # return subtracts the release its counter's last feed returned, with peek unread
        Q = enumerate_workloads(self.SCHEMA, 2)
        config = RunConfig(epsilon=Fraction(1), k=2, workloads=Q, seed_support_size=40, seed=3)
        deltas = random_deltas(self.SCHEMA, 12, seed=3, max_rows=25)
        plain, releases, returns = make_synthesizer("main", config), [], 0
        for delta in deltas:
            fed, previous = set(plain.counters), set(plain.last_selected)
            released = plain.step(delta)
            releases.append((released.points.tobytes(), released.weights.tobytes()))
            returns += len((set(plain.last_selected) & fed) - previous)
        assert returns > 0

        def unreadable(counter):
            raise AssertionError("counter state read outside _Differential.feed")

        monkeypatch.setattr(MultiDimCounter, "peek", unreadable)
        synth = make_synthesizer("main", config)
        for delta, (points, weights) in zip(deltas, releases):
            released = synth.step(delta)
            assert released.points.tobytes() == points and released.weights.tobytes() == weights

    REPLAY_SCHEMA = DomainSchema((("a", 2), ("b", 3), ("c", 2), ("d", 4)))

    def replayed_runs(self, monkeypatch, replay_target):
        """Per case (both algorithms on the whole 48-point domain and on a 20-point sample) whether
        a seeded-Laplace run, rerun with every differential empty and the boundary answering from
        the first run's outputs of ``select``, ``laplace`` and ``feed`` (and of ``target`` when
        ``replay_target``), releases the same bits and writes the same ledger."""
        schema, D = self.REPLAY_SCHEMA, algorithms._Differential
        Q = enumerate_workloads(schema, 2)
        rng = np.random.default_rng(17)
        sizes = [0 if t in (2, 7) else int(rng.integers(0, 15)) for t in range(12)]  # empty steps too
        deltas = [WeightedDataset(schema, rng.integers(0, schema.cardinalities, (n, 4)), np.ones(n)) for n in sizes]
        empty = WeightedDataset.empty(schema)
        real = {name: getattr(D, name) for name in ("select", "laplace", "feed")}
        real["target"] = D.target.func
        outcomes = {}
        for algorithm in ("baseline", "main"):
            for size in (48, 24):
                config = RunConfig(epsilon=Fraction(1), k=2, workloads=Q, seed_support_size=size, seed=3)
                transcript, runs = [], []
                for replay in (False, True):

                    def boundary(name, replay=replay):
                        def method(d, *args):
                            out = real[name](d, *args)  # on replay, only for its ledger entry
                            call = (name, [a for a in args if isinstance(a, int)])
                            if not replay:
                                transcript.append((call, np.copy(out)))
                                return out
                            logged, out = transcript.pop(0)
                            if call != logged:
                                raise Diverged(call, logged)
                            return out if name != "select" else int(out)

                        return method

                    with monkeypatch.context() as m:
                        for name in real:
                            if name != "target" or replay_target:
                                m.setattr(D, name, property(boundary(name)) if name == "target" else boundary(name))
                        synth = make_synthesizer(algorithm, config)
                        try:
                            releases = [synth.step(empty if replay else delta) for delta in deltas]
                        except Diverged:  # the replay called the boundary otherwise
                            releases = []
                    runs.append(([(g.points.tobytes(), g.weights.tobytes()) for g in releases], synth.ledger.entries))
                    if not replay:
                        off = [delta for delta in deltas if not synth.support.observe(delta)[1].all()]
                        assert len(synth.support) == (20 if size == 24 else schema.size)
                        assert (len(off) > 0) == (size == 24)
                outcomes[algorithm, len(synth.support)] = runs[0] == runs[1] and not transcript
        return outcomes

    def test_releases_replay_from_the_boundary_outputs(self, monkeypatch):
        # target is replayed: it is the one read of the differential outside the mechanisms (N1)
        outcomes = self.replayed_runs(monkeypatch, replay_target=True)
        assert outcomes == dict.fromkeys(outcomes, True) and len(outcomes) == 4

    @pytest.mark.xfail(strict=True, reason="ROADMAP N1: target reads the differential's exact mass")
    def test_releases_replay_from_the_boundary_outputs_without_target(self, monkeypatch):
        outcomes = self.replayed_runs(monkeypatch, replay_target=False)
        assert outcomes == dict.fromkeys(outcomes, True) and len(outcomes) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=3, max_size=4).filter(lambda cards: math.prod(cards) > 1),
        st.sampled_from(["baseline", "main"]),
        st.sampled_from(KINDS),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_one_record_moves_each_utility_within_the_sensitivity_and_each_histogram_by_one(
        self, cards, algorithm, kind, on_support, seed
    ):
        # cardinality-1 attributes included; the seed support holds at most half the domain
        schema = DomainSchema(tuple((f"x{i}", c) for i, c in enumerate(cards)))
        Q = enumerate_workloads(schema, 2)
        config = RunConfig(
            epsilon=Fraction(1), k=1, workloads=Q, seed_support_size=max(1, schema.size // 2),
            seed=seed % 7, noise_mode="zero", counter_kind=kind, block_size=4,
        )
        synths = [make_synthesizer(algorithm, config) for _ in range(2)]
        support = synths[0].support
        rng = np.random.default_rng(seed)
        domain = np.indices(cards).reshape(len(cards), -1).T
        off = domain[~(domain[:, None, :] == support.points[None, :, :]).all(axis=2).any(axis=1)]
        assert len(off) and len(support) < schema.size
        rows = np.concatenate([support.points[rng.integers(0, len(support), 3)], off[rng.integers(0, len(off), 3)]])
        delta = WeightedDataset.from_rows(schema, rows.tolist())
        pool = support.points if on_support else off
        record = WeightedDataset.from_rows(schema, [pool[rng.integers(0, len(pool))].tolist()])
        assert support.observe(record)[1][0] == on_support
        neighbour = accumulate(delta, record)
        # a public base with zero entries for main, none for the baseline, and fits held fixed
        base = None
        if algorithm == "main":
            base = rng.random(len(support)) * (rng.random(len(support)) < 0.7)
            zeros = np.flatnonzero(base == 0)
            round_one = base.copy()
            round_one[zeros] = 1.0
        h = rng.random(len(support)) + 0.1
        unselected = rng.random(len(Q)) < 0.8
        unselected[0] = True
        scored, measured = [], []

        def recording(utilities, *args):
            scored[-1].append(np.array(utilities))
            return 0

        with mock.patch.object(algorithms, "exponential_mechanism", recording):
            for synth, data in zip(synths, (delta, neighbour)):
                d = algorithms._Differential(synth, data, base)
                scored.append([])
                d.select(h, unselected, 1)
                if base is not None:
                    d.select(round_one, unselected, 1, zeros)  # main's sparse round 1
                counter_root = NoiseSource(seed, mode="zero")
                measured.append([])
                for j, w in enumerate(Q):
                    synth.t = j + 1  # each workload's two measurements charge a step of their own
                    counter = MultiDimCounter(kind, w.size, 1.0, counter_root.child(j), block_size=4)
                    measured[-1].append((d.laplace(j), d.feed(j, counter)))
        sensitivity = config.resolved_sensitivity()
        for before, after in zip(*scored):
            assert before.shape == after.shape == (unselected.sum(),)
            assert np.abs(after - before).max() <= sensitivity + 1e-12
        for before, after in zip(*measured):
            for b, a in zip(before, after):
                assert np.abs(a - b).sum() == 1.0
