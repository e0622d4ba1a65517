import importlib.util
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from dpstream import DomainSchema, RunConfig, WeightedDataset, enumerate_workloads, make_synthesizer

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


benchpairs = load_tool("benchpairs")


class TestGainRule:
    PARENT = [5.0, 5.2, 4.9, 5.1, 5.3, 5.0, 5.2, 5.1, 4.8, 5.0]

    def test_holds_when_change_wins_nine_of_ten_beyond_the_spread(self):
        change = [4.0, 4.1, 4.2, 4.0, 4.1, 4.3, 4.0, 4.2, 4.9, 4.1]  # pair 9 lost: 4.9 > 4.8
        r = benchpairs.gain_rule(self.PARENT, change, "lower")
        assert r["wins"] == 9 and r["pairs"] == 10
        assert r["parent"] == pytest.approx((5.0, 5.05, 5.175))
        assert r["spread"] == pytest.approx(0.175)
        assert r["holds"]

    def test_eight_wins_of_ten_is_not_enough(self):
        change = [4.0, 4.1, 4.2, 4.0, 4.1, 4.3, 4.0, 4.2, 4.9, 5.1]
        r = benchpairs.gain_rule(self.PARENT, change, "lower")
        assert r["wins"] == 8 and not r["holds"]

    def test_ties_count_for_neither(self):
        change = [v - 1.0 for v in self.PARENT[:9]] + [self.PARENT[9]]
        r = benchpairs.gain_rule(self.PARENT, change, "lower")
        assert r["wins"] == 9 and r["holds"]
        r = benchpairs.gain_rule(self.PARENT, list(self.PARENT), "lower")
        assert r["wins"] == 0 and not r["holds"]

    def test_medians_must_differ_by_more_than_the_parent_spread(self):
        # every pair won by 0.01, well inside the parent's interquartile range
        change = [v - 0.01 for v in self.PARENT]
        r = benchpairs.gain_rule(self.PARENT, change, "lower")
        assert r["wins"] == 10 and not r["holds"]

    def test_needs_ten_pairs(self):
        r = benchpairs.gain_rule(self.PARENT[:9], [v - 1.0 for v in self.PARENT[:9]], "lower")
        assert r["wins"] == 9 and not r["holds"]

    def test_higher_is_better_flips_the_direction(self):
        change = [v + 1.0 for v in self.PARENT]
        assert benchpairs.gain_rule(self.PARENT, change, "higher")["holds"]
        assert benchpairs.gain_rule(self.PARENT, change, "lower")["wins"] == 0

    def test_rejects_unpaired_runs(self):
        with pytest.raises(ValueError):
            benchpairs.gain_rule(self.PARENT, self.PARENT[:5], "lower")
        with pytest.raises(ValueError):
            benchpairs.gain_rule([], [], "lower")


class TestBoundCheck:
    # median 10.0, quartiles [9.925, 10.075]: an interquartile range of 1.5% of the median
    PARENT = [9.8, 9.9, 9.9, 10.0, 10.0, 10.0, 10.1, 10.1, 10.2, 10.0]

    def test_within_bound_when_the_median_moves_less_than_the_bound(self):
        change = [v * 1.2 for v in self.PARENT]  # 20% worse against a 25% bound
        assert benchpairs.bound_check(self.PARENT, change, "lower", 0.25) == "within bound"
        assert benchpairs.bound_check(self.PARENT, list(self.PARENT), "lower", 0.25) == "within bound"

    def test_worse_beyond_bound(self):
        change = [v * 1.3 for v in self.PARENT]
        assert benchpairs.bound_check(self.PARENT, change, "lower", 0.25) == "worse beyond bound"
        # the same numbers are a gain where higher is better
        assert benchpairs.bound_check(self.PARENT, change, "higher", 0.25) == "within bound"
        assert benchpairs.bound_check(change, self.PARENT, "higher", 0.2) == "worse beyond bound"

    def test_unresolved_when_either_spread_exceeds_the_bound(self):
        # B's quartiles [8, 12] around 10: a 40% spread against a 25% bound
        change = [6.0, 8.0, 8.0, 8.0, 10.0, 10.0, 12.0, 12.0, 12.0, 14.0]
        assert benchpairs.bound_check(self.PARENT, change, "lower", 0.25) == "unresolved"
        assert benchpairs.bound_check(change, self.PARENT, "lower", 0.25) == "unresolved"
        # a tight spread on both sides resolves
        assert benchpairs.bound_check(self.PARENT, self.PARENT, "lower", 0.01) == "unresolved"
        assert benchpairs.bound_check(self.PARENT, self.PARENT, "lower", 0.03) == "within bound"

    def test_a_wide_spread_resolves_when_every_change_run_is_better(self):
        parent = [20.0, 30.0, 40.0, 50.0]
        change = [10.0, 12.0, 15.0, 19.0]
        assert benchpairs.bound_check(parent, change, "lower", 0.05) == "within bound"
        # one B run tying an A run is not better than every A run
        assert benchpairs.bound_check(parent, change[:3] + [20.0], "lower", 0.05) == "unresolved"


steptime = load_tool("steptime")


class TestSameMetrics:
    AGG = (0.1, 0.25, 1 / 3, 2.0)

    def test_equal_bits_and_exclusions_match(self):
        assert steptime.same_metrics((self.AGG, 4), (tuple(self.AGG), 4))

    def test_any_bit_or_exclusion_count_differs(self):
        last_bit = (*self.AGG[:3], math.nextafter(2.0, 3.0))
        assert not steptime.same_metrics((self.AGG, 4), (last_bit, 4))
        assert not steptime.same_metrics((self.AGG, 4), (self.AGG, 5))
        # equal as floats, not as bits
        assert not steptime.same_metrics(((0.0,) * 4, 0), ((0.0, 0.0, 0.0, -0.0), 0))


class TestSameLedger:
    SCHEMA = DomainSchema((("a", 2), ("b", 3), ("c", 4)))

    def synthesizers(self):
        config = RunConfig(epsilon="1/2", k=2, workloads=enumerate_workloads(self.SCHEMA, 2), seed=3)
        a, b = (make_synthesizer("main", config) for _ in range(2))
        delta = WeightedDataset.from_rows(self.SCHEMA, [(0, 1, 2), (1, 2, 3), (1, 2, 3)])
        a.step(delta)
        b.step(delta)
        return a, b

    def test_equal_entries_and_selections_match_from_each_start(self):
        a, b = self.synthesizers()
        assert len(a.ledger.entries) == 4 and steptime.same_ledger(a, b)
        assert steptime.same_ledger(a, b, (2, 2))
        # another entry type with the same fields matches
        b.ledger.entries = [SimpleNamespace(**e._asdict()) for e in b.ledger.entries]
        assert steptime.same_ledger(a, b)
        # entries before each side's start are not compared
        del b.ledger.entries[0]
        assert not steptime.same_ledger(a, b) and steptime.same_ledger(a, b, (1, 0))

    CHANGED = {
        "label": "t=1/other", "group": "t=2", "category": "other",
        "numerator": Fraction(1), "divisor": 5, "epsilon": Fraction(1, 5),
    }

    @pytest.mark.parametrize("field", steptime.LEDGER_FIELDS)
    def test_any_field_of_any_entry_differs(self, field):
        a, b = self.synthesizers()
        entry = b.ledger.entries[1]
        assert getattr(entry, field) != self.CHANGED[field]
        b.ledger.entries[1] = entry._replace(**{field: self.CHANGED[field]})
        assert not steptime.same_ledger(a, b)

    def test_a_missing_entry_or_another_selection_differs(self):
        a, b = self.synthesizers()
        b.ledger.entries.pop()
        assert not steptime.same_ledger(a, b)
        a, b = self.synthesizers()
        b.last_selected = b.last_selected[::-1]
        assert not steptime.same_ledger(a, b)


class TestFirstDifferingStep:
    SCHEMA = DomainSchema((("a", 3),))

    def stream(self, *steps):
        return [WeightedDataset.from_rows(self.SCHEMA, rows) for rows in steps]

    def test_names_the_first_step_whose_bits_differ_or_that_one_side_lacks(self):
        deltas = self.stream([(0,)], [(1,), (1,)], [])
        assert steptime.first_differing_step(deltas, self.stream([(0,)], [(1,), (1,)], [])) is None
        assert steptime.first_differing_step(deltas, self.stream([(0,)], [(1,)], [])) == 2  # weight 1, not 2
        assert steptime.first_differing_step(deltas, self.stream([(0,)], [(2,), (2,)], [])) == 2
        assert steptime.first_differing_step(deltas, deltas[:2]) == 3
        assert steptime.first_differing_step(deltas[:1], deltas) == 2
        assert steptime.first_differing_step([], []) is None


class TestReport:
    def test_each_phase_has_its_own_median_per_checkout(self):
        fastest = {
            "step": [[0.003, 0.001, 0.002], [0.002, 0.002, 0.001]],
            "accumulate": [[0.0004, 0.0002, 0.0003], [0.0001, 0.0001, 0.0002]],
            "evaluate_step": [[0.005, 0.005, 0.006], [0.004, 0.003, 0.005]],
        }
        assert list(fastest) == list(steptime.PHASES)
        assert steptime.report([Path("a"), Path("b")], fastest) == [
            "A a: median step 2.000 ms, median accumulate 0.300 ms, median evaluate_step 5.000 ms",
            "B b: median step 2.000 ms, median accumulate 0.100 ms, median evaluate_step 4.000 ms",
            "B against A: step +0.0%, accumulate -66.7%, evaluate_step -20.0%",
        ]


class TestMedianLine:
    def test_each_side_median_in_ms_and_the_change(self):
        times = [[0.004, 0.002, 0.003], [0.0015, 0.0030, 0.0009, 0.0021]]
        assert steptime.median_line("synthesizer", times) == (
            "median synthesizer: A 3.000 ms, B 1.800 ms, B against A -40.0%"
        )


class TestStepTimeRun:
    def test_one_rep_of_a_checkout_against_itself_is_identical(self):
        # the whole script end to end: the benchmark's inputs, both sides' streams and every step
        root = str(TOOLS.parent)
        command = [sys.executable, str(TOOLS / "steptime.py"), root, root, "--workload", "low5-long", "--reps", "1"]
        done = subprocess.run(command, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "releases: identical at every step" in done.stdout.splitlines()
        assert "ledger: identical at every step" in done.stdout.splitlines()
        lines = [line for line in done.stdout.splitlines() if line.startswith("median ")]
        assert [line.split(":")[0] for line in lines] == ["median build_stream", "median synthesizer"]


identity = load_tool("identity")


class TestTally:
    def test_one_line_per_grid_and_noise_counting_missing_files_as_differing(self):
        names = [
            "low5-zero-main-simple/eps=0.5/seed=0/metrics.csv",
            "low5-zero-baseline-simple/eps=0.5/seed=0/metrics.csv",
            "low5-laplace-main-simple/eps=2/seed=1/summary.json",
            "census13-laplace-main-binary_tree/eps=2/seed=1/meta.json",
            "census13-laplace-main-simple-passes2/eps=2/seed=1/meta.json",
        ]
        a = {name: f"{i:064x}  {name}" for i, name in enumerate(names)}
        b = dict(a)
        b[names[1]] = f"{99:064x}  {names[1]}"  # a differing digest
        del b[names[3]]  # a file only one checkout wrote
        b["census13-zero-main-simple/eps=0.5/seed=0/metrics.csv"] = "new"
        assert identity.tally(a, b) == [
            "census13 zero: 0 of 1 identical",
            "census13 laplace: 1 of 2 identical",
            "low5 zero: 1 of 2 identical",
            "low5 laplace: 1 of 1 identical",
        ]
        assert identity.tally(a, a)[2:] == ["low5 zero: 2 of 2 identical", "low5 laplace: 1 of 1 identical"]
