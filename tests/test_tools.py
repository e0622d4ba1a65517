import importlib.util
from pathlib import Path

import pytest

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
