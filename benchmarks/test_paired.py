"""``paired.py`` on a fabricated clock: nothing here is really timed."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks import harness, paired  # noqa: E402


class FakeClock:
    """Wall and CPU clocks that move only when a side spends time."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.calls = []

    def side(self, name, costs):
        """A side whose ``i``-th call spends ``costs[i]``: seconds on
        both clocks, or a ``(wall, cpu)`` pair."""
        def run():
            cost = costs[self.calls.count(name)]
            self.calls.append(name)
            wall, cpu = cost if isinstance(cost, tuple) else (cost, cost)
            self.wall += wall
            self.cpu += cpu
        return run


def run_paired(a_costs, b_costs, bound):
    clock = FakeClock()
    record = paired.paired(
        clock.side("a", a_costs), clock.side("b", b_costs), len(a_costs),
        bound, clock=lambda: clock.wall, cpu=lambda: clock.cpu,
    )
    return record, clock.calls


def test_the_first_side_alternates_by_round():
    _, calls = run_paired([1.0] * 5, [1.0] * 5, 1.0)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a", "a", "b"]


def test_median_iqr_and_range_of_the_per_round_ratios():
    ratios = [0.75, 1.25, 0.875, 1.125, 1.0, 1.5, 0.5, 2.0, 1.0625]
    record, _ = run_paired([2.0] * 9, [2.0 * r for r in ratios], 3.0)
    assert record["ratios"] == ratios
    assert record["median"] == 1.0625 and record["b"] == 2.125
    assert record["iqr"] == [0.875, 1.25] and record["range"] == [0.5, 2.0]
    assert record["a"] == 2.0 and record["wall_cpu"] == [1.0] * 9
    assert (record["rounds"], record["bound"]) == (9, 3.0)
    assert record["cpus"] == harness.available_cpus()


@pytest.mark.parametrize("bound, verdict", [
    (1.25, paired.HOLDS),  # the upper quartile is within the bound
    (0.85, paired.DOES_NOT_HOLD),  # the lower quartile is past it
    (1.0, paired.UNRESOLVED),  # the bound falls inside the IQR
])
def test_each_verdict(bound, verdict):
    ratios = [0.9, 1.1, 0.95, 1.05, 1.0, 1.2, 0.92]
    assert run_paired([1.0] * 7, ratios, bound)[0]["verdict"] == verdict


def test_a_round_reading_ten_times_low_shows_and_changes_nothing():
    steady, _ = run_paired([1.0] * 9, [1.25] * 9, 1.5)
    # Round 4's B call: its clock reads a tenth of the CPU it spent.
    b_costs = [1.25] * 4 + [(0.125, 1.25)] + [1.25] * 4
    disturbed, _ = run_paired([1.0] * 9, b_costs, 1.5)
    assert disturbed["wall_cpu"] == [1.0] * 4 + [0.5] + [1.0] * 4
    assert disturbed["range"] == [0.125, 1.25]
    assert disturbed["median"] == steady["median"] == 1.25
    assert disturbed["verdict"] == steady["verdict"] == paired.HOLDS


def test_one_round_is_its_own_quartiles():
    record, _ = run_paired([1.0], [0.5], 1.0)
    assert record["iqr"] == record["range"] == [0.5, 0.5]
    with pytest.raises(ValueError):
        run_paired([], [], 1.0)


def test_fastest_returns_the_minimum():
    clock = FakeClock()
    fn = clock.side("f", [0.5, 0.25, 0.875, 0.375])
    assert paired.fastest(fn, 4, lambda: clock.wall) == 0.25


def test_describe_prints_the_verdict_beside_the_median():
    text = paired.describe(run_paired([1.0] * 3, [0.5, 0.625, 0.75], 1.0)[0])
    assert text.startswith("median 0.625x") and text.endswith(": holds")
    assert "of 3 rounds, bound 1x" in text
