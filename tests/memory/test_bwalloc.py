"""Tests for bandwidth allocation policies."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.memory.bwalloc import (
    DemandProportionalPolicy,
    SlackWeightedPolicy,
)

#: The runtime checks the engine relies on (shares sum to at most 1 and,
#: with a floor, every share is positive) hold for running sets up to
#: the SoC's 16 NPU cores: ``n * floor`` stays below 1 for every floor
#: up to 1/16, so each task keeps its floor.
_demand_lists = st.lists(st.floats(0.0, 1e12), min_size=1, max_size=16)
_floors = st.floats(1e-6, 0.06)


class TestDemandProportional:
    def test_proportionality(self):
        policy = DemandProportionalPolicy(floor=0.0)
        shares = policy.allocate([3e9, 1e9])
        assert shares == pytest.approx([0.75, 0.25])

    def test_floor_protects_light_tasks(self):
        policy = DemandProportionalPolicy(floor=0.05)
        _, light = policy.allocate([1e12, 1.0])
        assert light >= 0.05

    def test_zero_demand_falls_back_to_equal(self):
        policy = DemandProportionalPolicy(floor=0.0)
        assert policy.allocate([0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_negative_demand_counts_as_zero(self):
        policy = DemandProportionalPolicy(floor=0.0)
        assert policy.allocate([-1e9, 3e9]) == pytest.approx([0.0, 1.0])

    def test_empty(self):
        assert DemandProportionalPolicy().allocate([]) == []

    def test_floor_must_be_below_one(self):
        with pytest.raises(SimulationError):
            DemandProportionalPolicy(floor=1.0)

    @given(demands=_demand_lists)
    def test_shares_always_sum_to_one(self, demands):
        shares = DemandProportionalPolicy().allocate(demands)
        assert len(shares) == len(demands)
        assert sum(shares) == pytest.approx(1.0)

    @given(demands=_demand_lists, floor=_floors)
    def test_shares_positive_and_within_budget(self, demands, floor):
        shares = DemandProportionalPolicy(floor=floor).allocate(demands)
        assert sum(shares) <= 1.0 + 1e-9
        assert all(share > 0 for share in shares)


class TestSlackWeighted:
    def test_behind_task_gets_boost(self):
        policy = SlackWeightedPolicy(floor=0.0)
        late, early = policy.allocate([1e9, 1e9], [-0.5, 0.5])
        assert late > early

    def test_equal_slack_follows_demand(self):
        policy = SlackWeightedPolicy(floor=0.0)
        a, b = policy.allocate([2e9, 1e9], [0.0, 0.0])
        assert a > b

    def test_empty(self):
        assert SlackWeightedPolicy().allocate([], []) == []

    def test_urgency_must_be_positive(self):
        with pytest.raises(SimulationError):
            SlackWeightedPolicy(urgency=0.0)

    @given(
        slack=st.floats(-2.0, 2.0),
    )
    def test_shares_sum_to_one(self, slack):
        policy = SlackWeightedPolicy()
        shares = policy.allocate([1e9, 1e9], [slack, 0.0])
        assert sum(shares) == pytest.approx(1.0)

    @given(data=st.data(), demands=_demand_lists, floor=_floors)
    def test_shares_positive_and_within_budget(self, data, demands, floor):
        slacks = data.draw(st.lists(st.floats(-50.0, 50.0),
                                    min_size=len(demands),
                                    max_size=len(demands)))
        shares = SlackWeightedPolicy(floor=floor).allocate(demands, slacks)
        assert sum(shares) <= 1.0 + 1e-9
        assert all(share > 0 for share in shares)
