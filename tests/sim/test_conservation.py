"""Tests for the conservation-law accounting on simulation results.

At rest (the engine drains its heap before returning) every offered
arrival must be accounted exactly once:

    offered == completed + cancelled + dropped

``run()`` asserts this on every simulation; these tests pin the law
across the whole builtin scenario registry under every policy, and
exercise the check directly.
"""

import pytest

from repro.config import SoCConfig
from repro.errors import SimulationError
from repro.experiments.common import run_scenario
from repro.sim.engine import SimulationResult
from repro.sim.metrics import MetricsCollector
from repro.sim.scenario import scenario_registry

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")


class TestConservationAcrossRegistry:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(scenario_registry()))
    def test_builtin_scenarios_conserve_inferences(self, name, policy):
        spec = scenario_registry()[name][0].scaled(0.25)
        result = run_scenario(spec, SoCConfig(), policy)
        assert result.offered_inferences == (
            result.completed_inferences
            + result.cancelled_inferences
            + result.dropped_inferences
        )
        # run() already enforced the law; calling the check again must
        # agree.
        result.check_conservation()
        assert result.completed_inferences >= \
            result.metrics.num_inferences
        summary = result.summary()
        assert summary["cancelled_inferences"] == \
            result.cancelled_inferences
        assert summary["dropped_inferences"] == result.dropped_inferences


class TestConservationCheck:
    def _result(self, **overrides):
        fields = dict(scheduler_name="test", sim_time_s=0.1,
                      metrics=MetricsCollector(),
                      offered_inferences=10, completed_inferences=7,
                      cancelled_inferences=2, dropped_inferences=1)
        fields.update(overrides)
        return SimulationResult(**fields)

    def test_balanced_books_pass(self):
        self._result().check_conservation()

    def test_lost_inference_raises(self):
        with pytest.raises(SimulationError, match="conservation"):
            self._result(completed_inferences=6).check_conservation()

    def test_duplicated_inference_raises(self):
        with pytest.raises(SimulationError, match="conservation"):
            self._result(dropped_inferences=2).check_conservation()

    def test_every_run_checks_conservation_once(self, monkeypatch):
        """``run_scenario`` asserts the law exactly once per run."""
        calls = []
        monkeypatch.setattr(
            SimulationResult, "check_conservation",
            lambda self: calls.append(1),
        )
        run_scenario("mmpp-quad", SoCConfig(), "baseline")
        assert calls == [1]
        run_scenario("mmpp-quad", SoCConfig(), "camdn-full")
        assert calls == [1, 1]
