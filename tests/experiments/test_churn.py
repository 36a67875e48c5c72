"""Tests for the churn harness, the unified run_scenario pipeline and
the experiment-scale validation."""

import pytest

from repro.errors import WorkloadError
from repro.experiments.common import ExperimentScale, run_scenario
from repro.experiments.fig_churn import (
    CHURN_POLICIES,
    churn_scenario,
    format_churn,
    run_churn,
)

pytestmark = pytest.mark.experiment


class TestExperimentScaleValidation:
    def test_defaults_valid(self):
        scale = ExperimentScale(scale=0.5)
        assert scale.duration_s == pytest.approx(0.2)
        assert scale.warmup_s == pytest.approx(0.04)

    def test_rejects_warmup_at_or_after_duration(self):
        with pytest.raises(WorkloadError):
            ExperimentScale(base_duration_s=0.1, base_warmup_s=0.1)
        with pytest.raises(WorkloadError):
            ExperimentScale(base_duration_s=0.1, base_warmup_s=0.2)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(WorkloadError):
            ExperimentScale(base_duration_s=0.0)

    def test_rejects_out_of_range_scale(self):
        with pytest.raises(ValueError):
            ExperimentScale(scale=0.0)


class TestRunScenarioEntryPoint:
    def test_accepts_registry_names(self):
        result = run_scenario("steady-quad", policy="baseline")
        assert result.metrics.num_inferences > 0

    def test_unknown_name_raises(self):
        with pytest.raises(WorkloadError):
            run_scenario("no-such-scenario")

    def test_policy_instance_rejects_qos_mode(self):
        """qos_mode silently configuring nothing on a pre-built policy
        instance would fake a Figure 9 run; it must raise instead."""
        from repro.runconfig import RunConfig
        from repro.schedulers.camdn_full import CaMDNFullScheduler

        with pytest.raises(ValueError):
            run_scenario("steady-quad", policy=CaMDNFullScheduler(),
                         config=RunConfig(qos_mode=True))


@pytest.mark.slow
class TestChurnHarness:
    def test_churn_rows_cover_policies(self):
        rows = run_churn(scale=0.25, use_cache=False)
        assert [r.policy for r in rows] == list(CHURN_POLICIES)
        for row in rows:
            assert row.inferences > 0
            assert row.tenant_admits == 8
            assert row.tenant_retires == 8
            # The staggered churners leave mid-run with work in flight.
            assert row.cancelled_inferences >= 1

    def test_churn_scenario_scaled_keeps_churn_inside_window(self):
        spec = churn_scenario(0.25)
        duration = spec.duration_s
        for stream in spec.streams:
            assert stream.join_s < duration
            if stream.leave_s is not None:
                assert stream.leave_s < duration
            assert stream.qos_scale == 1.0

    def test_format_churn_renders(self):
        rows = run_churn(scale=0.25, use_cache=False)
        text = format_churn(rows)
        assert "camdn-full" in text
        assert "QoS viol" in text


class TestRunnerScenarioList:
    def test_list_scenarios_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "churn-eight" in out
        assert "poisson-eight" in out

    def test_experiment_still_required_without_flag(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main([])
