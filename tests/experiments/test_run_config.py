"""RunConfig: the consolidated run-control surface of run_scenario.

Every run-control axis of ``run_scenario`` lives on one frozen
:class:`RunConfig`.  The contract, stated as tests: invalid
combinations fail at construction (not mid-simulation), each field
reaches the run, and none of the fields is accepted as a bare
``run_scenario`` keyword any more.
"""

import dataclasses

import pytest

from repro.errors import WorkloadError
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig, check_seconds

SCENARIO = "steady-quad"

#: Fields deleted from RunConfig (``kernel_backend``, the step-path pin,
#: in 1.11.0).  Each was a ``run_scenario`` keyword once, so the former
#: keyword check below keeps covering it after the field is gone.
REMOVED_FIELDS = ("kernel_backend",)


class TestCheckSeconds:
    """The budget check shared by RunConfig, campaigns and fleets."""

    @pytest.mark.parametrize("value", [None, 0.0, 0, 1e-9, 2.5,
                                       float("inf")])
    def test_accepts(self, value):
        check_seconds("deadline_s", value)

    @pytest.mark.parametrize("value", [float("nan"), -1e-9, -1.0,
                                       float("-inf")])
    def test_rejects(self, value):
        with pytest.raises(WorkloadError, match="deadline_s"):
            check_seconds("deadline_s", value)


class TestConstruction:
    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.qos_mode = True

    def test_replace(self):
        config = RunConfig().replace(qos_mode=True)
        assert config.qos_mode is True
        assert RunConfig().qos_mode is False

    def test_checkpoint_cadence_requires_dir(self):
        """The satellite fix: a checkpoint cadence with nowhere to
        write is a WorkloadError at construction, not a silent no-op
        or a mid-run ValueError."""
        with pytest.raises(WorkloadError, match="checkpoint_dir"):
            RunConfig(checkpoint_every_s=1.0)

    def test_checkpoint_cadence_not_negative(self):
        # 0.0 is the legacy "checkpoint at every batch boundary" form
        # and stays valid; only negative cadences are rejected.
        with pytest.raises(WorkloadError, match="negative"):
            RunConfig(checkpoint_every_s=-1.0, checkpoint_dir="/tmp/x")
        RunConfig(checkpoint_every_s=0.0, checkpoint_dir="/tmp/x")

    def test_max_events_positive(self):
        with pytest.raises(WorkloadError, match="max_events"):
            RunConfig(max_events=0)

    def test_max_wall_nonnegative(self):
        with pytest.raises(WorkloadError, match="max_wall_s"):
            RunConfig(max_wall_s=-1.0)

    @pytest.mark.parametrize("field", ["max_wall_s", "checkpoint_every_s"])
    def test_nan_budget_rejected(self, field):
        """``nan < 0`` is false, so a NaN budget used to pass and then
        never fire: no watchdog, or no checkpoint, without a word."""
        with pytest.raises(WorkloadError, match=f"{field}.*NaN"):
            RunConfig(**{field: float("nan")}, checkpoint_dir="/tmp/x")

    def test_infinite_budget_means_no_limit(self, tmp_path):
        config = RunConfig(max_wall_s=float("inf"),
                           checkpoint_every_s=float("inf"),
                           checkpoint_dir=str(tmp_path))
        result = run_scenario(SCENARIO, policy="baseline", config=config)
        plain = run_scenario(SCENARIO, policy="baseline")
        assert result.metric_summary() == plain.metric_summary()
        assert list(tmp_path.iterdir()) == []

    def test_replace_revalidates(self):
        with pytest.raises(WorkloadError, match="checkpoint_dir"):
            RunConfig().replace(checkpoint_every_s=1.0)


class TestConfigForm:
    @pytest.mark.parametrize(
        "keyword",
        [f.name for f in dataclasses.fields(RunConfig)]
        + list(REMOVED_FIELDS),
    )
    def test_former_keyword_raises_type_error(self, keyword):
        """The run-control keywords ``run_scenario`` used to accept
        (one per RunConfig field, current or removed) now reach the
        scheduler constructor as unknown policy keywords."""
        with pytest.raises(TypeError, match=keyword):
            run_scenario(SCENARIO, policy="baseline", **{keyword: None})

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_removed_field_raises_type_error(self, field):
        """A removed field is no RunConfig keyword either: setting it
        fails at construction instead of being dropped silently."""
        assert field not in {f.name for f in dataclasses.fields(RunConfig)}
        with pytest.raises(TypeError, match=field):
            RunConfig(**{field: "list"})

    def test_config_form_does_not_warn(self, recwarn):
        run_scenario(SCENARIO, policy="baseline",
                     config=RunConfig(max_wall_s=600.0))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_config_qos_mode_reaches_the_scheduler(self):
        """``config.qos_mode`` selects the QoS integration (the
        scheduler reports its own row name)."""
        result = run_scenario(SCENARIO, policy="camdn-full",
                              config=RunConfig(qos_mode=True))
        assert result.scheduler_name == "camdn-qos"

    def test_qos_mode_is_redundant_not_fatal_on_camdn_qos(self):
        """``qos_mode=True`` alongside ``policy="camdn-qos"`` (which
        already pins the flag in the factory) must not blow up with a
        duplicate-keyword TypeError."""
        result = run_scenario(SCENARIO, policy="camdn-qos",
                              config=RunConfig(qos_mode=True))
        assert result.scheduler_name == "camdn-qos"


class TestConfigControls:
    def test_max_events_arms_the_watchdog(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="event cap"):
            run_scenario(SCENARIO, policy="baseline",
                         config=RunConfig(max_events=100))

    def test_snapshot_at_events(self):
        result = run_scenario(
            SCENARIO, policy="baseline",
            config=RunConfig(snapshot_at_events=50),
        )
        assert result.last_snapshot is not None
        assert result.last_snapshot.events_processed >= 50

    def test_checkpoint_dir_writes_checkpoints(self, tmp_path):
        run_scenario(
            SCENARIO, policy="baseline",
            config=RunConfig(checkpoint_every_s=0.0001,
                             checkpoint_dir=str(tmp_path)),
        )
        assert (tmp_path / "checkpoint.json").exists()
