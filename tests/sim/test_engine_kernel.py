"""Kernel-loop reference equivalence, kernel unit, share-signature,
clamp, static-rate path and removed step-path pin tests.

The structure-of-arrays kernel loop is pinned against the committed
20-scenario reference summaries (``tests/data/
metric_summary_reference.json``, captured on the pre-refactor engine).
The legacy per-instance scan loop that served as the in-process oracle
for one release has been removed — the frozen reference JSON is the
oracle now.
"""

import json
import math
from pathlib import Path

import pytest

from repro import ScenarioSpec, run
from repro.config import SoCConfig
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulerPolicy
from repro.sim.engine import MultiTenantEngine
from repro.sim.kernel import RunningKernel
from repro.sim.task import LayerWork
from repro.sim.workload import ScenarioWorkload

POLICIES = ["baseline", "moca", "aurora", "camdn-hw", "camdn-full"]

#: Mixed workload exercising waits (camdn), multi-core grants (aurora
#: under deadlines) and both dynamic- and static-rate policies.
KEYS = ("RS.", "MB.", "EF.", "BE.")

REFERENCE_PATH = (
    Path(__file__).parent.parent / "data" / "metric_summary_reference.json"
)


def _run(policy_name, *, use_native=None, keys=KEYS,
         qos_scale=float("inf"), inferences=2):
    spec = ScenarioSpec.closed_loop(keys, inferences=inferences,
                                    qos_scale=qos_scale)
    engine = MultiTenantEngine(
        SoCConfig(),
        make_scheduler(policy_name),
        ScenarioWorkload(spec),
        use_native=use_native,
    )
    return engine.run()


def _metrics_json(result) -> str:
    return json.dumps(result.metric_summary(), sort_keys=True)


class TestReferenceEquivalence:
    """Spot checks against the frozen pre-refactor reference (the full
    20-scenario x 5-policy sweep runs in the slow tier, see
    ``test_reference_summaries.py``)."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pair_scenario_matches_reference(self, policy):
        reference = json.loads(REFERENCE_PATH.read_text())
        spec = ScenarioSpec.closed_loop(["RS.", "MB."], inferences=2,
                                        warmup_inferences=1)
        fresh = run(spec, policy=policy)
        assert _metrics_json(fresh) == json.dumps(
            reference["pair-rs-mb"][policy], sort_keys=True
        )

    def test_steady_state_matches_reference(self):
        reference = json.loads(REFERENCE_PATH.read_text())
        spec = ScenarioSpec.closed_loop(["RS.", "MB.", "EF.", "VT."],
                                        duration_s=0.03)
        fresh = run(spec, policy="camdn-full")
        assert _metrics_json(fresh) == json.dumps(
            reference["steady-quad"]["camdn-full"], sort_keys=True
        )


class TestRunningKernel:
    def test_membership_and_step(self):
        """Unit-level kernel check against the scalar reference math."""
        from repro.sim.task import TaskInstance
        from repro.models.zoo import build_model

        kernel = RunningKernel()
        graph = build_model("MB.")
        insts = []
        for i in range(3):
            inst = TaskInstance(instance_id=f"t{i}", stream_id=f"t{i}",
                                graph=graph, arrival_time=0.0)
            inst.begin_work(LayerWork(compute_cycles=1000.0 * (i + 1),
                                      dram_bytes=500.0))
            kernel.add(inst)
            insts.append(inst)
        kernel.set_rates([1e9] * 3, [1e9] * 3)
        dt, finished = kernel.step(math.inf)
        # Soonest completion: max(1000/1e9, 500/1e9) = 1 us.
        assert dt == pytest.approx(1e-6)
        assert finished == [0]
        # Layer 0 drained both streams; the others drained dt's worth.
        assert kernel.rem_c[2] == pytest.approx(2000.0)
        assert kernel.rem_d[2] == 0.0
        kernel.remove(insts[0])
        # Removal writes the fluid state back to the instance.
        assert insts[0].rem_compute_cycles == 0.0
        assert insts[0].rem_dram_bytes == 0.0
        assert [i.instance_id for i in kernel.insts] == ["t1", "t2"]
        assert kernel.pos == {"t1": 0, "t2": 1}


class FixedShareScheduler(SchedulerPolicy):
    """Static-rate policy granting a (possibly tiny) bandwidth share."""

    name = "fixed-share"
    dynamic_rates = False

    def __init__(self, share: float, dram: float = 1000.0):
        super().__init__()
        self.share = share
        self.dram = dram

    def begin_layer(self, instance, now):
        return LayerWork(compute_cycles=10.0, dram_bytes=self.dram), 0.0

    def bandwidth_shares(self, insts, rem_compute, rem_dram, now):
        return [self.share] * len(insts)


class TestShareSignature:
    def test_dict_keyed_override_fails_loudly(self):
        """``bandwidth_shares`` takes the kernel's positional arrays; an
        override written for the old ``(running, now)`` signature must
        raise instead of being skipped for a default split."""

        class DictShares(FixedShareScheduler):
            def bandwidth_shares(self, running, now):
                return {iid: self.share for iid in running}

        spec = ScenarioSpec.closed_loop(["MB."], inferences=1)
        engine = MultiTenantEngine(SoCConfig(), DictShares(share=0.5),
                                   ScenarioWorkload(spec))
        with pytest.raises(TypeError):
            engine.run()


class TestRateClampConsistency:
    """Regression for the dt/advance clamp mismatch (ISSUE 2 satellite).

    The pre-kernel loop clamped the DRAM rate to >= 1e-6 only in the
    min-dt search while advancing at the raw rate, so a near-zero share
    produced a finite dt with no matching progress — the run crawled
    toward the event cap.  The kernel clamps once, at rate installation,
    so dt and progress always agree.
    """

    def test_near_zero_share_completes_consistently(self):
        spec = ScenarioSpec.closed_loop(["MB."], inferences=1)
        engine = MultiTenantEngine(
            SoCConfig(),
            FixedShareScheduler(share=1e-30, dram=1e-3),
            ScenarioWorkload(spec),
        )
        result = engine.run()
        # One event per layer (plus bounded residual events): progress
        # matches the computed dt instead of stalling.
        assert result.metrics.num_inferences == 1
        assert result.events_processed <= 3 * 64
        # The clamped rate (1e-6 B/s) governs the simulated time.
        assert result.sim_time_s == pytest.approx(64 * 1e-3 / 1e-6,
                                                  rel=0.01)

    def test_normal_shares_unaffected_by_clamp(self):
        """The clamp floor is unreachable for real policies: the frozen
        reference pins the absolute values."""
        result = _run("baseline", keys=("MB.",), inferences=1)
        assert result.metrics.num_inferences == 1


class TestRuntimeObservability:
    def test_wall_time_and_events_in_summary(self):
        result = _run("baseline", keys=("MB.",), inferences=1)
        summary = result.summary()
        assert summary["events_processed"] == result.events_processed > 0
        assert summary["wall_time_s"] > 0
        assert result.events_per_s > 0

    def test_metric_summary_excludes_runtime_keys(self):
        result = _run("baseline", keys=("MB.",), inferences=1)
        metric = result.metric_summary()
        runtime_keys = ("wall_time_s", "events_processed",
                        "avg_queue_delay_ms", "offered_load_ratio",
                        "cancelled_inferences", "dropped_inferences")
        for key in runtime_keys:
            assert key not in metric
        # summary() is metric_summary() plus the runtime/scenario keys.
        full = result.summary()
        assert {k: v for k, v in full.items()
                if k not in runtime_keys} == metric

    def test_closed_loop_offered_load_is_balanced(self):
        result = _run("baseline", keys=("MB.", "MB."), inferences=2)
        assert result.offered_inferences == 4
        assert result.cancelled_inferences == 0
        assert result.offered_load_ratio == pytest.approx(1.0)


class TestStaticRates:
    def test_static_policy_matches_split_path(self):
        """A static-rate policy with no waiters must produce the same
        metrics on the default stepper as on the Python split path that
        ``use_native=False`` runs; the reference suite covers absolute
        values, this covers the static-rate batch bookkeeping (dispatch
        of successor inferences) on both paths."""
        result = _run("baseline", keys=("MB.", "MB."), inferences=3)
        split = _run("baseline", use_native=False,
                     keys=("MB.", "MB."), inferences=3)
        assert result.metrics.num_inferences == 6
        assert _metrics_json(result) == _metrics_json(split)
        assert result.events_processed == split.events_processed


class TestRemovedStepPathPin:
    """Since 1.11.0 the engine has two step paths, chosen by whether
    native code runs; the pin that chose between the Python ones is
    gone from every signature that took it, so a caller still passing
    it fails loudly instead of running an unexpected path."""

    PIN = "kernel_backend"

    @pytest.fixture(scope="class")
    def snapshot(self):
        spec = ScenarioSpec.closed_loop(KEYS, inferences=2)
        engine = MultiTenantEngine(SoCConfig(), make_scheduler("moca"),
                                   ScenarioWorkload(spec))
        snapshot = engine.run(snapshot_at_events=200).last_snapshot
        assert snapshot is not None
        return snapshot

    def test_engine_rejects_pin(self):
        spec = ScenarioSpec.closed_loop(KEYS, inferences=1)
        with pytest.raises(TypeError, match=self.PIN):
            MultiTenantEngine(SoCConfig(), make_scheduler("moca"),
                              ScenarioWorkload(spec),
                              **{self.PIN: "list"})

    def test_snapshot_resume_rejects_pin(self, snapshot):
        with pytest.raises(TypeError, match=self.PIN):
            snapshot.resume(**{self.PIN: "list"})
        # The supported switch still resumes the run.
        assert snapshot.resume(use_native=False).resume_run() \
            .metrics.num_inferences == 2 * len(KEYS)
