"""Engine-level dynamic tenancy tests: open-loop queueing, mid-run
join/leave, page reclamation under churn, and allocator invariants
across randomized churn traces."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SoCConfig
from repro.experiments.common import run_scenario
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.camdn_full import CaMDNFullScheduler
from repro.sim.scenario import (
    ArrivalProcess,
    ScenarioSpec,
    StreamSpec,
)
from repro.sim.task import LayerWork

POLICIES = ["baseline", "moca", "aurora", "camdn-hw", "camdn-full"]


class FixedWork(SchedulerPolicy):
    """Deterministic closed-form policy for timing assertions."""

    name = "fixed"
    dynamic_rates = False

    def __init__(self, cycles=1000.0, dram=10.0):
        super().__init__()
        self.cycles = cycles
        self.dram = dram

    def begin_layer(self, instance, now):
        return LayerWork(compute_cycles=self.cycles,
                         dram_bytes=self.dram), 0.0


class TestOpenLoopArrivals:
    def test_periodic_count_mode_runs_quota(self):
        spec = ScenarioSpec(
            streams=(
                StreamSpec(
                    model="MB.",
                    arrival=ArrivalProcess.periodic(period_s=1e-3),
                    inferences=5,
                ),
            ),
        )
        result = run_scenario(spec, policy=FixedWork())
        assert result.metrics.num_inferences == 5
        assert result.offered_inferences == 5
        # Arrivals at 1,2,...,5 ms; service is ~64 us, so no queueing.
        assert result.summary()["avg_queue_delay_ms"] == \
            pytest.approx(0.0, abs=1e-9)

    def test_overloaded_stream_queues(self):
        # Service time: 64 layers x 1 ms/layer = 64 ms per inference;
        # arrivals every 10 ms -> the backlog grows and queue delay
        # dominates latency.
        spec = ScenarioSpec(
            streams=(
                StreamSpec(
                    model="MB.",
                    arrival=ArrivalProcess.periodic(period_s=0.01),
                    inferences=4,
                ),
            ),
        )
        result = run_scenario(
            spec, policy=FixedWork(cycles=1e6, dram=10.0)
        )
        summary = result.summary()
        assert result.metrics.num_inferences == 4
        assert summary["avg_queue_delay_ms"] > 10.0
        assert summary["offered_load_ratio"] > 1.0
        # Later arrivals wait longer (FIFO behind one in-flight).
        delays = sorted(
            (r.start_time - r.arrival_time, r.instance_id)
            for r in result.metrics.records
        )
        assert delays[0][1].endswith("#0")
        assert delays[-1][1].endswith("#3")

    def test_arrivals_measured_by_window(self):
        # Arrivals stop at the window end; everything offered inside the
        # window is measured even if it finishes after it.
        spec = ScenarioSpec(
            streams=(
                StreamSpec(
                    model="MB.",
                    arrival=ArrivalProcess.periodic(period_s=0.02),
                ),
            ),
            duration_s=0.1,
            warmup_s=0.0,
        )
        result = run_scenario(spec, policy=FixedWork())
        # Arrivals at 0.02..0.08 (phase 0 fires at t=0 too): 5 offered.
        assert result.offered_inferences == 5
        assert result.metrics.num_inferences == 5

    def test_poisson_seed_changes_schedule(self):
        def run(seed):
            spec = ScenarioSpec(
                streams=(
                    StreamSpec(
                        model="MB.",
                        arrival=ArrivalProcess.poisson(rate_hz=200.0,
                                                       seed=seed),
                    ),
                ),
                duration_s=0.05,
            )
            result = run_scenario(spec, policy=FixedWork())
            return [r.arrival_time for r in result.metrics.records]

        assert run(1) == run(1)
        assert run(1) != run(2)


class RetireProbe(CaMDNFullScheduler):
    """CaMDN(Full) instrumented for churn observability.

    Tracks the physical pages (pcpns) a cancelled departure releases and
    watches surviving tenants' regions for those exact pages being
    re-granted by Algorithm 1.
    """

    def __init__(self):
        super().__init__()
        self.retire_events = []     # (now, stream_id, free_pages)
        self.freed_pcpns = set()    # pages released by departures
        self.regrants = []          # (now, stream_id, pcpns re-used)
        self._churn_streams = set()

    def on_task_end(self, instance, now):
        from repro.sim.task import InstanceState

        if instance.state is InstanceState.CANCELLED:
            region = self.system.regions.region_of(instance.instance_id)
            if region is not None:
                self.freed_pcpns.update(region.pcpns)
                self._churn_streams.add(instance.stream_id)
        super().on_task_end(instance, now)

    def on_tenant_retire(self, stream_id, now):
        super().on_tenant_retire(stream_id, now)
        self.retire_events.append(
            (now, stream_id, self.system.regions.free_pages)
        )

    def native_batch_args(self):
        # The probe watches the regions at every layer start in
        # begin_layer, so the native batch loop, which resizes regions
        # itself, must hand every completion back to Python.
        return None

    def begin_layer(self, instance, now):
        out = super().begin_layer(instance, now)
        if self.freed_pcpns and \
                instance.stream_id not in self._churn_streams:
            region = self.system.regions.region_of(instance.instance_id)
            if region is not None:
                reused = self.freed_pcpns.intersection(region.pcpns)
                if reused:
                    self.regrants.append(
                        (now, instance.stream_id, reused)
                    )
        return out


class TestChurn:
    def _churn_spec(self):
        # Two residents, four simultaneous churners: while the churners
        # are active the cache is heavily shared; their departure at
        # 60 ms frees pages the residents' next allocations absorb.
        residents = (StreamSpec(model="RS."), StreamSpec(model="MB."))
        churners = tuple(
            StreamSpec(model=key, leave_s=0.06)
            for key in ("BE.", "GN.", "WV.", "PP.")
        )
        return ScenarioSpec(
            streams=residents + churners, duration_s=0.2, warmup_s=0.0
        )

    def test_departure_reclaims_and_regrants_pages(self):
        """Acceptance: a mid-run departure's pages are reclaimed and
        re-granted to a surviving tenant under camdn-full.

        A 4 MiB cache keeps the survivors page-constrained while the
        churners are resident, so Algorithm 1 provably re-grants the
        departures' physical pages (tracked by pcpn identity) to the
        survivors' regions once they free up.
        """
        from repro.config import MiB

        probe = RetireProbe()
        result = run_scenario(
            self._churn_spec(),
            SoCConfig().with_cache_bytes(4 * MiB),
            probe,
        )
        # Mid-run departures happened (before the run drained)...
        mid_run = [e for e in probe.retire_events
                   if e[0] < result.sim_time_s]
        assert len(mid_run) >= 4
        # ... aborting in-flight inferences and reclaiming their
        # physical pages...
        assert result.cancelled_inferences >= 1
        assert probe.freed_pcpns
        # ... which Algorithm 1 re-grants to surviving tenants' regions.
        departure_time = mid_run[0][0]
        assert probe.regrants, "no freed page re-granted to a survivor"
        survivors = {stream for _, stream, _ in probe.regrants}
        assert survivors & {"RS.@0", "MB.@1"}
        assert all(t >= departure_time for t, _, _ in probe.regrants)
        # All pages return to the pool once everything drains.
        assert probe.retire_events[-1][2] == \
            probe.system.regions.allocator.num_pages

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_policies_survive_churn(self, policy):
        result = run_scenario(self._churn_spec(), policy=policy)
        assert result.metrics.num_inferences > 0
        stats = result.scheduler_stats
        assert stats["tenant_admits"] == 6
        assert stats["tenant_retires"] == 6

    def test_cancelled_instances_not_recorded(self):
        spec = self._churn_spec()
        result = run_scenario(spec, policy="camdn-full")
        cancelled = result.cancelled_inferences
        assert cancelled >= 1
        churn_ids = {"BE.@2", "GN.@3", "WV.@4", "PP.@5"}
        churn_records = [r for r in result.metrics.records
                         if r.stream_id in churn_ids]
        # Every recorded churner inference finished before its tenant
        # left (aborted ones never reach the metrics).
        assert all(r.arrival_time < 0.06 for r in churn_records)
        assert result.offered_inferences == \
            len(result.metrics.records) + cancelled

    def test_queued_withdrawal_counts_as_cancelled(self):
        """A tenant that leaves while its inference still waits for a
        core withdraws it silently from the queue — but the offered /
        completed / cancelled accounting must still balance."""
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="MB."),
                # Joins while the single core is busy, leaves before it
                # could ever be dispatched.
                StreamSpec(model="RS.", join_s=1e-5, leave_s=2e-5),
            ),
            duration_s=0.1,
            warmup_s=0.0,
        )
        result = run_scenario(
            spec,
            SoCConfig(num_npu_cores=1),
            FixedWork(cycles=1e6, dram=10.0),
        )
        assert result.cancelled_inferences == 1
        assert all(r.stream_id == "MB.@0"
                   for r in result.metrics.records)
        assert result.offered_inferences == \
            len(result.metrics.records) + result.cancelled_inferences

    def test_late_join_streams_start_at_join_time(self):
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="MB."),
                StreamSpec(model="RS.", join_s=0.05),
            ),
            duration_s=0.15,
            warmup_s=0.0,
        )
        result = run_scenario(spec, policy="camdn-full")
        late = [r for r in result.metrics.records
                if r.stream_id == "RS.@1"]
        assert late
        assert min(r.arrival_time for r in late) == pytest.approx(0.05)


class InvariantProbe(CaMDNFullScheduler):
    """Checks the full CaMDN system invariants at every tenant retire."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def on_tenant_retire(self, stream_id, now):
        super().on_tenant_retire(stream_id, now)
        self.system.check_invariants()
        self.checks += 1


_KEYS = ("RS.", "MB.", "EF.", "BE.")

_churn_trace = st.lists(
    st.tuples(
        st.integers(0, 3),                        # model pick
        st.floats(0.0, 0.04),                     # join offset
        st.floats(0.005, 0.08),                   # leave delta
    ),
    min_size=1,
    max_size=4,
)


class TestChurnInvariants:
    @settings(max_examples=8, deadline=None)
    @given(trace=_churn_trace)
    def test_allocator_invariants_after_every_departure(self, trace):
        """Hypothesis churn traces: after every mid-run departure the
        allocator's page accounting, the regions and their cross-view
        stay consistent."""
        streams = [StreamSpec(model="RS."), StreamSpec(model="MB.")]
        for model_i, join, leave_delta in trace:
            streams.append(
                StreamSpec(
                    model=_KEYS[model_i],
                    join_s=join,
                    leave_s=join + leave_delta,
                )
            )
        spec = ScenarioSpec(
            streams=tuple(streams), duration_s=0.1, warmup_s=0.0
        )
        probe = InvariantProbe()
        result = run_scenario(spec, SoCConfig(), probe)
        assert probe.checks == len(streams)
        assert result.metrics.num_inferences > 0
        probe.system.check_invariants()


class TestTenantHooks:
    class Recorder(SchedulerPolicy):
        name = "recorder"
        dynamic_rates = False

        def __init__(self):
            super().__init__()
            self.events = []

        def begin_layer(self, instance, now):
            return LayerWork(compute_cycles=1000.0, dram_bytes=10.0), 0.0

        def on_tenant_admit(self, stream_id, graph, now):
            self.events.append(("admit", stream_id, now))

        def on_tenant_retire(self, stream_id, now):
            self.events.append(("retire", stream_id, now))

    def test_hooks_balanced_and_ordered(self):
        recorder = self.Recorder()
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="MB.", inferences=2),
                StreamSpec(model="RS.", inferences=1),
            ),
        )
        run_scenario(spec, policy=recorder)
        admits = [e for e in recorder.events if e[0] == "admit"]
        retires = [e for e in recorder.events if e[0] == "retire"]
        assert [e[1] for e in admits] == ["MB.@0", "RS.@1"]
        assert sorted(e[1] for e in retires) == ["MB.@0", "RS.@1"]
        # Each stream admits before it retires.
        for stream in ("MB.@0", "RS.@1"):
            admit_i = recorder.events.index(("admit", stream, 0.0))
            retire_i = next(
                i for i, e in enumerate(recorder.events)
                if e[0] == "retire" and e[1] == stream
            )
            assert admit_i < retire_i

    def test_mid_run_join_admits_before_first_dispatch(self):
        recorder = self.Recorder()
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="MB.", inferences=3),
                StreamSpec(model="RS.", inferences=1, join_s=5e-5),
            ),
        )
        result = run_scenario(spec, policy=recorder)
        (admit,) = [e for e in recorder.events
                    if e[0] == "admit" and e[1] == "RS.@1"]
        assert admit[2] == pytest.approx(5e-5)
        first = min(r.arrival_time for r in result.metrics.records
                    if r.stream_id == "RS.@1")
        assert first == pytest.approx(5e-5)
