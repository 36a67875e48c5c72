"""Chaos fuzzing: arbitrary fault schedules against arbitrary scenarios.

The graceful-degradation bar, stated as properties: under *any* valid
fault schedule — overlapping DRAM throttles, near-total core outages,
ECC retirement bursts, tenant stalls — every policy must

* finish (no hang: runs execute under a generous watchdog budget);
* satisfy the conservation law ``offered == completed + cancelled +
  dropped`` (preemptions count as cancelled, stalled arrivals are
  simply never offered);
* keep the allocator/region/CPT invariants at every fault boundary
  (page retirement, capacity change, tenant departure — probed on
  camdn-full);
* never re-grant a retired page (implied by the allocator sweep);
* produce byte-identical ``metric_summary()`` across the native batch
  loop and the Python split path.

Deliberately *not* asserted under faults: capture-replay identity
(fault events are observational in traces, not replayed) and count-mode
quota completion (a permanent stall can legitimately strand a quota).

``REPRO_FUZZ_EXAMPLES`` scales the per-property budget; falsifying
(scenario, fault) pairs are dumped when ``REPRO_FUZZ_ARTIFACT_DIR`` is
set.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzz_faults import dump_falsifying_fault_case, fault_specs
from fuzz_scenarios import scenario_specs
from repro.config import SoCConfig
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig
from repro.schedulers import make_scheduler
from repro.schedulers.camdn_full import CaMDNFullScheduler
from repro.sim.engine import MultiTenantEngine
from repro.sim.workload import ScenarioWorkload

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

_settings = settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large],
)

#: Watchdog budget for fuzzed runs: far above any legitimate fuzzed
#: scenario, so a fault-induced livelock fails fast instead of hanging
#: the suite.
MAX_FUZZ_EVENTS = 2_000_000


class FaultBoundaryProbe(CaMDNFullScheduler):
    """camdn-full with a full-system invariant sweep at every fault
    boundary and tenant departure."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def _sweep(self):
        self.system.check_invariants()
        self.system.regions.check_invariants()
        self.checks += 1

    def on_pages_retired(self, count, rng_key, now):
        retired = super().on_pages_retired(count, rng_key, now)
        self._sweep()
        # Retired pages are out of circulation immediately.
        alloc = self.system.regions.allocator
        for pcpn in retired:
            assert alloc.is_retired(pcpn)
            assert alloc.owner_of(pcpn) is None
        return retired

    def on_capacity_change(self, num_cores, now):
        super().on_capacity_change(num_cores, now)
        self._sweep()

    def on_tenant_retire(self, stream_id, now):
        super().on_tenant_retire(stream_id, now)
        self._sweep()


def _scheduler_for(policy):
    if policy == "camdn-full":
        return FaultBoundaryProbe()
    return make_scheduler(policy)


def _check_run(spec, faults, policy, label):
    """Run one fuzzed scenario under one fuzzed fault schedule and
    assert the degradation laws."""
    scheduler = _scheduler_for(policy)
    try:
        engine = MultiTenantEngine(
            SoCConfig(), scheduler, ScenarioWorkload(spec), faults=faults,
        )
        result = engine.run(max_events=MAX_FUZZ_EVENTS)
        assert result.offered_inferences == (
            result.completed_inferences + result.cancelled_inferences
            + result.dropped_inferences
        ), "conservation law violated under faults"
        for rec in result.metrics.records:
            assert rec.start_time >= rec.arrival_time - 1e-12, (
                f"{rec.instance_id} started before its arrival"
            )
            assert rec.finish_time >= rec.start_time
        if isinstance(scheduler, FaultBoundaryProbe):
            scheduler._sweep()  # final state is clean too
    except AssertionError as exc:
        raise AssertionError(
            f"{exc}\nfalsifying "
            f"{dump_falsifying_fault_case(spec, faults, policy, label)}"
        ) from exc
    return result


class TestChaosConservation:
    @_settings
    @given(spec=scenario_specs(), faults=fault_specs())
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_degrades_gracefully(self, spec, faults,
                                              policy):
        _check_run(spec, faults, policy, "chaos-conservation")


class TestChaosNativeIdentity:
    """The native batch loop against pure Python under fuzzed faults."""

    def _run(self, spec, faults, policy, use_native):
        engine = MultiTenantEngine(
            SoCConfig(), _scheduler_for(policy), ScenarioWorkload(spec),
            faults=faults, use_native=use_native,
        )
        return engine.run(max_events=MAX_FUZZ_EVENTS)

    @_settings
    @given(spec=scenario_specs(), faults=fault_specs())
    @pytest.mark.parametrize("policy", ("camdn-full", "baseline"))
    def test_native_vs_python_byte_identity_under_faults(
        self, spec, faults, policy
    ):
        try:
            with_native = self._run(spec, faults, policy, None)
            without = self._run(spec, faults, policy, False)
            assert with_native.events_processed == \
                without.events_processed
            assert with_native.offered_inferences == \
                without.offered_inferences
            if with_native.metrics.records:
                a = json.dumps(with_native.metric_summary(),
                               sort_keys=True)
                b = json.dumps(without.metric_summary(), sort_keys=True)
                assert a == b, \
                    "native/python summaries diverged under faults"
            else:
                assert not without.metrics.records
        except AssertionError as exc:
            raise AssertionError(
                f"{exc}\nfalsifying "
                f"{dump_falsifying_fault_case(spec, faults, policy, 'chaos-native-identity')}"
            ) from exc


class TestChaosSnapshotResume:
    """Snapshot-at-random-boundary under fuzzed faults: a snapshot can
    land mid-throttle, mid-outage or mid-stall, and resuming it must
    still reproduce the uninterrupted faulted run byte-identically.
    Falsifying (scenario, faults, snapshot-event) triples are dumped
    for CI artifact upload."""

    @_settings
    @given(spec=scenario_specs(), faults=fault_specs(),
           cut=st.floats(0.0, 1.0))
    @pytest.mark.parametrize("policy", ("camdn-full", "baseline"))
    def test_faulted_snapshot_resume_byte_identity(self, spec, faults,
                                                   cut, policy):
        from repro.sim.snapshot import EngineSnapshot

        config = RunConfig(faults=faults, max_events=MAX_FUZZ_EVENTS)
        clean = run_scenario(spec, SoCConfig(), policy, config=config)
        at = int(clean.events_processed * cut)
        snapped = run_scenario(
            spec, SoCConfig(), policy,
            config=config.replace(snapshot_at_events=at),
        )
        snap = snapped.last_snapshot
        if snap is None:
            # Threshold fell past the last batch boundary — no moment
            # to capture.  Vacuous.
            return
        try:
            resumed = EngineSnapshot.from_json(snap.to_json()) \
                .resume().resume_run(max_events=MAX_FUZZ_EVENTS)
            assert resumed.events_processed == clean.events_processed
            assert resumed.offered_inferences == \
                clean.offered_inferences
            if clean.metrics.records:
                a = json.dumps(resumed.metric_summary(), sort_keys=True)
                b = json.dumps(clean.metric_summary(), sort_keys=True)
                assert a == b, \
                    "faulted snapshot resume diverged from clean run"
            else:
                assert not resumed.metrics.records
        except AssertionError as exc:
            raise AssertionError(
                f"{exc}\nfalsifying "
                f"{dump_falsifying_fault_case(spec, faults, policy, 'chaos-snapshot-resume', extra={'snapshot_at_events': at})}"
            ) from exc


class TestChaosRoundTrip:
    """Fuzzed fault specs survive exact serialization round-trips."""

    @_settings
    @given(faults=fault_specs())
    def test_fuzzed_spec_round_trips_exactly(self, faults):
        from repro.sim.faults import FaultSpec

        data = faults.to_dict()
        again = FaultSpec.from_dict(json.loads(json.dumps(data)))
        assert again == faults
        assert again.to_dict() == data


class TestChaosFaultFreeIdentity:
    """A fuzzed scenario with an *empty* schedule is byte-identical to
    the same scenario with no fault plumbing at all."""

    @_settings
    @given(spec=scenario_specs())
    def test_empty_schedule_is_free(self, spec):
        from repro.sim.faults import FaultSpec

        clean = run_scenario(spec, SoCConfig(), "camdn-full")
        empty = run_scenario(spec, SoCConfig(), "camdn-full",
                             config=RunConfig(faults=FaultSpec()))
        assert clean.events_processed == empty.events_processed
        if clean.metrics.records:
            a = json.dumps(clean.metric_summary(), sort_keys=True)
            b = json.dumps(empty.metric_summary(), sort_keys=True)
            assert a == b, "empty FaultSpec perturbed a fault-free run"
        else:
            assert not empty.metrics.records
