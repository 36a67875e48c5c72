"""Scenario fuzzing: conservation laws and cross-path identity on
arbitrary valid scenarios.

The committed reference suite pins byte-identity on a fixed 20-scenario
set; these properties extend the correctness bar to the whole spec
space.  Every generated scenario — any arrival mix, churn pattern and
measurement mode from :mod:`fuzz_scenarios` — must satisfy, under every
policy:

* the conservation law ``offered == completed + cancelled + dropped``
  (the engine drains before returning, so nothing stays in flight);
* allocator/region/CPT invariants at every tenant departure
  (``CaMDNSystem.check_invariants`` via a probed camdn-full scheduler);
* non-negative queueing delays on every measured inference;
* native-vs-pure-Python trace identity (the C fused step against its
  documented twin, byte-compared through ``metric_summary()``).

``REPRO_FUZZ_EXAMPLES`` scales the per-property example budget (CI fast
tier keeps it small; the nightly job raises it).  Falsifying specs are
dumped as JSON artifacts when ``REPRO_FUZZ_ARTIFACT_DIR`` is set.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzz_scenarios import (
    count_mode_scenario_specs,
    dump_falsifying_spec,
    scenario_specs,
)
from repro.config import SoCConfig
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig
from repro.schedulers import make_scheduler
from repro.schedulers.camdn_full import CaMDNFullScheduler
from repro.sim.engine import MultiTenantEngine
from repro.sim.workload import ScenarioWorkload

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")

#: Per-property example budget; the CI fast tier and the nightly fuzz
#: job scale it through the environment.
FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

_settings = settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large],
)


class DepartureInvariantProbe(CaMDNFullScheduler):
    """camdn-full with a full-system invariant sweep at every tenant
    departure (page accounting, region exclusivity, CPT cross-view)."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def on_tenant_retire(self, stream_id, now):
        super().on_tenant_retire(stream_id, now)
        self.system.check_invariants()
        self.checks += 1


def _scheduler_for(policy):
    if policy == "camdn-full":
        return DepartureInvariantProbe()
    return make_scheduler(policy)


def _check_run(spec, policy, label):
    """Run one fuzzed scenario and assert the engine-level laws."""
    scheduler = _scheduler_for(policy)
    try:
        result = run_scenario(spec, SoCConfig(), scheduler)
        # Conservation: every offered arrival is accounted exactly once
        # (also asserted inside run() — this keeps the law visible here
        # even if the env gate is off).
        assert result.offered_inferences == (
            result.completed_inferences + result.cancelled_inferences
            + result.dropped_inferences
        ), "conservation law violated"
        assert result.completed_inferences >= \
            result.metrics.num_inferences
        # Queueing delays are non-negative: no instance starts before
        # its arrival was offered.
        for rec in result.metrics.records:
            assert rec.start_time >= rec.arrival_time - 1e-12, (
                f"{rec.instance_id} started before its arrival"
            )
            assert rec.finish_time >= rec.start_time
        if isinstance(scheduler, DepartureInvariantProbe):
            assert scheduler.checks >= len(spec.streams)
            scheduler.system.check_invariants()
    except AssertionError as exc:
        raise AssertionError(
            f"{exc}\nfalsifying {dump_falsifying_spec(spec, policy, label)}"
        ) from exc
    return result


class TestFuzzedConservation:
    @_settings
    @given(spec=scenario_specs())
    @pytest.mark.parametrize("policy", POLICIES)
    def test_window_mode_conservation_and_invariants(self, spec, policy):
        _check_run(spec, policy, "window-conservation")

    @_settings
    @given(spec=count_mode_scenario_specs())
    @pytest.mark.parametrize("policy", ("baseline", "camdn-full"))
    def test_count_mode_conservation_and_invariants(self, spec, policy):
        result = _check_run(spec, policy, "count-conservation")
        # Count mode always completes every measured quota.
        expected = sum(s.inferences for s in spec.streams)
        assert result.metrics.num_inferences == expected


class TestFuzzedNativeIdentity:
    """The native fused step against pure Python on arbitrary specs."""

    def _run(self, spec, policy, use_native):
        engine = MultiTenantEngine(
            SoCConfig(), _scheduler_for(policy), ScenarioWorkload(spec),
            use_native=use_native,
        )
        return engine.run()

    @_settings
    @given(spec=scenario_specs())
    @pytest.mark.parametrize("policy", ("camdn-full", "moca", "baseline"))
    def test_native_vs_python_byte_identity(self, spec, policy):
        try:
            with_native = self._run(spec, policy, None)
            without = self._run(spec, policy, False)
            assert with_native.events_processed == \
                without.events_processed
            assert with_native.offered_inferences == \
                without.offered_inferences
            if with_native.metrics.records:
                a = json.dumps(with_native.metric_summary(),
                               sort_keys=True)
                b = json.dumps(without.metric_summary(), sort_keys=True)
                assert a == b, "native/python metric summaries diverged"
            else:
                assert not without.metrics.records
        except AssertionError as exc:
            raise AssertionError(
                f"{exc}\nfalsifying "
                f"{dump_falsifying_spec(spec, policy, 'native-identity')}"
            ) from exc


class TestFuzzedSnapshotResume:
    """A snapshot taken at a random batch boundary of a fuzzed run
    resumes to a byte-identical ``metric_summary()``."""

    @_settings
    @given(spec=scenario_specs(), cut=st.floats(0.0, 1.0))
    @pytest.mark.parametrize("policy", ("camdn-full", "baseline"))
    def test_snapshot_resume_byte_identity(self, spec, cut, policy):
        from repro.sim.snapshot import EngineSnapshot

        clean = run_scenario(spec, SoCConfig(), policy)
        at = int(clean.events_processed * cut)
        snapped = run_scenario(spec, SoCConfig(), policy,
                               config=RunConfig(snapshot_at_events=at))
        snap = snapped.last_snapshot
        if snap is None:
            # The threshold fell inside the final batch, past the last
            # boundary — there was no moment to capture.  Vacuous.
            return
        try:
            resumed = EngineSnapshot.from_json(snap.to_json()) \
                .resume().resume_run()
            assert resumed.events_processed == clean.events_processed
            assert resumed.offered_inferences == \
                clean.offered_inferences
            if clean.metrics.records:
                a = json.dumps(resumed.metric_summary(), sort_keys=True)
                b = json.dumps(clean.metric_summary(), sort_keys=True)
                assert a == b, \
                    "resumed run diverged from uninterrupted run"
                assert json.dumps(snapped.metric_summary(),
                                  sort_keys=True) == b, \
                    "snapshot capture perturbed the observed run"
            else:
                assert not resumed.metrics.records
                assert not snapped.metrics.records
        except AssertionError as exc:
            raise AssertionError(
                f"{exc}\nfalsifying "
                f"{dump_falsifying_spec(spec, policy, 'snapshot-resume', extra={'snapshot_at_events': at})}"
            ) from exc


class TestFuzzedCaptureReplay:
    """Trace capture of a fuzzed run replays byte-identically."""

    @_settings
    @given(spec=scenario_specs())
    @pytest.mark.parametrize("policy", ("camdn-full", "aurora"))
    def test_capture_replay_byte_identity(self, spec, policy):
        try:
            source = run_scenario(spec, SoCConfig(), policy,
                                  config=RunConfig(capture_trace=True))
            trace = source.event_trace
            replayed = run_scenario(
                trace.replay_scenario(), SoCConfig(), policy
            )
            assert source.events_processed == replayed.events_processed
            assert source.offered_inferences == \
                replayed.offered_inferences
            if source.metrics.records:
                a = json.dumps(source.metric_summary(), sort_keys=True)
                b = json.dumps(replayed.metric_summary(), sort_keys=True)
                assert a == b, "replay diverged from its source run"
            else:
                assert not replayed.metrics.records
            # The trace's own books balance too.
            assert trace.count("arrival") == source.offered_inferences
            assert trace.count("completion") == \
                source.completed_inferences
            assert trace.count("cancel") == source.cancelled_inferences
            assert trace.count("drop") == source.dropped_inferences
        except AssertionError as exc:
            raise AssertionError(
                f"{exc}\nfalsifying "
                f"{dump_falsifying_spec(spec, policy, 'capture-replay')}"
            ) from exc
