"""Fluid discrete-event multi-tenant engine.

The engine advances a set of inference streams over shared NPU cores and
shared DRAM bandwidth.  Every running instance executes one layer at a
time; a layer holds two fluid work quantities (compute cycles and DRAM
bytes) that drain at rates set by the core clock and the policy's
bandwidth shares.  A layer completes when both streams drain
(double-buffered compute/DMA overlap).  Events are layer completions,
page-wait wakeups, core handoffs and **scenario timeline events** —
tenant admissions, open-loop arrivals and tenant departures scheduled by
the :class:`~repro.sim.workload.ScenarioWorkload`.  Rates are recomputed
after every event, which makes the simulation exact for
piecewise-constant shares.

The event loop runs on a structure-of-arrays kernel
(:class:`~repro.sim.kernel.RunningKernel`): remaining compute/DRAM work and
the applied rates live in flat arrays, so the per-event min-dt search,
fluid advance and completion scan are batch operations instead of
per-instance Python calls.  Waiting-set wakeups sit in an indexed min-heap
with lazy invalidation, so timeout processing is O(1) peeks except at the
events where a waiter is actually due.  Rate recomputation is driven by
explicit invalidation notifications at the exact state transitions that
can change shares — membership changes always invalidate; layer-work
changes only invalidate policies whose shares track task progress
(:attr:`SchedulerPolicy.dynamic_rates`).

The event loop is a **batched multi-event stepper**
(:meth:`MultiTenantEngine._batch_run`): one Python-level entry processes
a whole run of events in a tight loop, leaving only when the outer loop
genuinely has work to do (a wakeup or timeline event is due, a task is
queued for dispatch, or the policy's rate rule changed epoch).  With
native code (:mod:`repro.sim.native`, a small C extension compiled on
demand), one C call (``_batchstep.batch_loop``) runs whole stretches of
that loop for every policy: each event is a fused step — rate
recomputation for a fusable rate rule
(:meth:`~repro.schedulers.base.SchedulerPolicy.rate_kernel`), or the
installed rates of a policy whose rates change with membership alone,
then min-dt search, fluid advance and completion scan — and each
non-final layer completion the policy's completion table covers
(:meth:`~repro.schedulers.base.SchedulerPolicy.native_batch_args`) is
handled in C too.  The transparent-cache policies (baseline, MoCA,
AuRORA) install the next layer's memoized work; the CaMDN policies run
the layer accounting, Algorithm 1 selection and memoized grant.  The
loop hands back to the Python chain the completions it cannot take:
first sights of a memo entry, last layers, CaMDN resizes and denials,
completions while waiters are pending, every completion of a policy
with no table, and every completion while a
:class:`~repro.sim.trace.TraceRecorder` is attached (its spans stay in
Python); after a completion while a task is queued for dispatch it
returns.  ``use_native=False``, the ``kernel_backend="list"`` pin and
``REPRO_NATIVE=0`` run no native code: a fusable rate rule then takes
the pure-Python fused twin per event
(:meth:`RunningKernel.fused_step_demand` /
:meth:`RunningKernel.fused_step_slack`), anything else (and the list
pin always) the split ``_recompute_rates`` + :meth:`RunningKernel.step`
pair.  Each piecewise-constant interval is still stepped individually —
exactness requires draining every interval with the same arithmetic —
so batching elides bookkeeping, never events, and every path is
bit-identical to the split Python path by construction.

Dynamic tenancy: a tenant that joins mid-run is admitted through the
scheduler's :meth:`~repro.schedulers.base.SchedulerPolicy.on_tenant_admit`
hook before its first inference dispatches; a tenant that leaves is
retired preemptively — an in-flight inference is aborted, its cores are
returned, and the scheduler's per-task end hook releases its cache pages
and region (so CaMDN's region resizing is exercised by churn) before
:meth:`~repro.schedulers.base.SchedulerPolicy.on_tenant_retire` fires.

This substrate replaces the paper's in-house cycle-accurate simulator on
DRAMsim3 with a fluid model: DRAM is one bandwidth pool that each policy
splits into per-task rates, derated by the policy's sustained efficiency
(:meth:`~repro.schedulers.base.SchedulerPolicy.dram_efficiency`, the
stand-in for DRAMsim3's row-locality effects), so traffic volumes and
bandwidth splits are modelled and DRAM command timing is not.  The
pre-kernel per-instance scan loop that shipped one release behind
(``legacy_loop``) has been removed; kernel-loop equivalence is pinned
by the committed 20-scenario reference summaries
(``tests/data/metric_summary_reference.json``).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..config import SoCConfig
from ..errors import SimulationError
from . import native
from .faults import (
    CORE_OFFLINE,
    DRAM_DEGRADE,
    ONSET,
    PAGE_RETIRE,
    FaultEvent,
    FaultRuntime,
    FaultSpec,
)
from .kernel import RunningKernel
from .metrics import MetricsCollector

if TYPE_CHECKING:  # circular at runtime: schedulers.base uses sim.task
    from ..schedulers.base import SchedulerPolicy
    from .trace import EventTrace, EventTraceRecorder, TraceRecorder
from .task import InstanceState, TaskInstance
from .workload import ScenarioWorkload

#: Hard cap on engine iterations; generous versus any real experiment and
#: purely a runaway guard.
_MAX_EVENTS = 5_000_000

#: Tolerance for "a waiter / timeline event is due" checks.
_WAKE_EPS = 1e-12


@dataclass
class SimulationResult:
    """Outcome of one engine run."""

    scheduler_name: str
    sim_time_s: float
    metrics: MetricsCollector
    scheduler_stats: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds the engine run took (observability only).
    wall_time_s: float = 0.0
    #: Number of engine events processed (deterministic per scenario).
    events_processed: int = 0
    #: Inferences offered by the scenario (dispatched, backlogged or
    #: dropped by departures) — the open-loop demand side.
    offered_inferences: int = 0
    #: Inferences aborted by preemptive tenant departures (in flight or
    #: still queued for a core).
    cancelled_inferences: int = 0
    #: Inferences that ran all layers to the end (warmup included, so
    #: this can exceed ``metrics.num_inferences``).
    completed_inferences: int = 0
    #: Backlogged open-loop arrivals discarded by tenant departures.
    dropped_inferences: int = 0
    #: Offered arrival rate over the offer window divided by the
    #: completion rate over the full simulated time.  ~1.0 for
    #: closed-loop scenarios; > 1 when open-loop load outruns service
    #: (queues grow and the drain stretches past the window).
    offered_load_ratio: float = 1.0
    #: Event capture of the run (``RunConfig(capture_trace=True)``);
    #: excluded from serialization — traces persist via their own format.
    event_trace: Optional["EventTrace"] = field(
        default=None, repr=False, compare=False
    )
    #: Snapshot captured by ``run(snapshot_at_events=...)`` (None
    #: otherwise); excluded from serialization like ``event_trace``.
    last_snapshot: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    @property
    def events_per_s(self) -> float:
        """Engine throughput (events per wall-clock second)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.events_processed / self.wall_time_s

    def summary(self) -> Dict[str, float]:
        summary = self.metric_summary()
        summary["avg_queue_delay_ms"] = \
            self.metrics.avg_queue_delay_s() * 1e3 \
            if self.metrics.records else 0.0
        summary["offered_load_ratio"] = self.offered_load_ratio
        summary["cancelled_inferences"] = self.cancelled_inferences
        summary["dropped_inferences"] = self.dropped_inferences
        summary["wall_time_s"] = self.wall_time_s
        summary["events_processed"] = self.events_processed
        return summary

    def check_conservation(self) -> None:
        """Inference conservation: every offered arrival is accounted
        for exactly once.

        The engine drains before :meth:`MultiTenantEngine.run` returns
        (nothing stays in flight), so at rest the law reads
        ``offered == completed + cancelled + dropped``.  Violations mean
        lost or double-counted work — the invariant the scenario fuzzer
        leans on.

        Raises:
            SimulationError: the books don't balance.
        """
        accounted = (
            self.completed_inferences + self.cancelled_inferences
            + self.dropped_inferences
        )
        if self.offered_inferences != accounted:
            raise SimulationError(
                f"inference conservation violated: offered "
                f"{self.offered_inferences} != completed "
                f"{self.completed_inferences} + cancelled "
                f"{self.cancelled_inferences} + dropped "
                f"{self.dropped_inferences} (= {accounted})"
            )

    def metric_summary(self) -> Dict[str, float]:
        """Simulated-outcome metrics only (no wall-clock keys).

        This is the byte-identity surface: two engines (or backends, or
        cache layers) agree iff their ``metric_summary()`` dicts are
        byte-identical under ``json.dumps``.  Scenario-level additions
        (queueing delay, offered load) live in :meth:`summary` so the
        frozen closed-loop references stay valid.
        """
        latency_s, dram_bytes = self.metrics.macro_averages()
        return {
            "sim_time_s": self.sim_time_s,
            "inferences": self.metrics.num_inferences,
            "avg_latency_ms": latency_s * 1e3,
            "p99_latency_ms": self.metrics.p99_latency_s() * 1e3,
            "avg_dram_mb": dram_bytes / 1e6,
            "hit_rate": self.metrics.overall_hit_rate(),
            "qos_violations": self.metrics.qos_violation_count(),
        }


class MultiTenantEngine:
    """Simulates one scenario under one scheduling policy."""

    def __init__(self, soc: SoCConfig, scheduler: "SchedulerPolicy",
                 workload: ScenarioWorkload,
                 trace: Optional["TraceRecorder"] = None,
                 kernel_backend: Optional[str] = None,
                 use_native: Optional[bool] = None,
                 event_recorder: Optional["EventTraceRecorder"] = None,
                 faults: Optional[FaultSpec] = None,
                 ) -> None:
        self.soc = soc
        self.scheduler = scheduler
        self.workload = workload
        self.metrics = MetricsCollector()
        self.trace = trace
        # Event-trace capture (dispatch / completion / cancel events;
        # the workload records the scenario-timeline kinds).
        self.event_recorder = event_recorder
        self.now = 0.0
        self.events_processed = 0
        self.cancelled = 0
        self._completed = 0
        self._dynamic_rates = scheduler.dynamic_rates
        # Optional fused end+begin scheduler hook (see
        # _process_completions); policies without it use the split path.
        self._advance_layer = getattr(scheduler, "advance_layer", None)
        self._shares_fn = scheduler.bandwidth_shares
        self._queued: List[TaskInstance] = []
        self._active: Dict[str, TaskInstance] = {}
        #: stream_id -> in-flight instance id (dynamic-tenancy lookups).
        self._stream_active: Dict[str, str] = {}
        self._free_cores = soc.num_npu_cores
        self._core_grant: Dict[str, int] = {}
        # SoC constants and the policy's DRAM efficiency per running-set
        # width, cached off the per-event rate path.  Coerced to float so
        # the native fused step sees binary64 operands (int-valued
        # configs divide to the same quotients either way).
        self._total_bw = float(soc.dram.total_bandwidth_bytes_per_s)
        self._freq = float(soc.npu.frequency_hz)
        self._dram_eff: Dict[int, float] = {}
        # kernel_backend="list" pins the step arithmetic to the split
        # path (policy rates + RunningKernel.step), so the fused paths —
        # native and Python — stand down; cross-path tests rely on it.
        if kernel_backend not in (None, "list"):
            raise ValueError(f"unknown kernel backend {kernel_backend!r}")
        self._kernel_backend = kernel_backend
        # SoA kernel over the RUNNING set.
        self._kernel = RunningKernel()
        # Native batch loop (None: pure-Python paths).  It gates every
        # native entry point of the run (see _bind_native).
        self._batch = None
        if use_native is not False and kernel_backend is None:
            self._batch = native.batch_loop()
        # Fused rate mode, resolved from the policy's rate_kernel() per
        # rate epoch (see _resolve_rate_mode): 0 = split path,
        # 1 = demand_prop, 2 = slack_weighted, 3 = slack_throttled.
        self._fused_mode = 0
        self._mode_floor = 0.0
        self._mode_urgency = 0.0
        self._rate_epoch_seen = 0
        self._rates_valid = False
        # Scenario timeline: once the workload's scheduled events drain,
        # the flag keeps the hot loop at one boolean test per event
        # (pure closed-loop scenarios drain it at t=0).
        self._timeline_done = False
        # Fault-injection timeline (sim/faults.py).  Like the scenario
        # timeline, an absent or drained schedule costs the hot loop one
        # boolean test per event — fault-free runs stay byte-identical.
        self._fault_runtime: Optional[FaultRuntime] = None
        self._faults_done = True
        if faults is not None and faults.events:
            self._fault_runtime = FaultRuntime(faults)
            self._faults_done = False
        # Fault-window bookkeeping, keyed by event seq so overlapping
        # windows compose and expire exactly.
        self._base_bw = self._total_bw
        self._bw_factors: Dict[int, float] = {}
        self._cores_offline: Dict[int, int] = {}
        self._offline_total = 0
        # Watchdog budgets (see run()); REPRO_MAX_EVENTS overrides the
        # module-level runaway cap for every run in the process.
        self._max_events = int(
            os.environ.get("REPRO_MAX_EVENTS", _MAX_EVENTS)
        )
        self._deadline: Optional[float] = None
        # Checkpoint wiring (see run(checkpoint_every_s=...) and
        # sim/snapshot.py).  A run without checkpoints keeps the hook at
        # None, which costs the outer event loop one identity test per
        # iteration — checkpoint-free runs stay byte-identical.
        self._checkpoint_hook = None
        self._checkpoint_every_s: Optional[float] = None
        self._checkpoint_dir: Optional[str] = None
        self._checkpoint_next = 0.0
        self._snapshot_at_events: Optional[int] = None
        #: In-memory snapshot captured by the ``snapshot_at_events``
        #: test hook (None until the threshold is crossed).
        self.last_snapshot = None
        #: Number of on-disk checkpoints written by this run.
        self.checkpoints_written = 0
        # WAITING_PAGES instances, insertion-ordered (grant-retry order is
        # observable policy state, so iteration order must be stable).
        self._waiting_set: Dict[str, TaskInstance] = {}
        # Lazily-invalidated wakeup min-heap: (wake_time, seq) entries;
        # an entry is live iff _wait_seq maps its instance to its seq.
        self._wait_heap: List[Tuple[float, int, TaskInstance]] = []
        self._wait_seq: Dict[str, int] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------

    def run(self, max_events: Optional[int] = None,
            max_wall_s: Optional[float] = None,
            checkpoint_every_s: Optional[float] = None,
            checkpoint_dir: Optional[str] = None,
            snapshot_at_events: Optional[int] = None,
            ) -> SimulationResult:
        """Execute the scenario to completion.

        Args:
            max_events: watchdog event budget for this run (defaults to
                ``REPRO_MAX_EVENTS`` or the module runaway cap).
            max_wall_s: watchdog wall-clock budget in seconds (no limit
                when ``None``).
            checkpoint_every_s: write a rolling on-disk checkpoint
                (``checkpoint.json`` under ``checkpoint_dir``) whenever
                this much wall-clock time has passed since the last one.
                Checkpoints land only at batch boundaries, so each one
                resumes byte-identically.
            checkpoint_dir: directory for the rolling checkpoint
                (required with ``checkpoint_every_s``; created if
                missing).
            snapshot_at_events: capture one in-memory
                :class:`~repro.sim.snapshot.EngineSnapshot` into
                :attr:`last_snapshot` at the first batch boundary with
                at least this many events processed (test hook for the
                round-trip grid and the fuzzers).

        Exceeding either budget raises a diagnostic
        :class:`~repro.errors.SimulationError` whose ``snapshot``
        attribute carries the last-event engine state — a hung run
        fails fast with enough context to reproduce it.
        """
        start = time.perf_counter()
        self._apply_budgets(max_events, max_wall_s, start)
        self._setup_checkpoints(checkpoint_every_s, checkpoint_dir,
                                snapshot_at_events, start)
        self.scheduler.attach(self.soc)
        self._bind_native()
        self._dynamic_rates = self.scheduler.dynamic_rates
        self._resolve_rate_mode()
        self._process_timeline(initial=True)
        return self._finish_run(start)

    def resume_run(self, max_events: Optional[int] = None,
                   max_wall_s: Optional[float] = None,
                   checkpoint_every_s: Optional[float] = None,
                   checkpoint_dir: Optional[str] = None,
                   snapshot_at_events: Optional[int] = None,
                   ) -> SimulationResult:
        """Drive a snapshot-restored engine to completion.

        Same arguments and result as :meth:`run`, but without the
        scheduler re-attach and initial timeline processing — those
        already happened in the original run and their effects live in
        the restored state.  Only valid on an engine produced by
        :meth:`EngineSnapshot.resume`/:meth:`resume`.

        The returned result counts events and wall time from the resume
        point onward for the wall-clock keys, while every simulated
        metric (``metric_summary()``) is byte-identical to the
        uninterrupted run.
        """
        start = time.perf_counter()
        self._apply_budgets(max_events, max_wall_s, start)
        self._setup_checkpoints(checkpoint_every_s, checkpoint_dir,
                                snapshot_at_events, start)
        self._bind_native()
        self._resolve_rate_mode()
        return self._finish_run(start)

    def _bind_native(self) -> None:
        """Share this engine's native code with a CaMDN scheduler.

        The scheduler gets the C completion handler only when the
        engine runs the native batch loop, so ``use_native=False``, the
        ``kernel_backend`` pin and ``REPRO_NATIVE=0`` keep the whole
        run in Python.
        """
        bind = getattr(self.scheduler, "bind_native", None)
        if bind is not None:
            bind(native.camdn_advance() if self._batch is not None
                 else None)

    def _apply_budgets(self, max_events: Optional[int],
                       max_wall_s: Optional[float],
                       start: float) -> None:
        if max_events is not None:
            self._max_events = int(max_events)
        if max_wall_s is not None:
            self._deadline = start + float(max_wall_s)

    def _finish_run(self, start: float) -> SimulationResult:
        self._kernel_run_loop()
        # Balanced tenancy hooks: retire anything still admitted (e.g. a
        # stream whose leave time lies beyond the last completion).
        for stream_id in self.workload.unfinished_streams():
            self.scheduler.on_tenant_retire(stream_id, self.now)
        result = SimulationResult(
            scheduler_name=self.scheduler.name,
            sim_time_s=self.now,
            metrics=self.metrics,
            scheduler_stats=self.scheduler.stats(),
            wall_time_s=time.perf_counter() - start,
            events_processed=self.events_processed,
            offered_inferences=self.workload.offered_inferences,
            cancelled_inferences=self.cancelled,
            completed_inferences=self._completed,
            dropped_inferences=self.workload.dropped_inferences,
            offered_load_ratio=self._offered_load_ratio(),
            last_snapshot=self.last_snapshot,
        )
        # Cheap always-on accounting check (a handful of integer adds);
        # REPRO_CHECK_CONSERVATION=0 opts out.
        if os.environ.get("REPRO_CHECK_CONSERVATION", "1") != "0":
            result.check_conservation()
        return result

    # ------------------------------------------------------------------
    # Checkpoint / restore (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Capture the engine's complete state (batch boundary only —
        i.e. from the checkpoint hook, or on an engine that is not
        mid-``run``)."""
        from .snapshot import EngineSnapshot

        return EngineSnapshot.capture(self)

    @classmethod
    def resume(cls, snapshot, use_native: Optional[bool] = None,
               kernel_backend: Optional[str] = None,
               ) -> "MultiTenantEngine":
        """Reconstruct a runnable engine from an
        :class:`~repro.sim.snapshot.EngineSnapshot`; continue it with
        :meth:`resume_run`."""
        return snapshot.resume(use_native=use_native,
                               kernel_backend=kernel_backend)

    def _setup_checkpoints(self, every_s: Optional[float],
                           directory: Optional[str],
                           at_events: Optional[int],
                           start: float) -> None:
        self._checkpoint_hook = None
        self._checkpoint_every_s = None
        self._snapshot_at_events = None
        if at_events is not None:
            self._snapshot_at_events = int(at_events)
            self.last_snapshot = None
            self._checkpoint_hook = self._maybe_checkpoint
        if every_s is not None:
            if directory is None:
                raise ValueError(
                    "checkpoint_every_s requires checkpoint_dir"
                )
            self._checkpoint_every_s = float(every_s)
            self._checkpoint_dir = directory
            self._checkpoint_next = start + self._checkpoint_every_s
            self._checkpoint_hook = self._maybe_checkpoint

    def _maybe_checkpoint(self) -> None:
        """Checkpoint hook, called at every batch boundary (top of the
        outer event loop) when checkpointing is enabled."""
        at = self._snapshot_at_events
        if at is not None and self.last_snapshot is None \
                and self.events_processed >= at:
            self.last_snapshot = self.snapshot()
        if self._checkpoint_every_s is not None \
                and time.perf_counter() >= self._checkpoint_next:
            from pathlib import Path

            self.snapshot().save(
                Path(self._checkpoint_dir) / "checkpoint.json"
            )
            self.checkpoints_written += 1
            # Schedule from after the write: serialization time doesn't
            # eat into the next interval.
            self._checkpoint_next = \
                time.perf_counter() + self._checkpoint_every_s

    def _capture_state(self) -> dict:
        """All mutable run state, as one picklable dict (the payload of
        an :class:`~repro.sim.snapshot.EngineSnapshot`).

        Shared identities are preserved by pickling everything in one
        payload: instances reachable through the kernel, the active map,
        the wait heap and the queue are the same objects; the workload's
        event recorder is the engine's; the scheduler state's SoC is the
        engine's.  Pure memos (DRAM efficiencies, prepared models) are
        excluded and rebuild lazily with identical values.
        """
        scheduler = self.scheduler
        return {
            "soc": self.soc,
            "workload": self.workload,
            "metrics": self.metrics,
            "trace": self.trace,
            "event_recorder": self.event_recorder,
            "scheduler": {
                "name": scheduler.name,
                "state": scheduler.snapshot_state(),
            },
            "engine": {
                "now": self.now,
                "events_processed": self.events_processed,
                "cancelled": self.cancelled,
                "completed": self._completed,
                "queued": list(self._queued),
                "active": dict(self._active),
                "stream_active": dict(self._stream_active),
                "free_cores": self._free_cores,
                "core_grant": dict(self._core_grant),
                "total_bw": self._total_bw,
                "base_bw": self._base_bw,
                "bw_factors": dict(self._bw_factors),
                "cores_offline": dict(self._cores_offline),
                "offline_total": self._offline_total,
                "timeline_done": self._timeline_done,
                "faults_done": self._faults_done,
                "fault_runtime": self._fault_runtime,
                "waiting_set": dict(self._waiting_set),
                "wait_heap": list(self._wait_heap),
                "wait_seq": dict(self._wait_seq),
                "next_seq": self._next_seq,
                "rates_valid": self._rates_valid,
                "kernel_backend": self._kernel_backend,
                "kernel": self._kernel.export_state(),
            },
        }

    def _restore_state(self, payload: dict) -> None:
        """Install a :meth:`_capture_state` payload into a freshly
        constructed engine (the scheduler must already be attached and
        restored — :meth:`EngineSnapshot.resume` owns that order)."""
        eng = payload["engine"]
        self.metrics = payload["metrics"]
        self.now = eng["now"]
        self.events_processed = eng["events_processed"]
        self.cancelled = eng["cancelled"]
        self._completed = eng["completed"]
        self._queued = list(eng["queued"])
        self._active = dict(eng["active"])
        self._stream_active = dict(eng["stream_active"])
        self._free_cores = eng["free_cores"]
        self._core_grant = dict(eng["core_grant"])
        self._total_bw = eng["total_bw"]
        self._base_bw = eng["base_bw"]
        self._bw_factors = dict(eng["bw_factors"])
        self._cores_offline = dict(eng["cores_offline"])
        self._offline_total = eng["offline_total"]
        self._timeline_done = eng["timeline_done"]
        self._faults_done = eng["faults_done"]
        self._fault_runtime = eng["fault_runtime"]
        self._waiting_set = dict(eng["waiting_set"])
        self._wait_heap = list(eng["wait_heap"])
        self._wait_seq = dict(eng["wait_seq"])
        self._next_seq = eng["next_seq"]
        # Rates restore exactly (arrays + validity flag), reproducing
        # the uninterrupted run's arithmetic without a recompute.
        self._rates_valid = eng["rates_valid"]
        self._kernel.restore_state(eng["kernel"])
        # Pure memo: rebuilt on demand with identical values.
        self._dram_eff = {}

    def _offered_load_ratio(self) -> float:
        """Offered rate over the offer window vs completion rate over the
        whole run (see :attr:`SimulationResult.offered_load_ratio`).

        Closed-loop scenarios are self-clocked — arrivals exist only
        because completions happened — so their ratio is definitionally
        1.0.  With open-loop streams, the offer window is the scenario
        window (or, in count mode, the span over which arrivals were
        actually offered), making the ratio > 1 exactly when offered
        load outruns service capacity.
        """
        workload = self.workload
        if not workload.has_open_loop:
            return 1.0
        offered = workload.offered_inferences
        duration = workload.scenario.duration_s
        offer_window = duration if duration is not None \
            else workload.last_offer_s
        if offer_window <= 0 or self._completed <= 0 or self.now <= 0:
            return 1.0
        offered_rate = offered / offer_window
        completion_rate = self._completed / self.now
        return offered_rate / completion_rate

    # ------------------------------------------------------------------
    # Kernel event loop
    # ------------------------------------------------------------------

    def _kernel_run_loop(self) -> None:
        self._dispatch_queued()
        max_events = self._max_events
        deadline = self._deadline
        # The top of this loop is the engine's batch boundary: no batch
        # in flight, every due wakeup/timeline/fault/dispatch phase
        # drained for the current instant — the only place snapshots
        # capture (and therefore resume) exactly.
        checkpoint = self._checkpoint_hook
        while self._active or self._queued or not self._timeline_done \
                or not self._faults_done:
            if checkpoint is not None:
                checkpoint()
            if self.events_processed >= max_events:
                raise self._watchdog_error(
                    f"event cap exceeded ({max_events} events); "
                    "runaway simulation"
                )
            if deadline is not None and time.perf_counter() > deadline:
                raise self._watchdog_error("wall-clock budget exceeded")
            self._batch_run()
            # The batch returned because this event's remaining phases
            # need the slow machinery: due wakeups/timeline/fault
            # events, a queued dispatch, or a rate-mode change.
            if self._wait_heap:
                self._process_timeouts()
            if not self._faults_done:
                self._process_faults()
            if not self._timeline_done:
                self._process_timeline()
            if self._queued:
                self._dispatch_queued()

    def _watchdog_error(self, reason: str) -> SimulationError:
        """Build a diagnostic error carrying the last-event snapshot."""
        snapshot = {
            "now": self.now,
            "events_processed": self.events_processed,
            "active": len(self._active),
            "queued": len(self._queued),
            "waiting": len(self._waiting_set),
            "free_cores": self._free_cores,
            "next_wake_s": self._peek_wake_time(),
            "next_timeline_s": self.workload.next_timeline_s(),
            "next_fault_s": (
                math.inf if self._fault_runtime is None
                else self._fault_runtime.next_s()
            ),
            "active_ids": sorted(self._active)[:8],
        }
        err = SimulationError(f"watchdog: {reason}; snapshot: {snapshot}")
        err.snapshot = snapshot
        return err

    def _resolve_rate_mode(self) -> None:
        """Cache the policy's fusable rate rule for the current epoch.

        A policy advertising a fusable spec gets the fused
        recompute+step path (native when compiled, pure Python
        otherwise); anything else keeps the split
        ``_recompute_rates`` + ``kernel.step`` pair.  Supported specs
        (see :meth:`SchedulerPolicy.rate_kernel`):

        * ``("demand_prop", floor)``     -> mode 1
        * ``("slack_weighted", urgency, floor)`` -> mode 2
        * ``("slack_throttled", floor)`` -> mode 3

        The slack modes additionally switch the kernel's slack-input
        SoA tracking on (``configure_slack``), so per-instance deadline
        /est/progress inputs ride alongside the fluid arrays.
        Re-resolved whenever the policy bumps
        :attr:`~repro.schedulers.base.SchedulerPolicy.rate_epoch`.
        """
        scheduler = self.scheduler
        kernel = self._kernel
        self._rate_epoch_seen = scheduler.rate_epoch
        self._fused_mode = 0
        self._mode_floor = 0.0
        self._mode_urgency = 0.0
        if self._kernel_backend is not None:
            # A pinned kernel backend means the test wants the split
            # step implementation.
            kernel.configure_slack(False)
            return
        spec = scheduler.rate_kernel()
        if spec is None:
            kernel.configure_slack(False)
            return
        kind = spec[0]
        if kind == "demand_prop":
            self._fused_mode = 1
            self._mode_floor = float(spec[1])
            kernel.configure_slack(False)
        elif kind == "slack_weighted":
            self._fused_mode = 2
            self._mode_urgency = float(spec[1])
            self._mode_floor = float(spec[2])
            kernel.configure_slack(True, scheduler.est_isolated_latency_s)
        elif kind == "slack_throttled":
            self._fused_mode = 3
            self._mode_floor = float(spec[1])
            kernel.configure_slack(True, scheduler.est_isolated_latency_s)
        else:
            kernel.configure_slack(False)

    def _batch_run(self) -> None:
        """Process a run of events without leaving this frame.

        One iteration performs exactly the per-event sequence of the
        classic loop — rates, boundary clamp, step, completions — and
        returns as soon as any post-event phase (timeout, timeline,
        dispatch, epoch change) must run, leaving that work to the
        caller.  With native code, one ``batch_loop`` call runs whole
        stretches of those iterations, including the layer completions
        the policy's completion table covers
        (:meth:`~repro.schedulers.base.SchedulerPolicy.native_batch_args`),
        and hands back the completions it declines; with a
        :class:`~repro.sim.trace.TraceRecorder` attached it hands back
        every completion, so the trace spans stay in Python.  Without
        native code, a fusable rate rule collapses the rates-recompute
        and the kernel step into one Python fused call per event;
        otherwise the split pair runs.  All paths are bit-identical.
        """
        kernel = self._kernel
        insts = kernel.insts
        workload = self.workload
        scheduler = self.scheduler
        if scheduler.rate_epoch != self._rate_epoch_seen:
            # A dispatch/tenant hook outside the batch changed the rate
            # rule (e.g. MoCA's first finite-deadline task arrived).
            self._resolve_rate_mode()
        step = kernel.step
        fused_py = kernel.fused_step_demand
        fused_slack_py = kernel.fused_step_slack
        dram_eff = self._dram_eff
        freq = self._freq
        total_bw = self._total_bw
        dynamic = self._dynamic_rates
        wait_heap = self._wait_heap
        epoch = self._rate_epoch_seen
        fused_mode = self._fused_mode
        floor = self._mode_floor
        urgency = self._mode_urgency
        max_events = self._max_events
        # The C loop recomputes the fused modes' rates per event; in
        # mode 0 it steps at the rates installed last, which only a
        # policy whose rates change with membership alone may keep
        # across completions.
        batch = self._batch
        if not fused_mode and dynamic:
            batch = None
        tables = scheduler.native_batch_args if self.trace is None else None
        # The next fault instant is constant inside a batch: actions are
        # only consumed by _process_faults, which runs between batches.
        fault_next = math.inf
        if not self._faults_done:
            fault_next = self._fault_runtime.next_s()
        n_eff = -1
        eff = 0.0
        while True:
            wait_dt = math.inf
            wake = math.inf
            if wait_heap:
                wake = self._peek_wake_time()
                if not math.isinf(wake):
                    wait_dt = wake - self.now
                    if wait_dt < 0.0:
                        wait_dt = 0.0
            timeline_s = math.inf
            if not self._timeline_done:
                timeline_s = workload.next_timeline_s()
                if math.isinf(timeline_s):
                    self._timeline_done = True
                    if not self._active and not self._queued:
                        return
                elif timeline_s - self.now < wait_dt:
                    wait_dt = timeline_s - self.now
                    if wait_dt < 0.0:
                        wait_dt = 0.0
            if fault_next - self.now < wait_dt:
                wait_dt = fault_next - self.now
                if wait_dt < 0.0:
                    wait_dt = 0.0
            n = len(insts)
            if fused_mode and n != n_eff:
                try:
                    eff = dram_eff[n]
                except KeyError:
                    eff = scheduler.dram_efficiency(n)
                    dram_eff[n] = eff
                n_eff = n
            out = None
            if batch is not None and n:
                if not fused_mode and not self._rates_valid:
                    self._recompute_rates()
                out = batch(
                    insts, kernel.rem_c, kernel.rem_d, kernel.rate_c,
                    kernel.rate_d, kernel.sl_arrival, kernel.sl_qos,
                    kernel.sl_est, kernel.sl_progress, fused_mode, freq,
                    total_bw, eff, floor, urgency, self.now, wake,
                    timeline_s, fault_next, self.events_processed,
                    max_events, self._queued, self._waiting_set,
                    None if tables is None else tables(),
                )
            if out is not None:
                # ``handled`` events ran in C; ``finished`` is None when
                # the last one ended the batch, else the completions it
                # declined (empty: the next event needs this loop).
                handled, self.now, lbm, finished = out
                self.events_processed += handled
                if lbm:
                    scheduler.add_lbm_layers(lbm)
                if dynamic:
                    self._rates_valid = False
                if finished is None:
                    return
            else:
                res = None
                if fused_mode and n:
                    if fused_mode == 1:
                        res = fused_py(wait_dt, freq, total_bw, eff, floor)
                    else:
                        res = fused_slack_py(
                            wait_dt, freq, total_bw, eff, floor,
                            urgency, self.now, fused_mode == 3,
                        )
                if res is None:
                    # Split path: the exact pre-batch per-event
                    # machinery (also the fallback for inputs outside
                    # the fused fast-path shape).
                    if not self._rates_valid:
                        self._recompute_rates()
                    dt, finished = step(wait_dt)
                else:
                    dt, finished = res
                if math.isinf(dt):
                    raise SimulationError(
                        "deadlock: active instances but no future event"
                    )
                if dt < 0:
                    raise SimulationError(f"negative time step {dt}")
                self.now += dt
                if dynamic and insts:
                    self._rates_valid = False
                self.events_processed += 1
            if finished:
                self._process_completions(finished)
                if scheduler.rate_epoch != epoch:
                    self._resolve_rate_mode()
                    return
                if self._queued:
                    return
            if wait_heap and \
                    self._peek_wake_time() - self.now <= _WAKE_EPS:
                return
            if not self._timeline_done and \
                    workload.next_timeline_s() - self.now <= _WAKE_EPS:
                return
            if fault_next - self.now <= _WAKE_EPS:
                return
            if not self._active:
                return
            if self.events_processed >= max_events:
                return

    def _recompute_rates(self) -> None:
        """Install per-position rates from the policy's shares.

        The DRAM rate is clamped to >= 1e-6 bytes/s here — once, at the
        single place rates are produced — so the min-dt search and the
        fluid advance always use the same (finite-progress) rate.
        """
        kernel = self._kernel
        insts = kernel.insts
        n = len(insts)
        if not n:
            kernel.set_rates([], [])
            self._rates_valid = True
            return
        rem_c, rem_d = kernel.rem_c, kernel.rem_d
        shares = self._shares_fn(insts, rem_c, rem_d, self.now)
        total_bw = self._total_bw
        rate_c = [self._freq] * n
        if min(shares) <= 0:
            for i in range(n):
                if shares[i] <= 0 and rem_d[i] > 0:
                    raise SimulationError(
                        f"{insts[i].instance_id} has pending DRAM work "
                        f"but zero bandwidth"
                    )
        try:
            efficiency = self._dram_eff[n]
        except KeyError:
            efficiency = self.scheduler.dram_efficiency(n)
            self._dram_eff[n] = efficiency
        rate_d = [
            r if (r := total_bw * s * efficiency) > 1e-6 else 1e-6
            for s in shares
        ]
        kernel.set_rates(rate_c, rate_d)
        self._rates_valid = True

    # ------------------------------------------------------------------
    # Explicit rate-invalidation notifications
    # ------------------------------------------------------------------

    def _notify_membership_change(self) -> None:
        """The RUNNING set gained or lost a member: shares always change
        (equal splits, demand pools and DRAM efficiency all depend on
        membership)."""
        self._rates_valid = False

    def _notify_work_change(self, inst: TaskInstance) -> None:
        """A running instance started a new layer.  Only policies whose
        shares track task progress care; membership-only policies keep
        their cached rates."""
        if self.scheduler.dynamic_rates:
            self._rates_valid = False

    # ------------------------------------------------------------------
    # Wait heap (lazy invalidation)
    # ------------------------------------------------------------------

    def _push_waiter(self, inst: TaskInstance) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._wait_seq[inst.instance_id] = seq
        heappush(self._wait_heap, (inst.wake_time, seq, inst))

    def _peek_wake_time(self) -> float:
        """Earliest live wakeup (inf when none); pops stale entries."""
        heap = self._wait_heap
        while heap:
            wake, seq, inst = heap[0]
            if self._wait_seq.get(inst.instance_id) == seq:
                return wake
            heappop(heap)
        return math.inf

    # ------------------------------------------------------------------
    # Scenario timeline (admissions, open-loop arrivals, departures)
    # ------------------------------------------------------------------

    def _process_timeline(self, initial: bool = False) -> None:
        """Admit tenants, deliver scheduled arrivals and retire departing
        tenants whose timeline events are due."""
        workload = self.workload
        if not initial and \
                workload.next_timeline_s() - self.now > _WAKE_EPS:
            return
        batch = workload.pop_due(self.now)
        scheduler = self.scheduler
        for stream_id in batch.admits:
            scheduler.on_tenant_admit(
                stream_id, workload.graph_of(stream_id), self.now
            )
        if batch.instances:
            self._enqueue(batch.instances)
        for stream_id in batch.leaves:
            self._retire_stream(stream_id)
        self._flush_retired()

    def _enqueue(self, instances: List[TaskInstance]) -> None:
        for inst in instances:
            self._stream_active[inst.stream_id] = inst.instance_id
            self._queued.append(inst)

    def _retire_stream(self, stream_id: str) -> None:
        """Preemptive departure: abort the in-flight inference (if any),
        release its cores and cache state, then fire the tenant hook."""
        iid = self._stream_active.pop(stream_id, None)
        if iid is not None:
            inst = self._active.get(iid)
            if inst is not None:
                self._cancel_instance(inst)
            else:
                # Still queued for a core: withdraw it (the scheduler
                # never saw it, so no task-end hook) but count the
                # cancellation — it was offered and will never complete,
                # keeping offered == completed + cancelled + dropped.
                before = len(self._queued)
                self._queued = [
                    q for q in self._queued if q.instance_id != iid
                ]
                withdrawn = before - len(self._queued)
                self.cancelled += withdrawn
                if withdrawn and self.event_recorder is not None:
                    self.event_recorder.record(
                        "cancel", self.now, stream_id, iid
                    )
        self.scheduler.on_tenant_retire(stream_id, self.now)

    def _cancel_instance(self, inst: TaskInstance) -> None:
        """Abort an admitted instance mid-inference.

        The scheduler's task-end hook runs so per-task state (cache
        pages, regions, demand bookkeeping) is released exactly as on a
        normal completion; the instance is not recorded in metrics.
        """
        iid = inst.instance_id
        inst.state = InstanceState.CANCELLED
        inst.finish_time = self.now
        self.scheduler.on_task_end(inst, self.now)
        self._free_cores += self._core_grant.pop(iid)
        del self._active[iid]
        if iid in self._kernel.pos:
            self._kernel.remove(inst)
        self._waiting_set.pop(iid, None)
        self._wait_seq.pop(iid, None)
        self.cancelled += 1
        if self.event_recorder is not None:
            self.event_recorder.record(
                "cancel", self.now, inst.stream_id, iid
            )
        self._notify_membership_change()
        if self._waiting_set:
            self._poll_waiting()

    def _flush_retired(self) -> None:
        """Fire tenant-retire hooks for naturally-finished streams."""
        for stream_id in self.workload.take_retired():
            self._stream_active.pop(stream_id, None)
            self.scheduler.on_tenant_retire(stream_id, self.now)

    # ------------------------------------------------------------------
    # Fault injection (see repro.sim.faults)
    # ------------------------------------------------------------------

    def _process_faults(self) -> None:
        """Apply every fault onset/expiry due at the current instant."""
        runtime = self._fault_runtime
        if runtime.next_s() - self.now > _WAKE_EPS:
            return
        applied = False
        for seq, phase, event in runtime.pop_due(self.now):
            self._apply_fault(seq, phase, event)
            applied = True
        if runtime.exhausted:
            self._faults_done = True
        if applied:
            # Any fault can reshape rates (bandwidth, membership, cache
            # geometry): force the batch to re-resolve the rate rule and
            # re-cache its constants (total_bw in particular).
            self.scheduler.bump_rate_epoch()
            self._rates_valid = False

    def _apply_fault(self, seq: int, phase: int,
                     event: FaultEvent) -> None:
        onset = phase == ONSET
        if self.event_recorder is not None:
            self.event_recorder.record(
                "fault", self.now, f"{event.kind}@{seq}",
                "onset" if onset else "expiry",
            )
        kind = event.kind
        if kind == DRAM_DEGRADE:
            if onset:
                self._bw_factors[seq] = event.bw_factor
            else:
                self._bw_factors.pop(seq, None)
            # Overlapping windows compose multiplicatively; reduce in
            # seq order so the product is deterministic.
            factor = 1.0
            for s in sorted(self._bw_factors):
                factor *= self._bw_factors[s]
            self._total_bw = self._base_bw * factor
        elif kind == CORE_OFFLINE:
            if onset:
                applied = min(
                    event.cores,
                    self.soc.num_npu_cores - self._offline_total,
                )
                self._cores_offline[seq] = applied
                self._offline_total += applied
                self._free_cores -= applied
                while self._free_cores < 0 and self._active:
                    self._preempt_last_dispatched()
            else:
                applied = self._cores_offline.pop(seq, 0)
                self._offline_total -= applied
                self._free_cores += applied
            self.scheduler.on_capacity_change(
                self.soc.num_npu_cores - self._offline_total, self.now
            )
        elif kind == PAGE_RETIRE:
            # Permanent: the schedule seed and event seq salt the RNG so
            # the same pages retire on every engine path and backend.
            rng_key = (
                f"page-retire:{self._fault_runtime.spec.seed}:{seq}"
            )
            self.scheduler.on_pages_retired(event.pages, rng_key,
                                            self.now)
        else:  # TENANT_STALL
            workload = self.workload
            if onset:
                for stream_id in self._stall_targets(event):
                    workload.stall_stream(stream_id)
            else:
                for stream_id in self._stall_targets(event):
                    self._enqueue(
                        workload.resume_stream(stream_id, self.now)
                    )
                self._flush_retired()

    def _stall_targets(self, event: FaultEvent) -> List[str]:
        streams = self.workload.streams
        if event.stream_index is None:
            return list(streams)
        return [streams[event.stream_index % len(streams)]]

    def _preempt_last_dispatched(self) -> None:
        """Core-offline preemption: abort the most recently dispatched
        instance — its pages and region release through ``on_task_end``
        exactly like a preemptive departure — then re-offer the
        stream's next inference, which queues until capacity returns."""
        inst = next(reversed(self._active.values()))
        stream_id = inst.stream_id
        self._cancel_instance(inst)
        self._stream_active.pop(stream_id, None)
        next_inst = self.workload.next_instance(stream_id, self.now)
        if next_inst is not None:
            self._stream_active[stream_id] = next_inst.instance_id
            self._queued.append(next_inst)
        else:
            self._flush_retired()

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def _process_completions(self, finished_pos: List[int]) -> None:
        kernel = self._kernel
        scheduler = self.scheduler
        trace = self.trace
        now = self.now
        # Sync fluid state while positions are valid, then snapshot by
        # reference: handling a completion can reshape the kernel (task
        # finish, page wait), invalidating positions.
        finished = kernel.take_finished(finished_pos)
        advance = self._advance_layer
        for inst in finished:
            if trace is not None:
                trace.end(inst.instance_id, now,
                          dram_bytes=inst.work.dram_bytes)
            # Inlined TaskInstance.account_layer (hot path; a completed
            # layer always has work installed).
            work = inst.work
            inst.dram_bytes_total += work.dram_bytes
            inst.hit_bytes_total += work.hit_bytes
            inst.access_bytes_total += work.access_bytes
            inst.layers_executed += 1
            if advance is not None and \
                    inst.layer_index + 1 < len(inst.graph.layers):
                # Fused end-of-layer + next-layer selection: one
                # scheduler call per completion (identical semantics to
                # on_layer_end -> layer_index += 1 -> begin_layer).
                work, timeout = advance(inst, now)
                self._apply_grant(inst, work, timeout)
                continue
            scheduler.on_layer_end(inst, now)
            inst.layer_index += 1
            if inst.layer_index >= len(inst.graph.layers):
                self._finish_instance(inst)
            else:
                work, timeout = scheduler.begin_layer(inst, now)
                self._apply_grant(inst, work, timeout)
        if self._waiting_set:
            self._poll_waiting()

    def _finish_instance(self, inst: TaskInstance) -> None:
        inst.state = InstanceState.DONE
        inst.finish_time = self.now
        self.scheduler.on_task_end(inst, self.now)
        self._free_cores += self._core_grant.pop(inst.instance_id)
        del self._active[inst.instance_id]
        if inst.instance_id in self._kernel.pos:
            self._kernel.remove(inst)
        self._waiting_set.pop(inst.instance_id, None)
        self._wait_seq.pop(inst.instance_id, None)
        self._notify_membership_change()
        self._completed += 1
        if self.event_recorder is not None:
            self.event_recorder.record(
                "completion", self.now, inst.stream_id,
                inst.instance_id,
            )
        if not self.workload.is_warmup(inst):
            self.metrics.record(inst)
        stream_id = inst.stream_id
        next_inst = self.workload.next_instance(stream_id, self.now)
        if next_inst is not None:
            self._stream_active[stream_id] = next_inst.instance_id
            self._queued.append(next_inst)
        else:
            self._stream_active.pop(stream_id, None)
            self._flush_retired()

    def _begin_layer(self, inst: TaskInstance) -> None:
        work, timeout = self.scheduler.begin_layer(inst, self.now)
        self._apply_grant(inst, work, timeout)

    def _apply_grant(self, inst: TaskInstance, work, timeout: float
                     ) -> None:
        kernel = self._kernel
        iid = inst.instance_id
        if work is None:
            inst.state = InstanceState.WAITING_PAGES
            if math.isinf(timeout):
                raise SimulationError(
                    f"{iid}: ungranted wait with no timeout"
                )
            inst.wake_time = self.now + max(timeout, 0.0)
            if iid in kernel.pos:
                kernel.remove(inst)
                self._notify_membership_change()
            self._waiting_set[iid] = inst
            self._push_waiter(inst)
            if self.trace is not None:
                from .trace import SpanKind

                self.trace.begin(iid, SpanKind.WAIT_PAGES,
                                 inst.layer_index, self.now)
        else:
            # Inlined TaskInstance.begin_work (hot path).
            inst.work = work
            inst.rem_compute_cycles = work.compute_cycles
            inst.rem_dram_bytes = work.dram_bytes
            inst.state = InstanceState.RUNNING
            inst.wake_time = math.inf
            if self._waiting_set and \
                    self._waiting_set.pop(iid, None) is not None:
                self._wait_seq.pop(iid, None)
            pos = kernel.pos.get(iid)
            if pos is not None:
                kernel.set_work(inst, pos)
                # Work-change notification, inlined: only share policies
                # that track task progress care (see
                # _notify_work_change).
                if self._dynamic_rates:
                    self._rates_valid = False
            else:
                kernel.add(inst)
                self._notify_membership_change()
            if inst.start_time is None:
                inst.start_time = self.now
            if self.trace is not None:
                from .trace import SpanKind

                self.trace.begin(iid, SpanKind.LAYER,
                                 inst.layer_index, self.now)

    def _poll_waiting(self) -> None:
        for inst in list(self._waiting_set.values()):
            work, timeout = self.scheduler.poll_layer(inst, self.now)
            if work is not None:
                self._apply_grant(inst, work, timeout)
            # An unsuccessful poll must NOT reset the wake timer, or a
            # frequently-polled task would never reach its timeout and
            # would wait for pages indefinitely instead of downgrading.

    def _process_timeouts(self) -> None:
        if self._peek_wake_time() - self.now > _WAKE_EPS:
            return
        now = self.now
        due = [inst for inst in self._waiting_set.values()
               if inst.wake_time - now <= _WAKE_EPS]
        for inst in due:
            work, timeout = self.scheduler.timeout_layer(inst, self.now)
            self._apply_grant(inst, work, timeout)

    def _dispatch_queued(self) -> None:
        still_queued: List[TaskInstance] = []
        for inst in self._queued:
            cores = self.scheduler.cores_for(inst, self._free_cores)
            if 0 < cores <= self._free_cores:
                self._free_cores -= cores
                inst.cores = cores
                self._core_grant[inst.instance_id] = cores
                self._active[inst.instance_id] = inst
                if self.event_recorder is not None:
                    self.event_recorder.record(
                        "dispatch", self.now, inst.stream_id,
                        inst.instance_id,
                    )
                self.scheduler.on_task_start(inst, self.now)
                self._begin_layer(inst)
            else:
                still_queued.append(inst)
        self._queued = still_queued
