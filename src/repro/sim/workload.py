"""Multi-tenant workload generation.

:class:`ScenarioWorkload` is the runtime that drives any
:class:`~repro.sim.scenario.ScenarioSpec` through the engine: it owns
the time-ordered timeline of scheduled events (tenant joins, open-loop
arrivals, tenant leaves), the per-stream FIFO backlogs that serialize
open-loop arrivals behind an in-flight inference, and the measurement-
window bookkeeping.  :func:`random_model_mix` draws the seeded tenant
mixes of the paper's scaling experiments.

The paper's experiments "randomly dispatch each model task to one NPU as
soon as it finishes its current task" — that closed-loop shape is
:meth:`ScenarioSpec.closed_loop <repro.sim.scenario.ScenarioSpec.closed_loop>`
(one ``ArrivalProcess.closed_loop()`` stream per model); open-loop and
churn scenarios generalize it (see :mod:`repro.sim.scenario`).
"""

from __future__ import annotations

import math
import random
from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from ..errors import WorkloadError
from ..models.graph import ModelGraph
from ..models.zoo import BENCHMARK_MODELS, build_model
from .scenario import ScenarioSpec, StreamSpec
from .task import TaskInstance
from .trace import ARRIVAL, DROP, JOIN, LEAVE, EventTraceRecorder

#: Timeline event priorities at equal timestamps: a joining tenant is
#: admitted before arrivals fire, and departures are processed last (a
#: completion at the same instant is handled by the engine first).
_JOIN, _ARRIVAL, _LEAVE = 0, 1, 2

#: Tolerance for "a timeline event is due" checks (mirrors the engine's
#: wait-heap epsilon; ``now`` accumulates float error against exact
#: event timestamps).
_DUE_EPS = 1e-12


def random_model_mix(num_streams: int,
                     seed: int = 2025) -> List[str]:
    """A random multiset of benchmark models for ``num_streams`` tenants.

    The first ``min(num_streams, 8)`` streams cover distinct models (so
    per-model metrics exist); extras are drawn uniformly at random.
    """
    if num_streams <= 0:
        raise WorkloadError("num_streams must be positive")
    rng = random.Random(seed)
    keys = list(BENCHMARK_MODELS[:num_streams])
    while len(keys) < num_streams:
        keys.append(rng.choice(BENCHMARK_MODELS))
    return keys


class TimelineBatch(NamedTuple):
    """Due timeline events popped by :meth:`ScenarioWorkload.pop_due`."""

    admits: List[str]
    instances: List[TaskInstance]
    leaves: List[str]


class _StreamState:
    """Mutable per-stream runtime (private to :class:`ScenarioWorkload`)."""

    __slots__ = (
        "spec", "stream_id", "index", "graph", "dispatched", "generated",
        "busy", "joined", "left", "finished", "stalled", "backlog",
        "arrivals",
    )

    def __init__(self, spec: StreamSpec, stream_id: str, index: int,
                 graph: ModelGraph) -> None:
        self.spec = spec
        self.stream_id = stream_id
        self.index = index
        self.graph = graph
        self.dispatched = 0      # instances spawned (serial counter)
        self.generated = 0       # open-loop arrivals offered
        self.busy = False        # an inference is in flight / enqueued
        self.joined = False
        self.left = False
        self.finished = False
        self.stalled = False     # tenant-stall fault: not offering
        self.backlog: Deque[float] = deque()
        self.arrivals = None     # open-loop arrival-time iterator


class ScenarioWorkload:
    """Runtime driving one :class:`ScenarioSpec` through the engine.

    The engine interacts through five methods:

    * :meth:`pop_due` — admissions, scheduled arrivals and departures due
      at (or before) the current simulated time, in timeline order.
    * :meth:`next_timeline_s` — earliest pending scheduled event (``inf``
      when the timeline is exhausted; pure closed-loop scenarios exhaust
      it at t=0, so the engine's hot loop never pays for it).
    * :meth:`next_instance` — completion-coupled dispatch: the stream's
      next closed-loop inference, or its earliest backlogged open-loop
      arrival.
    * :meth:`is_warmup` — measurement-window membership of an instance.
    * :meth:`take_retired` — streams that finished naturally since the
      last call (quota exhausted / window closed / arrivals drained), so
      the engine can fire the scheduler's tenant-retire hook.
    """

    def __init__(self, scenario: ScenarioSpec,
                 recorder: Optional[EventTraceRecorder] = None) -> None:
        self.scenario = scenario
        #: Optional event-trace capture (joins / arrivals / drops /
        #: leaves are recorded here, at exact scheduled timestamps).
        self.recorder = recorder
        self.streams: List[str] = [
            f"{s.model}@{i}" for i, s in enumerate(scenario.streams)
        ]
        self._graphs: Dict[str, ModelGraph] = {}
        self._rt: Dict[str, _StreamState] = {}
        self._by_index: List[_StreamState] = []
        self._heap: List[Tuple[float, int, int]] = []
        #: Cached earliest live timeline event time (None: recompute).
        #: The engine's batch loop peeks the timeline up to twice per
        #: event, so the heap-top validation is memoized and invalidated
        #: at every mutation (pops, new arrivals, stream finishes).
        self._timeline_next: Optional[float] = None
        self._retired: List[str] = []
        self._offered = 0
        self._dropped = 0
        self._last_offer_s = 0.0
        self.has_open_loop = any(
            s.arrival.is_open_loop for s in scenario.streams
        )
        duration = scenario.duration_s
        for i, (stream_id, spec) in enumerate(
            zip(self.streams, scenario.streams)
        ):
            graph = build_model(spec.model)
            self._graphs[stream_id] = graph
            rt = _StreamState(spec, stream_id, i, graph)
            self._rt[stream_id] = rt
            self._by_index.append(rt)
            heappush(self._heap, (spec.join_s, _JOIN, i))
            if spec.leave_s is not None:
                heappush(self._heap, (spec.leave_s, _LEAVE, i))
            if spec.arrival.is_open_loop:
                end = duration if duration is not None else math.inf
                if spec.leave_s is not None:
                    end = min(end, spec.leave_s)
                rt.arrivals = spec.arrival.arrival_times(
                    i, spec.join_s, end
                )

    # ------------------------------------------------------------------
    # Engine-facing accessors
    # ------------------------------------------------------------------

    def graph_of(self, stream_id: str) -> ModelGraph:
        return self._graphs[stream_id]

    @property
    def offered_inferences(self) -> int:
        """Arrivals offered so far (dispatched + backlogged + dropped)."""
        return self._offered

    @property
    def dropped_inferences(self) -> int:
        """Backlogged arrivals discarded by tenant departures."""
        return self._dropped

    @property
    def last_offer_s(self) -> float:
        """Time of the latest offered arrival (count-mode offer window)."""
        return self._last_offer_s

    def next_timeline_s(self) -> float:
        """Earliest live scheduled event time (``inf`` when exhausted)."""
        t = self._timeline_next
        if t is not None:
            return t
        heap = self._heap
        while heap:
            t, prio, index = heap[0]
            rt = self._by_index[index]
            if rt.finished or rt.left:
                heappop(heap)       # stale: stream already gone
                continue
            self._timeline_next = t
            return t
        self._timeline_next = math.inf
        return math.inf

    def pop_due(self, now: float) -> TimelineBatch:
        """Process every scheduled event with ``time <= now`` (within the
        engine's epsilon) and return the resulting batch."""
        admits: List[str] = []
        instances: List[TaskInstance] = []
        leaves: List[str] = []
        heap = self._heap
        while heap and heap[0][0] - now <= _DUE_EPS:
            t, prio, index = heappop(heap)
            rt = self._by_index[index]
            if rt.finished or rt.left:
                continue
            if prio == _JOIN:
                rt.joined = True
                admits.append(rt.stream_id)
                if self.recorder is not None:
                    self.recorder.record(JOIN, t, rt.stream_id)
                if rt.spec.arrival.is_open_loop:
                    # Prime the first arrival; the while condition picks
                    # it up in this same batch if it is already due.
                    self._push_next_arrival(rt)
                else:
                    instances.append(self._spawn(rt, t))
            elif prio == _ARRIVAL:
                if rt.stalled:
                    # Stalled source: the arrival is never offered (it
                    # does not count toward offered/quota and is not
                    # backlogged) but the chain stays primed so the
                    # stream resumes offering when the stall expires.
                    self._push_next_arrival(rt)
                    continue
                self._offered += 1
                rt.generated += 1
                if self.recorder is not None:
                    self.recorder.record(ARRIVAL, t, rt.stream_id)
                if t > self._last_offer_s:
                    self._last_offer_s = t
                if rt.busy:
                    rt.backlog.append(t)
                else:
                    instances.append(self._spawn(rt, t, arrival_time=t))
                self._push_next_arrival(rt)
            else:  # _LEAVE
                rt.left = True
                rt.finished = True
                self._dropped += len(rt.backlog)
                if self.recorder is not None:
                    for _ in rt.backlog:
                        self.recorder.record(DROP, t, rt.stream_id)
                    self.recorder.record(LEAVE, t, rt.stream_id)
                rt.backlog.clear()
                leaves.append(rt.stream_id)
        self._timeline_next = None
        return TimelineBatch(admits, instances, leaves)

    def next_instance(self, stream_id: str,
                      now: float) -> Optional[TaskInstance]:
        """Completion-coupled dispatch for ``stream_id``.

        Closed-loop streams dispatch their next inference (quota and
        window permitting); open-loop streams drain their arrival
        backlog.  Returns ``None`` when the stream has nothing to run —
        if it can never run again, it is queued for tenant retirement
        (see :meth:`take_retired`).
        """
        rt = self._rt[stream_id]
        spec = rt.spec
        if rt.left:
            rt.busy = False
            return None
        if spec.arrival.is_open_loop:
            if rt.backlog:
                t = rt.backlog.popleft()
                return self._spawn(rt, now, arrival_time=t)
            rt.busy = False
            if self._open_loop_drained(rt):
                self._finish(rt)
            return None
        if rt.stalled:
            # Stalled closed-loop source: the completion does not couple
            # to a new dispatch.  The stream stays joined and idle;
            # resume_stream re-offers when the stall expires.
            rt.busy = False
            return None
        if spec.leave_s is not None and now >= spec.leave_s:
            rt.busy = False
            self._finish(rt)
            return None
        duration = self.scenario.duration_s
        if duration is not None:
            if now >= duration:
                rt.busy = False
                self._finish(rt)
                return None
            return self._spawn(rt, now)
        if rt.dispatched >= spec.quota:
            rt.busy = False
            self._finish(rt)
            return None
        return self._spawn(rt, now)

    def is_warmup(self, instance: TaskInstance) -> bool:
        """Instances outside the measurement window are excluded.

        Steady-state mode measures every inference *arriving* inside the
        window.  Judging by finish time instead would silently drop slow
        models whose latency exceeds the window remainder — a survivorship
        bias that makes crowded systems look faster.  Arrived inferences
        always complete (streams stop dispatching after the window and the
        engine drains), so no measured latency is truncated.
        """
        if self.scenario.duration_s is not None:
            in_window = (
                self.scenario.warmup_s <= instance.arrival_time
                < self.scenario.duration_s
            )
            return not in_window
        serial = int(instance.instance_id.rsplit("#", 1)[1])
        rt = self._rt[instance.stream_id]
        return serial < rt.spec.warmup_inferences

    def take_retired(self) -> List[str]:
        """Streams that finished naturally since the last call."""
        if not self._retired:
            return []
        retired = self._retired
        self._retired = []
        return retired

    def unfinished_streams(self) -> List[str]:
        """Joined streams not yet finished (end-of-run retire sweep)."""
        return [
            rt.stream_id for rt in self._by_index
            if rt.joined and not rt.finished
        ]

    # ------------------------------------------------------------------
    # Tenant-stall faults (see repro.sim.faults)
    # ------------------------------------------------------------------

    def stall_stream(self, stream_id: str) -> None:
        """Tenant-stall onset: the stream stops offering arrivals.

        In-flight and backlogged work is unaffected (a stalled source,
        not a departure); a stream that already left or finished is a
        no-op.
        """
        rt = self._rt[stream_id]
        if rt.left or rt.finished:
            return
        rt.stalled = True

    def resume_stream(self, stream_id: str,
                      now: float) -> List[TaskInstance]:
        """Tenant-stall expiry: the stream resumes offering arrivals.

        Open-loop streams resume from their (still-primed) arrival
        chain on their own.  An idle closed-loop stream lost its
        completion coupling during the stall, so its next inference is
        re-offered here — window, departure and quota checks included —
        and returned for the engine to enqueue.
        """
        rt = self._rt[stream_id]
        if not rt.stalled:
            return []
        rt.stalled = False
        if rt.left or rt.finished or not rt.joined or rt.busy:
            return []
        spec = rt.spec
        if spec.arrival.is_open_loop:
            if rt.backlog:
                t = rt.backlog.popleft()
                return [self._spawn(rt, now, arrival_time=t)]
            return []
        if spec.leave_s is not None and now >= spec.leave_s:
            self._finish(rt)
            return []
        duration = self.scenario.duration_s
        if duration is not None:
            if now >= duration:
                self._finish(rt)
                return []
            return [self._spawn(rt, now)]
        if rt.dispatched >= spec.quota:
            self._finish(rt)
            return []
        return [self._spawn(rt, now)]

    # ------------------------------------------------------------------

    def _open_loop_drained(self, rt: _StreamState) -> bool:
        """No backlog, no future arrivals: the stream can never run."""
        if rt.backlog:
            return False
        spec = rt.spec
        if spec.quota is not None and rt.generated >= spec.quota:
            return True
        # Future arrivals exist iff an ARRIVAL entry is still pending for
        # this stream (there is at most one; _push_next_arrival keeps it
        # primed while the generator yields).
        return all(
            not (prio == _ARRIVAL and index == rt.index)
            for _, prio, index in self._heap
        )

    def _push_next_arrival(self, rt: _StreamState) -> None:
        spec = rt.spec
        if rt.arrivals is None or rt.left:
            return
        if spec.quota is not None and rt.generated >= spec.quota:
            rt.arrivals = None
            return
        try:
            t = next(rt.arrivals)
        except StopIteration:
            rt.arrivals = None
            return
        heappush(self._heap, (t, _ARRIVAL, rt.index))
        self._timeline_next = None

    def _finish(self, rt: _StreamState) -> None:
        if not rt.finished and rt.joined:
            rt.finished = True
            # The stream's pending heap entries (if any) just went
            # stale; a cached peek may now point at a dead event.
            self._timeline_next = None
            self._retired.append(rt.stream_id)

    def _spawn(self, rt: _StreamState, now: float,
               arrival_time: Optional[float] = None) -> TaskInstance:
        # Open-loop arrivals are counted as offered when they are
        # generated (they may be backlogged or dropped before spawning);
        # closed-loop dispatches are offered at spawn time.
        if not rt.spec.arrival.is_open_loop:
            self._offered += 1
            if self.recorder is not None:
                self.recorder.record(ARRIVAL, now, rt.stream_id)
        graph = rt.graph
        serial = rt.dispatched
        rt.dispatched += 1
        rt.busy = True
        qos_s = (
            graph.qos_target_ms * 1e-3 * rt.spec.qos_scale
            if graph.qos_target_ms else float("inf")
        )
        return TaskInstance(
            instance_id=f"{rt.stream_id}#{serial}",
            stream_id=rt.stream_id,
            graph=graph,
            arrival_time=now if arrival_time is None else arrival_time,
            qos_target_s=qos_s,
        )
