"""Structure-of-arrays kernel for the engine's per-event hot path.

The fluid engine spends almost all of its event-loop time on three
operations over the RUNNING set: finding the next event time (a min over
per-instance layer-completion times), draining fluid work (two clamped
subtractions per instance), and scanning for finished layers.  Doing those
through per-instance Python method calls costs a dict iteration plus
several attribute lookups per instance per event.

:class:`RunningKernel` hoists the per-instance fluid state
(``rem_compute_cycles`` / ``rem_dram_bytes`` and the applied rates) into
flat parallel Python lists ordered by running-set insertion order, so
the three hot operations become tight loops.  The running set never
outgrows the SoC's NPU core count (16 on the paper's Table II SoC) — an
instance runs only while it holds a core — so plain list loops are the
right tool; the native C stepper (:mod:`repro.sim.native`) reads and
writes these same lists.

The split step (:meth:`RunningKernel.step` over the rates the engine
installs from the policy's
:meth:`~repro.schedulers.base.SchedulerPolicy.bandwidth_shares`), the
pure-Python fused twins (:meth:`RunningKernel.fused_step_demand` /
:meth:`RunningKernel.fused_step_slack`) and the native fused step are
bit-identical because every operation is element-wise IEEE-754 double
arithmetic in the same expression shape, the event-time reduction is a
``min`` (exact in any order), and every share total adds left to right
in insertion order (:func:`~repro.numeric.left_sum`).

Insertion order is load-bearing: completion processing and bandwidth-share
normalization must observe instances in insertion order (the frozen
reference summaries were captured under that order), so positions are
compacted (never reused out of order) on every membership change.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import SimulationError
from ..numeric import left_sum

if TYPE_CHECKING:
    from .task import TaskInstance

#: A layer is finished once both remaining streams are at or below this.
_FINISH_EPS = 1e-9


class RunningKernel:
    """Flat fluid-state arrays for the engine's running set."""

    __slots__ = (
        "insts", "pos", "rem_c", "rem_d", "rate_c", "rate_d",
        "sl_arrival", "sl_qos", "sl_est", "sl_progress",
        "_slack_on", "_est_fn",
    )

    def __init__(self) -> None:
        #: Running instances in insertion order.
        self.insts: List["TaskInstance"] = []
        #: instance_id -> position in :attr:`insts`.
        self.pos: Dict[str, int] = {}
        # Parallel per-position state.
        self.rem_c: List[float] = []
        self.rem_d: List[float] = []
        self.rate_c: List[float] = []
        self.rate_d: List[float] = []
        # Slack-input SoA arrays for the fused slack-weighted rate
        # kernels (see configure_slack).  Maintained alongside the fluid
        # arrays only while a slack-aware fused mode is active, so
        # demand-prop/static runs pay one boolean test per membership
        # change and nothing else.
        self.sl_arrival: List[float] = []
        self.sl_qos: List[float] = []
        self.sl_est: List[float] = []
        self.sl_progress: List[float] = []
        self._slack_on = False
        self._est_fn: Optional[Callable] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.insts)

    def add(self, inst: "TaskInstance") -> None:
        """Append a newly RUNNING instance (rates pending recompute)."""
        self.pos[inst.instance_id] = len(self.insts)
        self.insts.append(inst)
        self.rem_c.append(inst.rem_compute_cycles)
        self.rem_d.append(inst.rem_dram_bytes)
        self.rate_c.append(0.0)
        self.rate_d.append(0.0)
        if self._slack_on:
            self._slack_append(inst)

    def remove(self, inst: "TaskInstance") -> None:
        """Drop an instance, writing its fluid state back to it."""
        i = self.pos.pop(inst.instance_id)
        inst.rem_compute_cycles = self.rem_c[i]
        inst.rem_dram_bytes = self.rem_d[i]
        del self.insts[i]
        del self.rem_c[i]
        del self.rem_d[i]
        del self.rate_c[i]
        del self.rate_d[i]
        if self._slack_on:
            del self.sl_arrival[i]
            del self.sl_qos[i]
            del self.sl_est[i]
            del self.sl_progress[i]
        for j in range(i, len(self.insts)):
            self.pos[self.insts[j].instance_id] = j

    def set_work(self, inst: "TaskInstance",
                 pos: Optional[int] = None) -> None:
        """Refresh an instance's remaining work after ``begin_work``.

        ``pos`` skips the position lookup when the caller already has it.
        """
        i = self.pos[inst.instance_id] if pos is None else pos
        self.rem_c[i] = inst.rem_compute_cycles
        self.rem_d[i] = inst.rem_dram_bytes
        if self._slack_on:
            self.sl_progress[i] = (
                inst.layer_index / max(inst.num_layers, 1)
            )

    def set_rates(self, rate_c: List[float], rate_d: List[float]) -> None:
        """Install per-position rates (aligned with :attr:`insts`)."""
        self.rate_c = rate_c
        self.rate_d = rate_d

    # ------------------------------------------------------------------
    # Slack-input maintenance (fused slack-weighted rate kernels)
    # ------------------------------------------------------------------

    def _slack_append(self, inst: "TaskInstance") -> None:
        self.sl_arrival.append(inst.arrival_time)
        self.sl_qos.append(inst.qos_target_s)
        self.sl_est.append(self._est_fn(inst))
        self.sl_progress.append(
            inst.layer_index / max(inst.num_layers, 1)
        )

    def configure_slack(self, enabled: bool, est_fn=None) -> None:
        """Enable/disable slack-input tracking for the fused slack modes.

        ``est_fn(inst)`` must return the estimated isolated latency used
        by :meth:`SchedulerPolicy.slack_of` — a pure function of the
        instance's graph, so the stored value never goes stale.  The
        per-instance inputs (``arrival_time``, ``qos_target_s``, est,
        and layer progress) are maintained in SoA arrays mirroring
        :attr:`insts`; progress refreshes on every :meth:`set_work`.

        Enabling when already enabled is a cheap no-op (the arrays stay
        — every element is a pure function of its instance, so they
        cannot be stale).  Enabling from scratch rebuilds from the
        current running set.
        """
        if not enabled:
            if self._slack_on:
                self._slack_on = False
                self._est_fn = None
                self.sl_arrival = []
                self.sl_qos = []
                self.sl_est = []
                self.sl_progress = []
            return
        if self._slack_on:
            self._est_fn = est_fn
            return
        self._slack_on = True
        self._est_fn = est_fn
        self.sl_arrival = []
        self.sl_qos = []
        self.sl_est = []
        self.sl_progress = []
        for inst in self.insts:
            self._slack_append(inst)

    def take_finished(self, positions: List[int]) -> List["TaskInstance"]:
        """Write the given positions' fluid state back and return their
        instances (positions must be current, i.e. pre-mutation)."""
        insts = self.insts
        out = []
        append = out.append
        rem_c, rem_d = self.rem_c, self.rem_d
        for i in positions:
            inst = insts[i]
            inst.rem_compute_cycles = rem_c[i]
            inst.rem_dram_bytes = rem_d[i]
            append(inst)
        return out

    # ------------------------------------------------------------------
    # Hot kernels
    # ------------------------------------------------------------------

    def step(self, wait_dt: float) -> Tuple[float, List[int]]:
        """Fused event step: pick the next event time and drain to it.

        ``wait_dt`` is the (already clamped, non-negative) time to the
        earliest waiting-set wakeup, or inf when nobody waits.  Returns
        ``(dt, finished_positions)``; when ``dt`` is inf (nothing running
        and nobody waking) no state is touched and the caller reports the
        deadlock.

        The event time is, per instance, ``max(rem_c / rate_c, rem_d /
        rate_d)`` (a zero remainder divides to exactly ``+0.0``), reduced
        with an exact min and clamped by ``wait_dt``.  The drain is
        ``rem = max(rem - dt * rate, 0.0)`` on both streams, and an
        instance finishes when both remainders are at or below
        ``_FINISH_EPS``; finished positions come back in insertion order.
        """
        dt = float("inf")
        rem_c, rem_d = self.rem_c, self.rem_d
        rate_c, rate_d = self.rate_c, self.rate_d
        # zip iteration: one tuple unpack per instance instead of four
        # list indexings (same arithmetic, same order).
        for c, rc, d, rd in zip(rem_c, rate_c, rem_d, rate_d):
            t_c = c / rc
            t_d = d / rd
            t = t_c if t_c >= t_d else t_d
            if t < dt:
                dt = t
        if wait_dt < dt:
            dt = wait_dt
        if dt == float("inf"):
            return dt, []
        if dt < 0:
            raise SimulationError(f"negative time step {dt}")
        finished: List[int] = []
        append = finished.append
        for i, (c0, rc, d0, rd) in enumerate(
            zip(rem_c, rate_c, rem_d, rate_d)
        ):
            c = c0 - dt * rc
            if c < 0.0:
                c = 0.0
            rem_c[i] = c
            d = d0 - dt * rd
            if d < 0.0:
                d = 0.0
            rem_d[i] = d
            if c <= _FINISH_EPS and d <= _FINISH_EPS:
                append(i)
        return dt, finished

    def fused_step_demand(self, wait_dt: float, freq: float,
                          total_bw: float, eff: float, floor: float):
        """Fused demand-proportional event step (pure-Python twin of the
        native ``_batchstep.fused_step`` in mode ``DEMAND_PROP``).

        Recomputes the demand-proportional DRAM rates from the remaining
        work, finds the next event time and drains the fluid work, in
        one pass structure — every expression transcribes the exact
        shape of ``CaMDNSchedulerBase.bandwidth_shares`` (non-QoS
        branch, through ``DemandProportionalPolicy.allocate``),
        ``MultiTenantEngine._recompute_rates`` and :meth:`step`, so the
        results are bit-identical to the split path.  The compute rate
        of every instance is ``freq``.

        Returns ``(dt, finished_positions_or_None)``; ``None`` (the
        whole call) means the inputs fall outside the fast-path shape
        (non-positive demand total) and the caller must run the split
        path for this event.  ``dt`` may be ``inf`` (idle/deadlock) or
        negative (corrupt state) — both are returned untouched, state
        unmodified, for the caller to report.
        """
        rem_c, rem_d = self.rem_c, self.rem_d
        n = len(rem_c)
        demands = [
            (d if d > 1.0 else 1.0)
            / (t if (t := c / freq) > 1e-9 else 1e-9)
            for c, d in zip(rem_c, rem_d)
        ]
        total = left_sum(demands)
        if n and not total > 0.0:
            return None
        floor_total = floor * n if floor * n < 1 else 0.0
        base = floor if floor_total else 0.0
        remaining = 1.0 - floor_total
        dt = float("inf")
        rate_d: List[float] = []
        append_rate = rate_d.append
        for c, d, demand in zip(rem_c, rem_d, demands):
            s = base + remaining * (demand / total)
            r = total_bw * s * eff
            if not r > 1e-6:
                r = 1e-6
            append_rate(r)
            t_c = c / freq
            t_d = d / r
            t = t_c if t_c >= t_d else t_d
            if t < dt:
                dt = t
        if wait_dt < dt:
            dt = wait_dt
        if dt == float("inf") or dt < 0:
            return dt, None
        finished: Optional[List[int]] = None
        for i in range(n):
            c = rem_c[i] - dt * freq
            if c < 0.0:
                c = 0.0
            rem_c[i] = c
            d = rem_d[i] - dt * rate_d[i]
            if d < 0.0:
                d = 0.0
            rem_d[i] = d
            if c <= _FINISH_EPS and d <= _FINISH_EPS:
                if finished is None:
                    finished = [i]
                else:
                    finished.append(i)
        return dt, finished

    def fused_step_slack(self, wait_dt: float, freq: float,
                         total_bw: float, eff: float, floor: float,
                         urgency: float, now: float, throttled: bool):
        """Fused slack-aware event step (pure-Python twin of the native
        ``_batchstep.fused_step`` in modes ``SLACK_WEIGHTED`` /
        ``SLACK_THROTTLED``).

        ``throttled=False`` transcribes the slack-weighted share rule
        (``AuRORAScheduler.bandwidth_shares`` →
        ``SlackWeightedPolicy.allocate``, also the CaMDN QoS branch):
        ``weight = max(demand, 1.0) * exp(-urgency * clamp(slack,
        ±20))`` normalized as ``base + remaining * w / total``.

        ``throttled=True`` transcribes MoCA's finite-deadline branch
        (``MoCAScheduler.bandwidth_shares`` →
        ``DemandProportionalPolicy.allocate`` non-negative fast path):
        demands halved when ``slack > 0.5``, normalized as ``base +
        remaining * (d / total)``.

        Slack inputs come from the SoA arrays maintained under
        :meth:`configure_slack`; every expression keeps the exact
        IEEE-754 shape of ``SchedulerPolicy.slack_of`` and the policies'
        share rules, so results are bit-identical to the split path.
        Return protocol matches :meth:`fused_step_demand`.
        """
        rem_c, rem_d = self.rem_c, self.rem_d
        arrival, qos = self.sl_arrival, self.sl_qos
        est, progress = self.sl_est, self.sl_progress
        n = len(rem_c)
        isinf = math.isinf
        exp = math.exp
        weights: List[float] = []
        append_w = weights.append
        for i in range(n):
            d = rem_d[i]
            t = rem_c[i] / freq
            # max(rem_d, 1.0) / max(rem_c / freq, 1e-9)
            demand = (d if d > 1.0 else 1.0) / (t if t > 1e-9 else 1e-9)
            q = qos[i]
            if isinf(q):
                slack = 1.0
            else:
                a = arrival[i]
                expected_finish = a + (
                    est[i] * (1.0 - progress[i])
                ) + (now - a)
                slack = (a + q - expected_finish) / q
            if throttled:
                # MoCA: halve the demand of comfortably-ahead tenants.
                if slack > 0.5:
                    demand *= 0.5
                append_w(demand)
            else:
                # clamp = min(max(slack, -20.0), 20.0) — equal-value
                # branches return the same float either way.
                s = slack if slack > -20.0 else -20.0
                s = s if s < 20.0 else 20.0
                append_w(
                    (demand if demand > 1.0 else 1.0) * exp(-urgency * s)
                )
        total = left_sum(weights)
        if n and not total > 0.0:
            return None
        floor_total = floor * n if floor * n < 1 else 0.0
        base = floor if floor_total else 0.0
        remaining = 1.0 - floor_total
        dt = float("inf")
        rate_d: List[float] = []
        append_rate = rate_d.append
        for c, d, w in zip(rem_c, rem_d, weights):
            if throttled:
                s = base + remaining * (w / total)
            else:
                s = base + remaining * w / total
            r = total_bw * s * eff
            if not r > 1e-6:
                r = 1e-6
            append_rate(r)
            t_c = c / freq
            t_d = d / r
            t = t_c if t_c >= t_d else t_d
            if t < dt:
                dt = t
        if wait_dt < dt:
            dt = wait_dt
        if dt == float("inf") or dt < 0:
            return dt, None
        finished: Optional[List[int]] = None
        for i in range(n):
            c = rem_c[i] - dt * freq
            if c < 0.0:
                c = 0.0
            rem_c[i] = c
            d = rem_d[i] - dt * rate_d[i]
            if d < 0.0:
                d = 0.0
            rem_d[i] = d
            if c <= _FINISH_EPS and d <= _FINISH_EPS:
                if finished is None:
                    finished = [i]
                else:
                    finished.append(i)
        return dt, finished

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Picklable logical state, read-only (the live kernel is not
        touched — safe to call mid-run at a batch boundary)."""
        return {
            "insts": list(self.insts),
            "pos": dict(self.pos),
            "rem_c": list(self.rem_c),
            "rem_d": list(self.rem_d),
            "rate_c": list(self.rate_c),
            "rate_d": list(self.rate_d),
            # Slack-input SoA state for the fused slack modes; the
            # est_fn binding is not picklable and is re-installed by the
            # engine's rate-mode resolution on resume.
            "slack_on": self._slack_on,
            "sl_arrival": list(self.sl_arrival),
            "sl_qos": list(self.sl_qos),
            "sl_est": list(self.sl_est),
            "sl_progress": list(self.sl_progress),
        }

    def restore_state(self, state: dict) -> None:
        """Install :meth:`export_state` output (keys it does not write,
        such as the retired ``use_np`` / ``force_backend``, are
        ignored)."""
        self.insts = list(state["insts"])
        self.pos = dict(state["pos"])
        self.rem_c = list(state["rem_c"])
        self.rem_d = list(state["rem_d"])
        self.rate_c = list(state["rate_c"])
        self.rate_d = list(state["rate_d"])
        # Pre-slack snapshots (no "slack_on" key) restore with tracking
        # off; the engine's rate-mode resolution rebuilds the arrays
        # from the running set if the policy needs them.
        self._slack_on = bool(state.get("slack_on", False))
        self._est_fn = None
        if self._slack_on:
            self.sl_arrival = list(state["sl_arrival"])
            self.sl_qos = list(state["sl_qos"])
            self.sl_est = list(state["sl_est"])
            self.sl_progress = list(state["sl_progress"])
        else:
            self.sl_arrival = []
            self.sl_qos = []
            self.sl_est = []
            self.sl_progress = []
