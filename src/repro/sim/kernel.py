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

The engine has two step paths.  The Python reference is the split
step: :meth:`RunningKernel.step` over the rates the engine installs
from the policy's
:meth:`~repro.schedulers.base.SchedulerPolicy.bandwidth_shares`.  The
native batch loop transcribes it, and the two are bit-identical
because every operation is element-wise IEEE-754 double arithmetic in
the same expression shape, the event-time reduction is a ``min``
(exact in any order), and every share total adds left to right in
insertion order (:func:`~repro.numeric.left_sum`).

Insertion order is load-bearing: completion processing and bandwidth-share
normalization must observe instances in insertion order (the frozen
reference summaries were captured under that order), so positions are
compacted (never reused out of order) on every membership change.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import SimulationError

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
        # Slack-input SoA arrays for the native loop's slack rate modes
        # (see configure_slack).  Maintained alongside the fluid arrays
        # only while such a mode is active, so every other run pays one
        # boolean test per membership change and nothing else.
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
    # Slack-input maintenance (the native slack rate modes)
    # ------------------------------------------------------------------

    def _slack_append(self, inst: "TaskInstance") -> None:
        self.sl_arrival.append(inst.arrival_time)
        self.sl_qos.append(inst.qos_target_s)
        self.sl_est.append(self._est_fn(inst))
        self.sl_progress.append(
            inst.layer_index / max(inst.num_layers, 1)
        )

    def configure_slack(self, enabled: bool, est_fn=None) -> None:
        """Enable/disable slack-input tracking for the native slack modes.

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
            # Slack-input SoA state for the native slack modes; the
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
