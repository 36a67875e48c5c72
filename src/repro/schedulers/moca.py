"""MoCA baseline (Kim et al., HPCA 2023).

MoCA is memory-centric: it dynamically partitions DRAM bandwidth among
co-located DNNs "according to their memory access requirements" while
leaving the shared cache unmanaged.  Our behavioural re-implementation
keeps the transparent-cache traffic model of the unmanaged baseline and
replaces the equal bandwidth split with a demand-proportional allocation
boosted by QoS slack (MoCA throttles tenants that are comfortably ahead of
their targets).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..memory.bwalloc import DemandProportionalPolicy
from ..sim.task import TaskInstance
from .shared_baseline import SharedCacheBaseline

#: Bandwidth partitioning restores part of the row locality (each tenant
#: gets contiguous service windows at the memory controller).
_MOCA_EFF_FLOOR = 0.70
_MOCA_EFF_LOCALITY_BONUS = 0.15


class MoCAScheduler(SharedCacheBaseline):
    """Demand-proportional bandwidth partitioning over a transparent
    cache."""

    name = "moca"

    #: Demand-proportional shares track each task's remaining layer work,
    #: which drains continuously — rates change at every event.
    dynamic_rates = True

    def __init__(self, floor: float = 0.02) -> None:
        super().__init__()
        self._policy = DemandProportionalPolicy(floor=floor)
        # Active tasks with a finite deadline; when zero, the slack
        # throttle degenerates to halving every demand, which cancels
        # out of the proportional allocation (see bandwidth_shares).
        self._finite_qos_active = 0
        # Admitted tenants whose model carries a latency target.
        self._deadline_tenants = 0

    def attach(self, soc) -> None:
        super().attach(soc)
        self._finite_qos_active = 0
        self._deadline_tenants = 0

    # ------------------------------------------------------------------
    # Tenant lifecycle: MoCA's slack throttle only matters for tenants
    # whose models carry a latency target, so track that census alongside
    # the baseline's prepared-artifact warm-up.
    # ------------------------------------------------------------------

    def on_tenant_admit(self, stream_id: str, graph, now: float) -> None:
        super().on_tenant_admit(stream_id, graph, now)
        if graph.qos_target_ms:
            self._deadline_tenants += 1

    def on_tenant_retire(self, stream_id: str, now: float) -> None:
        graph = self._tenants.get(stream_id)
        super().on_tenant_retire(stream_id, now)
        if graph is not None and graph.qos_target_ms:
            self._deadline_tenants -= 1

    def stats(self):
        stats = super().stats()
        stats["deadline_tenants"] = float(self._deadline_tenants)
        return stats

    def snapshot_state(self) -> dict:
        # _policy carries constructor config (the floor), which a
        # default-constructed scheduler would not know — ship it too.
        state = super().snapshot_state()
        state.update(
            bw_floor_policy=self._policy,
            finite_qos_active=self._finite_qos_active,
            deadline_tenants=self._deadline_tenants,
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._policy = state["bw_floor_policy"]
        self._finite_qos_active = state["finite_qos_active"]
        self._deadline_tenants = state["deadline_tenants"]

    def on_task_start(self, instance: TaskInstance, now: float) -> None:
        super().on_task_start(instance, now)
        if not math.isinf(instance.qos_target_s):
            self._finite_qos_active += 1
            if self._finite_qos_active == 1:
                # The slack throttle just woke up: the share rule is no
                # longer plain demand-proportional.
                self.bump_rate_epoch()

    def on_task_end(self, instance: TaskInstance, now: float) -> None:
        super().on_task_end(instance, now)
        if not math.isinf(instance.qos_target_s):
            self._finite_qos_active -= 1
            if self._finite_qos_active == 0:
                self.bump_rate_epoch()

    def dram_efficiency(self, num_running: int) -> float:
        return _MOCA_EFF_FLOOR + _MOCA_EFF_LOCALITY_BONUS / max(
            num_running, 1
        )

    # ------------------------------------------------------------------

    def rate_kernel(self):
        """With no finite-deadline task active, the slack throttle
        cancels out of the proportional allocation (see
        :meth:`bandwidth_shares`) and the rule is plain
        demand-proportional; with the throttle awake the rule is the
        slack-throttled spec (demands halved when slack > 0.5, then
        demand-proportional).  Both are fusable.  The epoch bumps in
        the task hooks re-trigger resolution at each transition."""
        if self._finite_qos_active:
            return ("slack_throttled", self._policy.floor)
        return ("demand_prop", self._policy.floor)

    def bandwidth_shares(
        self,
        insts: Sequence[TaskInstance],
        rem_compute: Sequence[float],
        rem_dram: Sequence[float],
        now: float,
    ) -> List[float]:
        """Demand-proportional shares.  A task's demand is the bytes/s
        it could consume: remaining layer DRAM work over the layer's
        compute-bound time (memory-bound layers demand more than their
        fair share), halved for tasks comfortably ahead of their
        deadline."""
        if not insts:
            return []
        freq = self.soc.npu.frequency_hz
        if not self._finite_qos_active:
            # No deadlines anywhere: every slack is 1.0 > 0.5, so the
            # throttle halves every demand.  Halving all demands scales
            # the proportional total by exactly 0.5 (power-of-two, no
            # rounding), leaving every quotient — and thus every share —
            # bit-identical, so skip it.
            demands = [
                max(rem_d, 1.0) / max(rem_c / freq, 1e-9)
                for rem_c, rem_d in zip(rem_compute, rem_dram)
            ]
            return self._policy.allocate(demands)
        slack_of = self.slack_of
        est_of = self.est_isolated_latency_s
        demands = []
        for inst, rem_c, rem_d in zip(insts, rem_compute, rem_dram):
            compute_s = max(rem_c / freq, 1e-9)
            demand = max(rem_d, 1.0) / compute_s
            # MoCA throttles tenants with generous slack: halve the
            # demand of tasks more than 50 % ahead of their deadline.
            if math.isinf(inst.qos_target_s):
                slack = 1.0
            else:
                slack = slack_of(inst, now, est_of(inst))
            if slack > 0.5:
                demand *= 0.5
            demands.append(demand)
        return self._policy.allocate(demands)
