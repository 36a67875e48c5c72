"""AuRORA baseline (Kim et al., MICRO 2023).

AuRORA virtualizes the accelerator pool: it co-allocates NPU cores and
memory bandwidth toward per-tenant latency targets.  Behaviourally:

* bandwidth follows a slack-weighted allocation — tenants behind their
  deadline get exponentially boosted shares (which is how AuRORA reaches
  high SLA rates at a fairness cost under tight targets, reproduced in
  Figure 9);
* a tenant whose isolated latency estimate is too close to its target is
  granted a second core when one is free; without CaMDN's multicast, the
  extra core replicates part of the traffic.

The shared cache remains transparent and unmanaged, exactly the gap CaMDN
attacks.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..memory.bwalloc import SlackWeightedPolicy
from ..sim.task import TaskInstance
from .moca import MoCAScheduler

#: Grant a second core when estimated isolated latency exceeds this
#: fraction of the QoS target.
_CORE_BOOST_THRESHOLD = 0.7

#: Upper bound on cores per tenant (AuRORA's fission granularity here).
_MAX_CORES = 2


class AuRORAScheduler(MoCAScheduler):
    """Slack-driven NPU + bandwidth co-allocation, transparent cache."""

    name = "aurora"

    def __init__(self, urgency: float = 3.0, floor: float = 0.02,
                 allow_multi_core: bool = True) -> None:
        super().__init__(floor=floor)
        self._bw_policy = SlackWeightedPolicy(urgency=urgency, floor=floor)
        self.allow_multi_core = allow_multi_core

    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state.update(
            slack_bw_policy=self._bw_policy,
            allow_multi_core=self.allow_multi_core,
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._bw_policy = state["slack_bw_policy"]
        self.allow_multi_core = state["allow_multi_core"]

    # ------------------------------------------------------------------

    def cores_for(self, instance: TaskInstance, free_cores: int) -> int:
        if not self.allow_multi_core or free_cores < 2:
            return 1
        if instance.qos_target_s == float("inf"):
            return 1
        est = self.est_isolated_latency_s(instance)
        if est > _CORE_BOOST_THRESHOLD * instance.qos_target_s:
            return min(_MAX_CORES, free_cores)
        return 1

    def rate_kernel(self):
        """Always the slack-weighted spec: the exponential weight
        applies even when every slack is the no-deadline 1.0 (which is
        not float-identical to the plain demand-proportional split MoCA
        degenerates to, so AuRORA never returns ``demand_prop``)."""
        return (
            "slack_weighted",
            self._bw_policy.urgency,
            self._bw_policy.floor,
        )

    def bandwidth_shares(
        self,
        insts: Sequence[TaskInstance],
        rem_compute: Sequence[float],
        rem_dram: Sequence[float],
        now: float,
    ) -> List[float]:
        """Slack-weighted shares over MoCA's demands (without the
        throttle): tasks behind their deadline get exponentially
        boosted shares."""
        if not insts:
            return []
        freq = self.soc.npu.frequency_hz
        slack_of = self.slack_of
        est_of = self.est_isolated_latency_s
        demands = []
        slacks = []
        for inst, rem_c, rem_d in zip(insts, rem_compute, rem_dram):
            compute_s = max(rem_c / freq, 1e-9)
            demands.append(max(rem_d, 1.0) / compute_s)
            if math.isinf(inst.qos_target_s):
                slacks.append(1.0)
            else:
                slacks.append(slack_of(inst, now, est_of(inst)))
        return self._bw_policy.allocate(demands, slacks)
