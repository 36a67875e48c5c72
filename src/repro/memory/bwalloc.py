"""Memory bandwidth allocation policies.

The baselines the paper compares against are bandwidth-centric schedulers:

* MoCA partitions bandwidth among co-located DNNs according to their memory
  access requirements (demand-proportional with QoS-slack boosts);
* AuRORA co-allocates bandwidth and NPU cores toward latency targets
  (slack-weighted).

These policies are pure functions from per-task demand/slack lists to
fractional shares in the same order, summing to at most 1, so both the
fluid simulator and the unit tests can exercise them directly.  Every
total accumulates left to right (:func:`~repro.numeric.left_sum`), the
order the engine's fused steppers transcribe.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..errors import SimulationError
from ..numeric import left_sum


class DemandProportionalPolicy:
    """MoCA-style: shares proportional to memory-access requirements.

    Tasks that move more bytes per unit time get proportionally more
    bandwidth; a floor keeps light tasks from starving.
    """

    def __init__(self, floor: float = 0.02) -> None:
        if not 0 <= floor < 1:
            raise SimulationError("floor must be in [0, 1)")
        self.floor = floor

    def allocate(self, demands: Sequence[float]) -> List[float]:
        """Shares aligned with ``demands`` (bytes/s each task could
        consume); an all-zero demand set splits equally."""
        if not demands:
            return []
        n = len(demands)
        floor_total = self.floor * n if self.floor * n < 1 else 0.0
        remaining = 1.0 - floor_total
        base = self.floor if floor_total else 0.0
        if min(demands) >= 0:
            # All-non-negative fast path: max(d, 0.0) is the identity, so
            # the clamped and unclamped totals/ratios are the same floats.
            total_demand = left_sum(demands)
            if total_demand > 0:
                return [
                    base + remaining * (d / total_demand)
                    for d in demands
                ]
        total_demand = left_sum([max(d, 0.0) for d in demands])
        return [
            base + remaining * (
                max(d, 0.0) / total_demand if total_demand > 0
                else 1.0 / n
            )
            for d in demands
        ]


class SlackWeightedPolicy:
    """AuRORA-style: tasks behind their latency target get boosted shares.

    Slack is ``(target - predicted_latency) / target``; negative slack means
    the task is missing its deadline.  Weights grow exponentially as slack
    shrinks, so badly-behind tasks dominate the allocation — the behaviour
    that lets AuRORA reach high SLA rates at some fairness cost (a result
    the paper reproduces in Figure 9).
    """

    def __init__(self, urgency: float = 3.0, floor: float = 0.02) -> None:
        if urgency <= 0:
            raise SimulationError("urgency must be positive")
        if not 0 <= floor < 1:
            raise SimulationError("floor must be in [0, 1)")
        self.urgency = urgency
        self.floor = floor

    def allocate(self, demands: Sequence[float],
                 slacks: Sequence[float]) -> List[float]:
        """Shares aligned with ``demands``; ``slacks`` (same order) sets
        each task's exponential boost."""
        if not demands:
            return []
        # Clamp slack to ±20: a hopelessly late task should dominate but
        # not overflow the exponential (slack <= 0 -> weight >= 1;
        # generous slack -> weight ~ 0+).
        weights = [
            max(d, 1.0) * math.exp(
                -self.urgency * min(max(s, -20.0), 20.0)
            )
            for d, s in zip(demands, slacks)
        ]
        total = left_sum(weights)
        n = len(weights)
        floor_total = self.floor * n if self.floor * n < 1 else 0.0
        remaining = 1.0 - floor_total
        base = self.floor if floor_total else 0.0
        return [base + remaining * w / total for w in weights]
