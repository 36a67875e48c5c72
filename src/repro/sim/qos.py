"""QoS metrics (Figure 9): SLA satisfaction, STP and fairness.

Definitions follow AuRORA (Kim et al., MICRO 2023), as the paper does:

* **SLA satisfaction rate** — fraction of inferences finishing within
  their (scaled) latency target.
* **System throughput (STP)** — sum over tenants of normalized progress
  ``NP_i = T_isolated_i / T_shared_i`` (weighted-speedup form).
* **Fairness** — ``min_{i,j} NP_i / NP_j``: the worst pairwise equality of
  progress among co-running tenants.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..errors import SimulationError
from .metrics import MetricsCollector


def sla_rate(metrics: MetricsCollector) -> float:
    """Fraction of measured inferences that met their deadline."""
    if not metrics.records:
        raise SimulationError("no measured inferences")
    met = sum(1 for r in metrics.records if r.met_deadline)
    return met / len(metrics.records)


def _normalized_progress(
    metrics: MetricsCollector,
    isolated_latency_s: Mapping[str, float],
) -> Dict[str, float]:
    """Per-stream ``T_isolated / T_shared`` (shared = mean latency)."""
    by_stream: Dict[str, list] = {}
    for rec in metrics.records:
        by_stream.setdefault(rec.stream_id, []).append(rec.latency_s)
    progress: Dict[str, float] = {}
    for stream_id, latencies in by_stream.items():
        model = stream_id.split("@", 1)[0]
        if model not in isolated_latency_s:
            raise SimulationError(
                f"no isolated latency for model {model!r}"
            )
        shared = sum(latencies) / len(latencies)
        if shared <= 0:
            raise SimulationError(f"{stream_id}: non-positive latency")
        progress[stream_id] = isolated_latency_s[model] / shared
    return progress


def system_throughput(
    metrics: MetricsCollector,
    isolated_latency_s: Mapping[str, float],
) -> float:
    """STP: sum of per-stream normalized progress."""
    return sum(_normalized_progress(metrics, isolated_latency_s).values())


def fairness(
    metrics: MetricsCollector,
    isolated_latency_s: Mapping[str, float],
) -> float:
    """Fairness: worst pairwise ratio of normalized progress."""
    progress = _normalized_progress(metrics, isolated_latency_s)
    if not progress:
        raise SimulationError("no streams to compare")
    values = list(progress.values())
    return min(values) / max(values)
