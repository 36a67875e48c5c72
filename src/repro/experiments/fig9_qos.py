"""Figure 9: QoS comparison (SLA satisfaction, STP, fairness).

Following the paper (and AuRORA), three QoS levels scale the Table I
latency targets: QoS-H = 0.8x, QoS-M = 1.0x, QoS-L = 1.2x.  CaMDN runs
with AuRORA's bandwidth and NPU allocation on top of its cache scheduling
(``qos_mode=True``).  The paper reports average improvements of 5.9x SLA,
2.5x STP and 3.0x fairness over the baselines, with AuRORA showing lower
fairness than MoCA under the tightened targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SoCConfig
from ..models.zoo import BENCHMARK_MODELS
from ..sim.qos import fairness, sla_rate, system_throughput
from .common import isolated_latencies
from .sweep import SweepCell, run_sweep

#: QoS levels: label -> latency-target multiplier.
QOS_LEVELS: Tuple[Tuple[str, float], ...] = (
    ("QoS-H", 0.8),
    ("QoS-M", 1.0),
    ("QoS-L", 1.2),
)

#: Policies compared in Figure 9.
QOS_POLICIES: Tuple[str, ...] = ("moca", "aurora", "camdn-full")

#: 16 streams over the benchmark suite (all NPUs occupied).
QOS_WORKLOAD = tuple(BENCHMARK_MODELS) * 2


@dataclass(frozen=True)
class Fig9Row:
    """One (policy, QoS level) cell."""

    policy: str
    qos_level: str
    qos_scale: float
    sla: float
    stp: float
    fairness: float


def run_fig9(scale: float = 1.0,
             model_keys: Sequence[str] = QOS_WORKLOAD,
             jobs: Optional[int] = None,
             use_cache: bool = True) -> List[Fig9Row]:
    """Regenerate the Figure 9 QoS comparison."""
    soc = SoCConfig()
    isolated = isolated_latencies(model_keys, soc, use_cache=use_cache)
    grid = [
        (policy, level, qos_scale)
        for policy in QOS_POLICIES
        for level, qos_scale in QOS_LEVELS
    ]
    cells = [
        SweepCell(
            policy=policy,
            model_keys=tuple(model_keys),
            qos_scale=qos_scale,
            qos_mode=True,
            scale=scale,
        )
        for policy, _, qos_scale in grid
    ]
    results = run_sweep(cells, soc=soc, max_workers=jobs,
                        use_cache=use_cache)
    rows: List[Fig9Row] = []
    for (policy, level, qos_scale), result in zip(grid, results):
        rows.append(
            Fig9Row(
                policy=policy,
                qos_level=level,
                qos_scale=qos_scale,
                sla=sla_rate(result.metrics),
                stp=system_throughput(result.metrics, isolated),
                fairness=fairness(result.metrics, isolated),
            )
        )
    return rows


def improvement_summary(rows: Sequence[Fig9Row]) -> Dict[str, float]:
    """Average CaMDN improvement over the better baseline per level."""
    ratios = {"sla": [], "stp": [], "fairness": []}
    for level, _ in QOS_LEVELS:
        camdn = next(r for r in rows
                     if r.policy == "camdn-full" and r.qos_level == level)
        baselines = [r for r in rows
                     if r.policy != "camdn-full" and r.qos_level == level]
        for metric in ratios:
            base = max(
                max(getattr(r, metric) for r in baselines), 1e-6
            )
            ratios[metric].append(getattr(camdn, metric) / base)
    return {
        metric: sum(values) / len(values)
        for metric, values in ratios.items()
    }


def format_fig9(rows: Sequence[Fig9Row]) -> str:
    lines = [
        "Figure 9 — QoS comparison (SLA / STP / fairness)",
        f"  {'policy':<12}{'level':<8}{'SLA':>8}{'STP':>8}{'fair':>8}",
    ]
    for row in rows:
        lines.append(
            f"  {row.policy:<12}{row.qos_level:<8}"
            f"{row.sla:>8.1%}{row.stp:>8.2f}{row.fairness:>8.3f}"
        )
    summary = improvement_summary(rows)
    lines.append(
        f"  CaMDN avg improvement vs best baseline: "
        f"SLA {summary['sla']:.2f}x (paper 5.9x), "
        f"STP {summary['stp']:.2f}x (paper 2.5x), "
        f"fairness {summary['fairness']:.2f}x (paper 3.0x)"
    )
    return "\n".join(lines)
