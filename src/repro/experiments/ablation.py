"""Ablation studies for CaMDN's design choices.

The paper motivates several design decisions without dedicated figures;
these harnesses quantify them:

* **Way partition** (Section III-B1: "different proportions of partitioning
  can be adapted") — sweep the NPU/CPU way split and measure CaMDN's
  multi-tenant latency: more NPU ways mean more pages and more LBM, at the
  cost of CPU subspace capacity.
* **LBM occupancy budget** (Section III-C2: blocks exist "to prevent a
  model from occupying too much cache space for too long") — larger budgets
  make longer blocks (more intermediate traffic saved) but hog pages.
* **Multicast** (Section III-B2) — with multi-core tenants, disabling
  request combining replicates weight traffic per core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..config import CacheConfig, SoCConfig
from ..models.zoo import BENCHMARK_MODELS, build_model
from ..schedulers.camdn_full import CaMDNFullScheduler
from ..sim.scenario import ScenarioSpec
from .common import ExperimentScale, run_scenario

#: 16-tenant workload used by all ablations.
_WORKLOAD = tuple(BENCHMARK_MODELS) * 2


@dataclass(frozen=True)
class AblationRow:
    """One configuration point of an ablation sweep."""

    knob: str
    value: str
    avg_latency_ms: float
    avg_dram_mb: float
    lbm_layers: int


def _run_camdn(soc: SoCConfig, scale: ExperimentScale,
               scheduler: CaMDNFullScheduler | None = None,
               model_keys: Sequence[str] = _WORKLOAD) -> Tuple[float, float,
                                                               int]:
    spec = ScenarioSpec.closed_loop(
        model_keys,
        duration_s=scale.duration_s,
        warmup_s=scale.warmup_s,
    )
    result = run_scenario(spec, soc, scheduler or CaMDNFullScheduler())
    return (
        result.metrics.macro_avg_latency_s() * 1e3,
        result.metrics.macro_avg_dram_bytes() / 1e6,
        int(result.scheduler_stats.get("lbm_layers", 0)),
    )


def run_way_partition_ablation(
    npu_way_options: Sequence[int] = (4, 8, 12, 16),
    scale: float = 0.5,
) -> List[AblationRow]:
    """Sweep the way mask's NPU share (Table II default: 12 of 16)."""
    rows: List[AblationRow] = []
    experiment_scale = ExperimentScale(scale=scale)
    for npu_ways in npu_way_options:
        base = SoCConfig()
        soc = SoCConfig(
            npu=base.npu,
            num_npu_cores=base.num_npu_cores,
            cache=CacheConfig(npu_ways=npu_ways),
            dram=base.dram,
            dtype_bytes=base.dtype_bytes,
        )
        latency, dram, lbm = _run_camdn(soc, experiment_scale)
        rows.append(
            AblationRow(
                knob="npu_ways",
                value=f"{npu_ways}/16",
                avg_latency_ms=latency,
                avg_dram_mb=dram,
                lbm_layers=lbm,
            )
        )
    return rows


def run_lbm_budget_ablation(
    fractions: Sequence[float] = (0.05, 0.25, 0.5),
    scale: float = 0.5,
) -> List[AblationRow]:
    """Sweep the LBM occupancy budget (fraction of the NPU subspace)."""
    rows: List[AblationRow] = []
    experiment_scale = ExperimentScale(scale=scale)
    soc = SoCConfig()
    for fraction in fractions:
        scheduler = CaMDNFullScheduler(lbm_occupancy_fraction=fraction)
        latency, dram, lbm = _run_camdn(
            soc, experiment_scale, scheduler=scheduler
        )
        rows.append(
            AblationRow(
                knob="lbm_budget",
                value=f"{fraction:.0%} of NPU subspace",
                avg_latency_ms=latency,
                avg_dram_mb=dram,
                lbm_layers=lbm,
            )
        )
    return rows


def multicast_traffic_savings(num_cores: int = 2) -> dict:
    """Static ablation: per-model weight-traffic multiplier with and
    without multicast when a model spans ``num_cores`` NPUs.

    Returns per-model replicated vs combined DRAM bytes for one inference's
    weight stream (the NEC's multicast eliminates the per-core copies).
    """
    from ..schedulers.camdn_common import MULTICAST_TRAFFIC_OVERHEAD
    from ..schedulers.shared_baseline import CORE_TRAFFIC_REPLICATION

    savings = {}
    for key in BENCHMARK_MODELS:
        graph = build_model(key)
        weights = graph.total_weight_elems
        replicated = weights * (
            1.0 + CORE_TRAFFIC_REPLICATION * (num_cores - 1)
        )
        combined = weights * (
            1.0 + MULTICAST_TRAFFIC_OVERHEAD * (num_cores - 1)
        )
        savings[key] = {
            "replicated_mb": replicated / 1e6,
            "multicast_mb": combined / 1e6,
            "saved_fraction": 1.0 - combined / replicated,
        }
    return savings


def format_multicast(num_cores: int = 2) -> str:
    """The :func:`multicast_traffic_savings` table at ``num_cores``."""
    lines = [
        f"Ablation — multicast weight traffic at {num_cores} cores",
        f"  {'model':<8}{'replicated MB':>15}{'multicast MB':>14}"
        f"{'saved':>8}",
    ]
    for model, row in multicast_traffic_savings(num_cores).items():
        lines.append(
            f"  {model:<8}{row['replicated_mb']:>15.1f}"
            f"{row['multicast_mb']:>14.1f}{row['saved_fraction']:>8.1%}"
        )
    return "\n".join(lines)


def format_ablation(rows: Sequence[AblationRow], title: str) -> str:
    lines = [
        f"Ablation — {title}",
        f"  {'value':<28}{'latency ms':>12}{'DRAM MB':>10}"
        f"{'LBM layers':>12}",
    ]
    for row in rows:
        lines.append(
            f"  {row.value:<28}{row.avg_latency_ms:>12.2f}"
            f"{row.avg_dram_mb:>10.1f}{row.lbm_layers:>12}"
        )
    return "\n".join(lines)
