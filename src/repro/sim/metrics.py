"""Metrics collection: per-inference records and per-model summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import SimulationError
from ..numeric import left_sum
from .task import TaskInstance


@dataclass(frozen=True)
class InstanceRecord:
    """Immutable record of one measured inference."""

    instance_id: str
    stream_id: str
    model_abbr: str
    arrival_time: float
    start_time: float
    finish_time: float
    latency_s: float
    dram_bytes: float
    hit_bytes: float
    access_bytes: float
    qos_target_s: float
    met_deadline: bool


@dataclass
class ModelSummary:
    """Aggregated statistics of one model across measured inferences."""

    model_abbr: str
    inferences: int
    avg_latency_s: float
    avg_dram_bytes: float
    hit_rate: float
    sla_rate: float

    @property
    def avg_latency_ms(self) -> float:
        return self.avg_latency_s * 1e3

    @property
    def avg_dram_mb(self) -> float:
        return self.avg_dram_bytes / 1e6


@dataclass
class MetricsCollector:
    """Accumulates finished instances and derives summaries."""

    records: List[InstanceRecord] = field(default_factory=list)

    def record(self, instance: TaskInstance) -> InstanceRecord:
        if instance.finish_time is None or instance.start_time is None:
            raise SimulationError(
                f"{instance.instance_id} recorded before finishing"
            )
        rec = InstanceRecord(
            instance_id=instance.instance_id,
            stream_id=instance.stream_id,
            model_abbr=instance.graph.abbr,
            arrival_time=instance.arrival_time,
            start_time=instance.start_time,
            finish_time=instance.finish_time,
            latency_s=instance.latency,
            dram_bytes=instance.dram_bytes_total,
            hit_bytes=instance.hit_bytes_total,
            access_bytes=instance.access_bytes_total,
            qos_target_s=instance.qos_target_s,
            met_deadline=instance.met_deadline(),
        )
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------

    @property
    def num_inferences(self) -> int:
        return len(self.records)

    def avg_latency_s(self) -> float:
        """Mean dispatch-to-finish latency over all measured inferences."""
        if not self.records:
            raise SimulationError("no measured inferences")
        return left_sum(r.latency_s for r in self.records) \
            / len(self.records)

    def avg_dram_bytes_per_inference(self) -> float:
        """Mean memory access per model inference (Figure 2(b) metric)."""
        if not self.records:
            raise SimulationError("no measured inferences")
        return left_sum(r.dram_bytes for r in self.records) \
            / len(self.records)

    def avg_queue_delay_s(self) -> float:
        """Mean dispatch-to-start delay (time an inference waited for a
        core or, open-loop, behind its stream's previous inference)."""
        if not self.records:
            raise SimulationError("no measured inferences")
        return left_sum(
            r.start_time - r.arrival_time for r in self.records
        ) / len(self.records)

    def p99_latency_s(self) -> float:
        """99th-percentile dispatch-to-finish latency (tail metric).

        Nearest-rank percentile over all measured inferences: the smallest
        latency such that at least 99 % of records are at or below it.
        """
        if not self.records:
            raise SimulationError("no measured inferences")
        ordered = sorted(r.latency_s for r in self.records)
        rank = math.ceil(0.99 * len(ordered))
        return ordered[rank - 1]

    def qos_violation_count(self) -> int:
        """Number of measured inferences that missed their deadline."""
        return sum(1 for r in self.records if not r.met_deadline)

    def overall_hit_rate(self) -> float:
        """Aggregate cache hit rate (Figure 2(a) metric); 0 when the
        policy performs no transparent lookups."""
        accesses = left_sum(r.access_bytes for r in self.records)
        if accesses <= 0:
            return 0.0
        return left_sum(r.hit_bytes for r in self.records) / accesses

    def by_model(self) -> Dict[str, ModelSummary]:
        """Per-model summaries keyed by abbreviation."""
        groups: Dict[str, List[InstanceRecord]] = {}
        for rec in self.records:
            groups.setdefault(rec.model_abbr, []).append(rec)
        summaries: Dict[str, ModelSummary] = {}
        for abbr, recs in groups.items():
            accesses = left_sum(r.access_bytes for r in recs)
            summaries[abbr] = ModelSummary(
                model_abbr=abbr,
                inferences=len(recs),
                avg_latency_s=(
                    left_sum(r.latency_s for r in recs) / len(recs)
                ),
                avg_dram_bytes=(
                    left_sum(r.dram_bytes for r in recs) / len(recs)
                ),
                hit_rate=(
                    left_sum(r.hit_bytes for r in recs) / accesses
                    if accesses > 0 else 0.0
                ),
                sla_rate=sum(r.met_deadline for r in recs) / len(recs),
            )
        return summaries

    # ------------------------------------------------------------------
    # Macro (model-weighted) aggregates — the paper reports per-model
    # averages, so a fast model completing many inferences must not
    # dominate the suite average.
    # ------------------------------------------------------------------

    def macro_averages(self) -> Tuple[float, float]:
        """Mean of per-model mean latencies and mean of per-model mean
        DRAM traffic per inference, from one grouping of the records."""
        summaries = self.by_model()
        if not summaries:
            raise SimulationError("no measured inferences")
        models = summaries.values()
        return (
            left_sum(s.avg_latency_s for s in models) / len(summaries),
            left_sum(s.avg_dram_bytes for s in models) / len(summaries),
        )

    def macro_avg_latency_s(self) -> float:
        """Mean of per-model mean latencies."""
        return self.macro_averages()[0]

    def macro_avg_dram_bytes(self) -> float:
        """Mean of per-model mean DRAM traffic per inference."""
        return self.macro_averages()[1]
