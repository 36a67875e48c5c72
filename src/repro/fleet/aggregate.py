"""Fleet aggregation: shard summaries into population stats.

Each device-run reduces to its deterministic summary dict (the
engine's :meth:`~repro.sim.engine.SimulationResult.summary` minus the
wall-clock keys), and :class:`FleetAccumulator` folds those into a
handful of :class:`~repro.fleet.digest.QuantileDigest` sketches plus
exact counters — the accumulator is O(digest bins), independent of
fleet size.  The run as a whole is not:
:func:`~repro.fleet.runner.run_fleet` collects every cell's
:class:`~repro.sim.engine.SimulationResult` (raw inference records
included) before folding and returns them in ``FleetResult.results``,
so its memory grows with the population until the fold streams cells
as they land.

Accumulators merge, so shard-level partial accumulators fold into the
fleet total; folding in canonical cell order makes the resulting
percentiles byte-identical under any ``--jobs`` setting.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..errors import WorkloadError
from .digest import DEFAULT_MAX_BINS, QuantileDigest

#: Serialization schema of fleet summaries; bump on shape changes.
FLEET_SUMMARY_SCHEMA_VERSION = 1

#: Population axes: fleet metric name -> per-device summary key.  Each
#: axis gets one digest over the per-device values.
FLEET_AXES = (
    ("latency_ms", "avg_latency_ms"),
    ("p99_latency_ms", "p99_latency_ms"),
    ("hit_rate", "hit_rate"),
    ("queue_delay_ms", "avg_queue_delay_ms"),
)

#: Percentile ranks every fleet axis reports.
FLEET_QUANTILES = (0.5, 0.95, 0.99)


class FleetAccumulator:
    """Mergeable reduction of per-device summaries to population stats.

    Fold per-device summary dicts with :meth:`fold` (or whole shard
    accumulators with :meth:`merge`), then read the population view
    from :meth:`fleet_summary`.  All state is deterministic given the
    fold order; the fleet runner always folds in cell order.
    """

    __slots__ = ("max_bins", "devices", "inferences", "qos_violations",
                 "_digests")

    def __init__(self, max_bins: int = DEFAULT_MAX_BINS) -> None:
        self.max_bins = max_bins
        self.devices = 0
        self.inferences = 0
        self.qos_violations = 0
        self._digests: Dict[str, QuantileDigest] = {
            axis: QuantileDigest(max_bins=max_bins)
            for axis, _ in FLEET_AXES
        }

    # -- folding -------------------------------------------------------

    def fold(self, summary: Dict[str, float]) -> None:
        """Fold one device-run summary (``result.summary()`` dict).

        Only the deterministic simulated-outcome keys participate;
        wall-clock keys are ignored so the fleet view stays a pure
        function of the simulation.
        """
        missing = [key for _, key in FLEET_AXES if key not in summary]
        if "inferences" not in summary:
            missing.append("inferences")
        if missing:
            raise WorkloadError(
                f"device summary is missing keys {sorted(missing)}; "
                f"fold expects engine summary() dicts"
            )
        self.devices += 1
        self.inferences += int(summary["inferences"])
        self.qos_violations += int(summary.get("qos_violations", 0))
        for axis, key in FLEET_AXES:
            self._digests[axis].add(float(summary[key]))

    def fold_results(self, results: Iterable) -> List[int]:
        """Fold an iterable of :class:`SimulationResult`, skipping
        ``None`` placeholders of failed cells.

        A device that measured no inference (every completion fell in
        warm-up) has no summary to fold: it is skipped too, and its
        position in ``results`` is returned, so every caller aggregates
        such a fleet instead of raising.
        """
        unmeasured: List[int] = []
        for i, result in enumerate(results):
            if result is None:
                continue
            if result.metrics.num_inferences == 0:
                unmeasured.append(i)
                continue
            self.fold(result.summary())
        return unmeasured

    def merge(self, other: "FleetAccumulator") -> None:
        """Fold another accumulator in (shard-level reduction)."""
        self.devices += other.devices
        self.inferences += other.inferences
        self.qos_violations += other.qos_violations
        for axis, _ in FLEET_AXES:
            self._digests[axis].merge(other._digests[axis])

    # -- queries -------------------------------------------------------

    def digest(self, axis: str) -> QuantileDigest:
        """The population digest of one axis (``"latency_ms"``, ...)."""
        try:
            return self._digests[axis]
        except KeyError:
            raise WorkloadError(
                f"unknown fleet axis {axis!r}; known: "
                f"{sorted(self._digests)}"
            ) from None

    def qos_violation_rate(self) -> float:
        """Fleet-wide violated share of all measured inferences."""
        if self.inferences == 0:
            return 0.0
        return self.qos_violations / self.inferences

    def fleet_summary(self) -> dict:
        """The population statistics dict (the fleet byte-identity
        surface: two fleet runs agree iff these dicts are identical
        under ``json.dumps``)."""
        summary = {
            "fleet_summary_schema_version":
                FLEET_SUMMARY_SCHEMA_VERSION,
            "devices": self.devices,
            "inferences": self.inferences,
            "qos_violations": self.qos_violations,
            "qos_violation_rate": self.qos_violation_rate(),
        }
        for axis, _ in FLEET_AXES:
            digest = self._digests[axis]
            if digest.is_empty:
                summary[axis] = None
                continue
            stats = {"mean": digest.mean()}
            stats.update(digest.quantiles(FLEET_QUANTILES))
            summary[axis] = stats
        return summary

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "fleet_summary_schema_version":
                FLEET_SUMMARY_SCHEMA_VERSION,
            "max_bins": self.max_bins,
            "devices": self.devices,
            "inferences": self.inferences,
            "qos_violations": self.qos_violations,
            "digests": {
                axis: self._digests[axis].to_dict()
                for axis, _ in FLEET_AXES
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetAccumulator":
        version = data.get("fleet_summary_schema_version")
        if version != FLEET_SUMMARY_SCHEMA_VERSION:
            raise WorkloadError(
                f"unsupported fleet accumulator schema {version!r} "
                f"(expected {FLEET_SUMMARY_SCHEMA_VERSION})"
            )
        acc = cls(max_bins=data["max_bins"])
        acc.devices = int(data["devices"])
        acc.inferences = int(data["inferences"])
        acc.qos_violations = int(data["qos_violations"])
        for axis, _ in FLEET_AXES:
            acc._digests[axis] = QuantileDigest.from_dict(
                data["digests"][axis]
            )
        return acc


def aggregate_summaries(summaries: Iterable[Dict[str, float]],
                        max_bins: int = DEFAULT_MAX_BINS
                        ) -> FleetAccumulator:
    """One-shot reduction of an iterable of device summaries."""
    acc = FleetAccumulator(max_bins=max_bins)
    for summary in summaries:
        acc.fold(summary)
    return acc
