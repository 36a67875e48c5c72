"""Reuse-count and reuse-distance profiling (paper Figure 3).

The paper's motivation rests on two statistics over the data a DNN moves
through the shared cache:

* **Reuse count** — expected number of repeated cache accesses to a piece of
  data.  Figure 3(a) buckets: ``1``, ``[2,4]``, ``[5,8]``, ``[9,inf)``.
  On average 68.0 % of data has count 1 (no future reuse).
* **Reuse distance** — bytes of *other* data accessed between two uses of
  the same piece of data, measured for intermediate (inter-layer) tensors.
  Figure 3(b) buckets: ``(0,1MB]``, ``(1,2MB]``, ``(2,4MB]``, ``(4MB,inf)``.
  On average 61.8 % of intermediate data sits above 1 MB and 47.9 % above
  2 MB.

The profiler derives both statistics from the layer graph alone:

* weight tensors are streamed once per inference (count 1) unless the
  default tiling refetches them;
* an intermediate tensor's count is one write plus one read per consumer
  (direct successor + skip edges);
* an intermediate tensor's reuse distance to consumer ``c`` is the sum of
  compulsory traffic of the layers executed between producer and ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .graph import ModelGraph

#: Figure 3(a) reuse-count buckets: (label, lo, hi) inclusive.
REUSE_COUNT_BUCKETS: Tuple[Tuple[str, int, float], ...] = (
    ("1", 1, 1),
    ("[2,4]", 2, 4),
    ("[5,8]", 5, 8),
    ("[9,inf)", 9, float("inf")),
)

#: Figure 3(b) reuse-distance buckets in bytes: (label, lo, hi] exclusive/inc.
MiB = 1024 * 1024
REUSE_DISTANCE_BUCKETS: Tuple[Tuple[str, float, float], ...] = (
    ("(0MB,1MB]", 0, 1 * MiB),
    ("(1MB,2MB]", 1 * MiB, 2 * MiB),
    ("(2MB,4MB]", 2 * MiB, 4 * MiB),
    ("(4MB,inf)", 4 * MiB, float("inf")),
)


@dataclass
class ReuseProfile:
    """Byte-weighted reuse statistics of one model.

    Attributes:
        model: model abbreviation.
        count_bytes: bytes per Figure 3(a) bucket label.
        distance_bytes: intermediate-tensor bytes per Figure 3(b) bucket.
    """

    model: str
    count_bytes: Dict[str, int] = field(default_factory=dict)
    distance_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.count_bytes.values())

    @property
    def total_intermediate_bytes(self) -> int:
        return sum(self.distance_bytes.values())

    def count_fractions(self) -> Dict[str, float]:
        """Figure 3(a) percentages (as fractions) for this model."""
        total = self.total_bytes
        if total == 0:
            return {label: 0.0 for label, _, _ in REUSE_COUNT_BUCKETS}
        return {
            label: self.count_bytes.get(label, 0) / total
            for label, _, _ in REUSE_COUNT_BUCKETS
        }

    def distance_fractions(self) -> Dict[str, float]:
        """Figure 3(b) percentages (as fractions) for this model."""
        total = self.total_intermediate_bytes
        if total == 0:
            return {label: 0.0 for label, _, _ in REUSE_DISTANCE_BUCKETS}
        return {
            label: self.distance_bytes.get(label, 0) / total
            for label, _, _ in REUSE_DISTANCE_BUCKETS
        }

    def fraction_distance_above(self, threshold_bytes: int) -> float:
        """Fraction of intermediate bytes with reuse distance above
        ``threshold_bytes`` (must align with a bucket boundary)."""
        total = self.total_intermediate_bytes
        if total == 0:
            return 0.0
        above = sum(
            bytes_
            for (label, lo, _hi), bytes_ in zip(
                REUSE_DISTANCE_BUCKETS,
                (self.distance_bytes.get(label, 0)
                 for label, _, _ in REUSE_DISTANCE_BUCKETS),
            )
            if lo >= threshold_bytes
        )
        return above / total


def _count_bucket(count: int) -> str:
    for label, lo, hi in REUSE_COUNT_BUCKETS:
        if lo <= count <= hi:
            return label
    raise AssertionError(f"unbucketable reuse count {count}")


def _distance_bucket(distance_bytes: float) -> str:
    for label, lo, hi in REUSE_DISTANCE_BUCKETS:
        if lo < distance_bytes <= hi:
            return label
    return REUSE_DISTANCE_BUCKETS[-1][0]


def profile_model(graph: ModelGraph, dtype_bytes: int = 1) -> ReuseProfile:
    """Profile one model's reuse counts and distances.

    All statistics are byte-weighted: a 1 MB tensor with count 1 contributes
    1 MB to the count-1 bucket.
    """
    profile = ReuseProfile(model=graph.abbr)
    counts: Dict[str, int] = {label: 0 for label, _, _ in
                              REUSE_COUNT_BUCKETS}
    distances: Dict[str, int] = {label: 0 for label, _, _ in
                                 REUSE_DISTANCE_BUCKETS}

    layer_traffic = [
        layer.total_elems * dtype_bytes for layer in graph.layers
    ]
    n = len(graph.layers)

    for i, layer in enumerate(graph.layers):
        # Weights: streamed once per inference.
        if layer.weight_elems:
            counts[_count_bucket(1)] += layer.weight_elems * dtype_bytes

        # The layer's output tensor: one write + one read per consumer.
        out_bytes = layer.output_elems * dtype_bytes
        if out_bytes == 0:
            continue
        consumers: List[int] = []
        if i + 1 < n:
            consumers.append(i + 1)
        consumers.extend(
            c for c in graph.skip_consumers(i) if c not in consumers
        )
        if not consumers:
            # Model output: written once, never re-read on chip.
            counts[_count_bucket(1)] += out_bytes
            continue
        counts[_count_bucket(1 + len(consumers))] += out_bytes

        # Reuse distance per consumer: traffic of intervening layers.  The
        # write->first-read distance for the direct successor is roughly the
        # producer's own working set; skip consumers accumulate everything
        # in between.
        for consumer in consumers:
            intervening = sum(layer_traffic[i + 1:consumer])
            distance = max(intervening, layer_traffic[i] // 2)
            distances[_distance_bucket(distance)] += out_bytes

    profile.count_bytes = counts
    profile.distance_bytes = distances
    return profile


def profile_suite(
    graphs: Sequence[ModelGraph], dtype_bytes: int = 1
) -> Dict[str, ReuseProfile]:
    """Profile a list of models, keyed by abbreviation."""
    return {g.abbr: profile_model(g, dtype_bytes) for g in graphs}


def average_fractions(
    profiles: Sequence[ReuseProfile],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Byte-weighted average of count and distance fractions over models.

    Returns:
        ``(count_fractions, distance_fractions)`` averaged across models
        with equal model weight (matching the paper's "Avg." bars).
    """
    if not profiles:
        return {}, {}
    count_avg: Dict[str, float] = {label: 0.0 for label, _, _ in
                                   REUSE_COUNT_BUCKETS}
    dist_avg: Dict[str, float] = {label: 0.0 for label, _, _ in
                                  REUSE_DISTANCE_BUCKETS}
    for profile in profiles:
        for label, frac in profile.count_fractions().items():
            count_avg[label] += frac / len(profiles)
        for label, frac in profile.distance_fractions().items():
            dist_avg[label] += frac / len(profiles)
    return count_avg, dist_avg
