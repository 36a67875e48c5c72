"""Model graphs: ordered layer sequences with skip edges and layer blocks.

A :class:`ModelGraph` is a topologically ordered list of
:class:`~repro.models.layers.LayerSpec` entries.  Execution is sequential
(one layer at a time per NPU group, as on real NPUs); *skip edges* record
residual connections whose producer tensor stays live past the next layer —
they lengthen reuse distances, which is exactly the effect Figure 3(b) of the
paper measures.

Layer blocks (:func:`segment_into_blocks`) are the granularity at which
CaMDN's layer-block mapping (LBM) keeps intermediate tensors resident in the
shared cache (Section III-C2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from ..errors import ModelGraphError
from .layers import LayerSpec


@dataclass(frozen=True)
class SkipEdge:
    """A residual connection from layer ``producer`` to layer ``consumer``.

    Indices refer to positions in :attr:`ModelGraph.layers`; the tensor
    produced by ``producer`` is re-read when ``consumer`` executes.
    """

    producer: int
    consumer: int

    def __post_init__(self) -> None:
        if self.producer < 0:
            raise ModelGraphError("skip edge producer index is negative")
        if self.consumer <= self.producer:
            raise ModelGraphError(
                "skip edge must point forward in execution order"
            )


@dataclass(frozen=True)
class ModelGraph:
    """A DNN model as an ordered layer sequence.

    Attributes:
        name: full model name (e.g. ``"ResNet50"``).
        abbr: paper abbreviation (e.g. ``"RS."``).
        layers: execution-ordered layer specs.
        skip_edges: residual connections (see :class:`SkipEdge`).
        qos_target_ms: latency target from paper Table I.
        domain: application domain label from Table I.
        model_type: paper model-type label (Conv / DwConv / Trans / LSTM).
    """

    name: str
    abbr: str
    layers: Sequence[LayerSpec]
    skip_edges: Sequence[SkipEdge] = field(default_factory=tuple)
    qos_target_ms: float = 0.0
    domain: str = ""
    model_type: str = ""

    def __post_init__(self) -> None:
        if not self.layers:
            raise ModelGraphError(f"{self.name}: model has no layers")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ModelGraphError(f"{self.name}: duplicate layer names")
        for edge in self.skip_edges:
            if edge.consumer >= len(self.layers):
                raise ModelGraphError(
                    f"{self.name}: skip edge consumer {edge.consumer} is out "
                    f"of range"
                )
        if self.qos_target_ms < 0:
            raise ModelGraphError(f"{self.name}: negative QoS target")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulates for one inference."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weight_elems(self) -> int:
        """Total static parameter elements."""
        return sum(layer.weight_elems for layer in self.layers)

    def compulsory_traffic_elems(self) -> int:
        """Minimum possible off-chip traffic for one inference: every weight
        read once, model input read once, model output written once.

        This is the lower bound an ideal (infinite) cache would achieve; the
        gap between it and simulated traffic is the refetch overhead the
        paper attacks.
        """
        return (
            self.total_weight_elems
            + self.layers[0].input_elems
            + self.layers[-1].output_elems
        )

    def skip_consumers(self, producer: int) -> List[int]:
        """Indices of layers that re-read layer ``producer``'s output via a
        skip edge (excluding the immediate successor)."""
        return sorted(
            edge.consumer
            for edge in self.skip_edges
            if edge.producer == producer
        )

    def last_use(self, producer: int) -> int:
        """Index of the last layer that reads layer ``producer``'s output."""
        consumers = self.skip_consumers(producer)
        direct = producer + 1 if producer + 1 < len(self.layers) else producer
        return max([direct] + consumers)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name} ({self.abbr}): {self.num_layers} layers, "
            f"{self.total_macs / 1e9:.2f} GMACs, "
            f"{self.total_weight_elems / 1e6:.2f} M weight elems, "
            f"QoS {self.qos_target_ms} ms"
        )


@dataclass(frozen=True)
class LayerBlock:
    """A contiguous run of layers treated as one LBM unit.

    Attributes:
        start: index of the first layer in the block (inclusive).
        end: index one past the last layer in the block (exclusive).
        intermediate_elems: peak bytes-agnostic element count of intermediate
            tensors that must stay cache-resident if the block runs in LBM
            mode.
    """

    start: int
    end: int
    intermediate_elems: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ModelGraphError("invalid layer block bounds")

    @property
    def num_layers(self) -> int:
        return self.end - self.start

    def contains(self, layer_index: int) -> bool:
        return self.start <= layer_index < self.end


def segment_into_blocks(
    graph: ModelGraph,
    max_intermediate_bytes: int,
    dtype_bytes: int = 1,
) -> List[LayerBlock]:
    """Segment ``graph`` into layer blocks for LBM.

    The paper segments models into layer blocks so that LBM never pins too
    much cache for too long (Section III-C2).  A greedy scan extends the
    current block while the *live* intermediate footprint (the tensors that
    would have to stay cache-resident, including skip-edge producers) stays
    within ``max_intermediate_bytes`` and the block does not cross a skip
    edge boundary in a way that would leave a producer un-cached.

    Args:
        graph: the model to segment.
        max_intermediate_bytes: cache budget a block may pin.
        dtype_bytes: bytes per tensor element.

    Returns:
        Blocks covering every layer exactly once, in order.
    """
    if max_intermediate_bytes <= 0:
        raise ModelGraphError("max_intermediate_bytes must be positive")

    n = len(graph.layers)
    outputs = [layer.output_elems for layer in graph.layers]
    last_use = [graph.last_use(j) for j in range(n)]
    blocks: List[LayerBlock] = []
    start = 0
    for i in range(n):
        peak = _block_peak(outputs, last_use, start, i + 1, dtype_bytes)
        block_len = i - start + 1
        if peak > max_intermediate_bytes and block_len > 1:
            # Close the block before this layer and restart.
            prev_peak = _block_peak(outputs, last_use, start, i,
                                    dtype_bytes)
            blocks.append(LayerBlock(start, i, prev_peak // dtype_bytes))
            start = i
    blocks.append(
        LayerBlock(start, n,
                   _block_peak(outputs, last_use, start, n, dtype_bytes)
                   // dtype_bytes)
    )
    return blocks


def _block_peak(
    outputs: Sequence[int],
    last_use: Sequence[int],
    start: int,
    end: int,
    dtype_bytes: int,
) -> int:
    """Peak live intermediate footprint (bytes) of layers [start, end).

    ``outputs[j]`` is layer ``j``'s output size in elements and
    ``last_use[j]`` its :meth:`ModelGraph.last_use`, computed once per
    graph by the caller.  The footprint is measured *during* each
    layer's execution: the outputs of earlier in-block layers still
    needed at or after layer ``i`` (which includes layer ``i``'s direct
    input) plus layer ``i``'s own output if it stays in-block (the tail
    layer's output streams to DRAM under LBM).
    """
    peak = 0
    for i in range(start, end):
        live = outputs[i] if i < end - 1 else 0
        for j in range(start, i):
            if last_use[j] >= i:
                live += outputs[j]
        peak = max(peak, live * dtype_bytes)
    return peak
