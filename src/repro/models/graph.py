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

    # The footprint is measured *during* each layer's execution: the
    # outputs of earlier in-block layers still read at or after layer
    # ``i`` (which include layer ``i``'s direct input), ``live`` below,
    # plus layer ``i``'s own output unless ``i`` is the block's tail
    # (under LBM the tail's output streams to DRAM).  So the peak of
    # layers [start, i] is the larger of ``running``, the maximum of
    # output + live over the non-tail layers [start, i), and the tail
    # layer's live: one pass per block.
    n = len(graph.layers)
    outputs = [layer.output_elems for layer in graph.layers]
    last_use = [graph.last_use(j) for j in range(n)]
    blocks: List[LayerBlock] = []
    start = 0
    running = 0
    peak = 0  # elements, of the block [start, i)
    for i in range(n):
        live = sum(outputs[j] for j in range(start, i) if last_use[j] >= i)
        extended = max(running, live)
        if extended * dtype_bytes > max_intermediate_bytes and i > start:
            # Close the block before this layer and restart.
            blocks.append(LayerBlock(start, i, peak))
            start = i
            running = live = extended = 0
        running = max(running, outputs[i] + live)
        peak = extended
    blocks.append(LayerBlock(start, n, peak))
    return blocks
