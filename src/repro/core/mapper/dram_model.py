"""DRAM-access volume model for a tiling choice.

For GEMM ``[M,K] x [K,N] -> [M,N]`` tiled as ``(tm, tn, tk)`` with tile
loops ordered outer-to-inner, classic refetch analysis gives per-tensor
DRAM traffic multipliers:

* the **weight** tensor ``[K,N]`` is invariant to the ``m`` loop: it is
  re-streamed once per ``m``-tile unless the ``m`` loop is innermost
  (weight tile stays on chip while ``m`` iterates);
* the **input** tensor ``[M,K]`` is invariant to ``n``: re-streamed
  ``ceil(N/tn)`` times unless ``n`` is innermost;
* the **output** tensor ``[M,N]`` is invariant to ``k``: with ``k`` not
  innermost, partial sums spill and reload once per extra ``k``-tile
  (``2*ceil(K/tk) - 1`` total transfers).

CaMDN's cache regions break these multipliers: a tensor pinned in the
model-exclusive region is fetched from DRAM exactly once (or zero times for
LBM inputs already produced into cache); refetches hit the cache instead.
Non-pinned tensors use bypass semantics and never pollute the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from ...errors import MappingError
from .loopnest import GEMMShape, trip_count

#: Tensors the mapper may pin in the model-exclusive cache region.
PINNABLE = ("weight", "input", "output")


@dataclass(frozen=True)
class TilingChoice:
    """One point of the mapper's search space.

    Attributes:
        tm / tn / tk: tile sizes along M / N / K.
        innermost: which tile loop is innermost (``"m"``, ``"n"``, ``"k"``);
            only the innermost loop changes first-order refetch behaviour.
        pinned: subset of :data:`PINNABLE` kept resident in the model's
            cache region.
        lbm_input: the input tensor is already cache-resident, produced by
            the previous layer of an LBM block (zero DRAM for it).
        lbm_output: the output tensor stays in cache for the next layer of
            an LBM block (zero DRAM for it).
    """

    tm: int
    tn: int
    tk: int
    innermost: str
    pinned: FrozenSet[str] = frozenset()
    lbm_input: bool = False
    lbm_output: bool = False

    def __post_init__(self) -> None:
        if min(self.tm, self.tn, self.tk) <= 0:
            raise MappingError("tile sizes must be positive")
        if self.innermost not in ("m", "n", "k"):
            raise MappingError(f"bad innermost loop {self.innermost!r}")
        unknown = set(self.pinned) - set(PINNABLE)
        if unknown:
            raise MappingError(f"unknown pinned tensors {sorted(unknown)}")


#: Tile-loop iteration order per innermost choice (outermost first); must
#: match ``_LOOP_ORDERS`` of the instruction-level oracle
#: ``tests/core/reference_isa.py``.
LOOP_ORDERS = {
    "m": ("k", "n", "m"),
    "n": ("k", "m", "n"),
    "k": ("m", "n", "k"),
}


def _reload_factor(order: tuple, trips: dict, invariant: str) -> int:
    """Times a tensor invariant to loop ``invariant`` is streamed.

    A tile is reloaded when its identity changed since it was last held in
    scratchpad.  For the loop invariant to the tensor:

    * innermost — consecutive iterations reuse the held tile: factor 1;
    * middle — tiles cycle with the innermost loop, so each middle-loop
      iteration revisits them ... unless the innermost loop has a single
      tile, in which case the held tile survives: factor ``trips`` or 1;
    * outermost — every outer iteration replays the whole tile space
      unless that space is a single tile.

    Validated instruction by instruction against the oracle in
    ``tests/core/reference_isa.py``.
    """
    position = order.index(invariant)
    if position == 2:  # innermost
        return 1
    if position == 1:  # middle
        innermost = order[2]
        return trips[invariant] if trips[innermost] > 1 else 1
    varying = [dim for dim in order if dim != invariant]
    tile_space = trips[varying[0]] * trips[varying[1]]
    return trips[invariant] if tile_space > 1 else 1


def refetch_factors(shape: GEMMShape, choice: TilingChoice) -> dict:
    """Per-tensor transfer multipliers for ``choice`` ignoring the cache.

    The weight is invariant to ``m``, the input to ``n`` and the output to
    ``k``.  Output partial sums additionally pay a reload on each spill:
    a factor ``f`` of k-revisits costs ``2f - 1`` transfers.
    """
    trips = {
        "m": trip_count(shape.m, choice.tm),
        "n": trip_count(shape.n, choice.tn),
        "k": trip_count(shape.k, choice.tk),
    }
    order = LOOP_ORDERS[choice.innermost]
    weight = _reload_factor(order, trips, "m")
    input_ = _reload_factor(order, trips, "n")
    # Output: invariant to k; each extra visit spills and reloads.
    visits = _reload_factor(order, trips, "k")
    if visits > 1:
        # The k loop is outermost in every non-k-innermost order, so each
        # of the trips[k] passes revisits the live tiles; the spill count
        # follows the number of unfinished departures.
        output = 2 * trips["k"] - 1
    else:
        output = 1
    return {"weight": weight, "input": input_, "output": output}


def dram_traffic_bytes(
    shape: GEMMShape,
    choice: TilingChoice,
    dtype_bytes: int = 1,
) -> float:
    """Predicted DRAM traffic (bytes) for one layer under ``choice``."""
    factors = refetch_factors(shape, choice)
    sizes = {
        "weight": shape.weight_elems * dtype_bytes,
        "input": shape.input_elems * dtype_bytes,
        "output": shape.output_elems * dtype_bytes,
    }
    traffic = 0.0
    for tensor, size in sizes.items():
        if tensor == "input" and choice.lbm_input:
            continue  # produced into cache by the previous block layer
        if tensor == "output" and choice.lbm_output:
            continue  # consumed from cache by the next block layer
        if tensor in choice.pinned:
            traffic += size  # one compulsory transfer, refetches hit cache
        else:
            traffic += size * factors[tensor]
    return traffic


def pinned_cache_bytes(shape: GEMMShape, choice: TilingChoice,
                       dtype_bytes: int = 1) -> int:
    """Bytes of the model's cache region this choice occupies."""
    sizes = {
        "weight": shape.weight_elems * dtype_bytes,
        "input": shape.input_elems * dtype_bytes,
        "output": shape.output_elems * dtype_bytes,
    }
    total = sum(sizes[t] for t in choice.pinned)
    if choice.lbm_input and "input" not in choice.pinned:
        total += sizes["input"]
    if choice.lbm_output and "output" not in choice.pinned:
        total += sizes["output"]
    return total


def scratchpad_bytes(choice: TilingChoice, dtype_bytes: int = 1,
                     double_buffer: bool = True) -> int:
    """Scratchpad footprint of one tile working set.

    Holds an input tile ``tm x tk``, a weight tile ``tk x tn`` and an output
    tile ``tm x tn``; streaming tensors are double-buffered so DMA overlaps
    compute.
    """
    in_tile = choice.tm * choice.tk
    w_tile = choice.tk * choice.tn
    out_tile = choice.tm * choice.tn
    buf = 2 if double_buffer else 1
    return ((in_tile + w_tile) * buf + out_tile) * dtype_bytes
