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
from typing import FrozenSet, Tuple

from ...errors import MappingError
from .loopnest import GEMMShape, trip_count

#: Tensors the mapper may pin in the model-exclusive cache region.
PINNABLE = ("weight", "input", "output")

#: Innermost tile-loop choices, in the order
#: :func:`order_refetch_factors` lists them.
INNERMOST = ("m", "n", "k")


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
        if self.innermost not in INNERMOST:
            raise MappingError(f"bad innermost loop {self.innermost!r}")
        unknown = set(self.pinned) - set(PINNABLE)
        if unknown:
            raise MappingError(f"unknown pinned tensors {sorted(unknown)}")


def order_refetch_factors(
    m: int, n: int, k: int,
) -> Tuple[Tuple[int, int, int], ...]:
    """``(weight, input, output)`` transfer multipliers of a tiling with
    ``m`` / ``n`` / ``k`` tile trips, one triple per :data:`INNERMOST`
    choice.

    The tile loops run, outermost first, ``k, n, m`` (innermost ``m``),
    ``k, m, n`` (innermost ``n``) and ``m, n, k`` (innermost ``k``); the
    order must match ``_LOOP_ORDERS`` of the instruction-level oracle
    ``tests/core/reference_isa.py``.  A tile is reloaded when its
    identity changed since it was last held in scratchpad, so a tensor
    invariant to one loop is streamed

    * once when that loop is innermost (the held tile is reused);
    * once per trip of it when it is the middle loop, unless the
      innermost loop has a single trip (the held tile survives);
    * once per trip of it when it is outermost, unless the two inner
      loops cover a single tile.

    The weight is invariant to ``m``, the input to ``n`` and the output
    to ``k``.  Output partial sums also pay a reload on each spill: when
    the output is revisited, which happens only with ``k`` outermost,
    it moves ``2 * k - 1`` times.  Validated instruction by instruction
    against the oracle (``tests/core/test_isa.py``), and against the
    loop-order derivation in ``tests/core/reference_solver.py`` for
    every trip count up to 8.
    """
    spill = 2 * k - 1 if m * n > 1 else 1
    return (
        (1, n if m > 1 else 1, spill),
        (m if n > 1 else 1, 1, spill),
        (m if n * k > 1 else 1, n if k > 1 else 1, 1),
    )


def refetch_factors(shape: GEMMShape, choice: TilingChoice) -> dict:
    """Per-tensor transfer multipliers for ``choice`` ignoring the cache
    (see :func:`order_refetch_factors`)."""
    triples = order_refetch_factors(
        trip_count(shape.m, choice.tm),
        trip_count(shape.n, choice.tn),
        trip_count(shape.k, choice.tk),
    )
    return dict(zip(PINNABLE, triples[INNERMOST.index(choice.innermost)]))


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


def scratchpad_bytes(tm: int, tn: int, tk: int, dtype_bytes: int = 1) -> int:
    """Scratchpad footprint of one ``tm x tn x tk`` tile working set.

    Holds an input tile ``tm x tk``, a weight tile ``tk x tn`` and an output
    tile ``tm x tn``; the streaming input and weight tiles are
    double-buffered so DMA overlaps compute.
    """
    return (2 * (tm * tk + tk * tn) + tm * tn) * dtype_bytes
