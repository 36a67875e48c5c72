"""Layer-block mapping candidates (Section III-C2).

LBM stores intermediate tensors between layers fully in cache and allocates
zero DRAM space to them.  To keep a model from occupying too much cache for
too long, the model is segmented into *layer blocks* and LBM applies only
inside a block: the block's head layer still reads its input from DRAM and
the tail layer writes its output to DRAM, but every producer-consumer edge
inside the block lives purely in the model's exclusive cache region.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...config import SoCConfig
from ...models.graph import LayerBlock, ModelGraph, segment_into_blocks
from ...models.layers import LayerSpec
from ..mct import CacheMapEntry, MappingCandidate
from .loopnest import GEMMShape
from .solver import SubspaceSolver


def plan_blocks(
    graph: ModelGraph,
    soc: SoCConfig,
    occupancy_fraction: float = 0.25,
) -> List[LayerBlock]:
    """Segment ``graph`` into LBM blocks.

    The block budget is ``occupancy_fraction`` of the NPU subspace, the
    paper's guard against one model pinning the whole cache.
    """
    budget = max(
        int(soc.cache.npu_subspace_bytes * occupancy_fraction),
        soc.cache.page_bytes,
    )
    return segment_into_blocks(graph, budget, soc.dtype_bytes)


def block_footprint_bytes(block: LayerBlock, dtype_bytes: int) -> int:
    """Cache bytes the block pins while running in LBM mode."""
    return block.intermediate_elems * dtype_bytes


def build_lbm_candidates(
    graph: ModelGraph,
    blocks: List[LayerBlock],
    solver: SubspaceSolver,
    soc: SoCConfig,
) -> Dict[int, MappingCandidate]:
    """Build the per-layer LBM candidate for every layer covered by a block.

    Layers whose block footprint exceeds the NPU subspace get no LBM
    candidate (Algorithm 1 then always falls through to LWM selection).

    Returns:
        layer index -> LBM candidate.
    """
    candidates: Dict[int, MappingCandidate] = {}
    subspace_bytes = soc.cache.npu_subspace_bytes
    for block in blocks:
        footprint = block_footprint_bytes(block, soc.dtype_bytes)
        if footprint > subspace_bytes or block.num_layers < 2:
            continue
        for i in range(block.start, block.end):
            layer = graph.layers[i]
            candidates[i] = _layer_lbm_candidate(
                layer, i, block, footprint, solver, soc
            )
    return candidates


def _layer_lbm_candidate(
    layer: LayerSpec,
    layer_index: int,
    block: LayerBlock,
    footprint_bytes: int,
    solver: SubspaceSolver,
    soc: SoCConfig,
) -> MappingCandidate:
    """The LBM mapping of one in-block layer.

    Residency gating: a tensor participates in LBM only when the block's
    live-set footprint actually covers it.  Layers fed through long skip
    edges (e.g. PointPillars' upsampling heads reading backbone outputs
    produced outside the block) would otherwise claim cache space the
    block accounting never reserved; such inputs conservatively fall back
    to DRAM fetches.
    """
    dtype = soc.dtype_bytes
    in_bytes = layer.input_elems * dtype
    out_bytes = layer.output_elems * dtype
    lbm_output = (
        layer_index < block.end - 1 and out_bytes <= footprint_bytes
    )
    lbm_input = (
        layer_index > block.start
        and in_bytes + (out_bytes if lbm_output else 0) <= footprint_bytes
    )
    shape = GEMMShape.of(layer)
    solved = solver.solve(
        shape,
        usage_limit_bytes=footprint_bytes,
        lbm_input=lbm_input,
        lbm_output=lbm_output,
    )
    cache_map: Tuple[CacheMapEntry, ...] = tuple(
        entry
        for entry in (
            CacheMapEntry(
                tensor="weight", vcaddr=0, size=0, reuse=False, bypass=True
            ) if layer.weight_elems else None,
            CacheMapEntry(
                tensor="input",
                vcaddr=0,
                size=in_bytes if lbm_input else 0,
                reuse=lbm_input,
                bypass=not lbm_input,
            ),
            CacheMapEntry(
                tensor="output",
                vcaddr=in_bytes if lbm_input else 0,
                size=out_bytes if lbm_output else 0,
                reuse=lbm_output,
                bypass=not lbm_output,
            ),
        )
        if entry is not None
    )
    # The candidate claims the whole block footprint: the region must hold
    # every live intermediate of the block, not just this layer's operands.
    cache_bytes = max(footprint_bytes,
                      (in_bytes if lbm_input else 0)
                      + (out_bytes if lbm_output else 0))
    return MappingCandidate(
        kind="LBM",
        usage_limit_bytes=cache_bytes,
        cache_bytes=cache_bytes,
        dram_bytes=solved.dram_bytes,
        compute_cycles=0,  # filled by the layer mapper
        loop_table=(),
        cache_map=cache_map,
    )
