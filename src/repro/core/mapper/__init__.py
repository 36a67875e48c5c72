"""Cache-aware mapping (Section III-C).

The heuristic-solver-hybrid layer mapper shrinks the tiling problem space
with heuristic rules (:mod:`~repro.core.mapper.heuristics`), splits it into
disjoint subspaces, solves each for minimal DRAM access
(:mod:`~repro.core.mapper.solver`) and emits one candidate per cache-usage
level into the layer's MCT (:mod:`~repro.core.mapper.layer_mapper`).
Layer-block mapping candidates come from :mod:`~repro.core.mapper.lbm`.
"""

from .loopnest import GEMMShape, tile_candidates, trip_count
from .dram_model import TilingChoice, scratchpad_bytes
from .heuristics import HeuristicRules
from .solver import SubspaceSolver
from .layer_mapper import LayerMapper, DEFAULT_USAGE_LEVELS
from .lbm import build_lbm_candidates

__all__ = [
    "GEMMShape",
    "tile_candidates",
    "trip_count",
    "TilingChoice",
    "scratchpad_bytes",
    "HeuristicRules",
    "SubspaceSolver",
    "LayerMapper",
    "DEFAULT_USAGE_LEVELS",
    "build_lbm_candidates",
]
