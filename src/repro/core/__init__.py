"""CaMDN core: the paper's primary contribution.

Architecture (Section III-B): the page allocator over the NPU subspace
(:mod:`~repro.core.pages`) and model-exclusive regions
(:mod:`~repro.core.region`), whose page lists are the per-model cache
page tables.  The way mask is the ``CacheConfig.npu_ways`` split, and
the NPU-exclusive controllers enter as the traffic they move, through
the analytical model of :mod:`~repro.core.mapper.dram_model`.

Scheduling (Sections III-C/D): the cache-aware layer mapper
(:mod:`~repro.core.mapper`), mapping candidate tables
(:mod:`~repro.core.mct`) and the dynamic cache allocation algorithm
(:mod:`~repro.core.allocator`).

:mod:`~repro.core.camdn` ties everything into the
:class:`~repro.core.camdn.CaMDNSystem` facade, and
:mod:`~repro.core.area` reproduces the Table III area breakdown.
"""

from .pages import CachePageAllocator
from .region import ModelRegion, RegionManager
from .mct import (
    CacheMapEntry,
    LoopLevel,
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)
from .allocator import AllocationDecision, DynamicCacheAllocator, TaskState
from .camdn import CaMDNSystem
from .prepared import (
    PreparedModel,
    PreparedWorkload,
    clear_prepared_caches,
    prepare_model,
    prepare_workload,
    prepared_cache_info,
)
from .area import AreaModel, area_breakdown_table
from .serialize import load_mapping_file, save_mapping_file

__all__ = [
    "CachePageAllocator",
    "ModelRegion",
    "RegionManager",
    "CacheMapEntry",
    "LoopLevel",
    "MappingCandidate",
    "MappingCandidateTable",
    "ModelMappingFile",
    "AllocationDecision",
    "DynamicCacheAllocator",
    "TaskState",
    "CaMDNSystem",
    "PreparedModel",
    "PreparedWorkload",
    "prepare_model",
    "prepare_workload",
    "prepared_cache_info",
    "clear_prepared_caches",
    "AreaModel",
    "area_breakdown_table",
    "save_mapping_file",
    "load_mapping_file",
]
