"""Mapping candidate tables (Section III-C3, Figure 6 middle).

The offline mapping phase emits, per layer, a *mapping candidate table*
(MCT) holding one layer-wise mapping (LWM) candidate per cache-usage level
plus one layer-block mapping (LBM) candidate.  Candidates are stored in a
compact format — a loop table (permutation + factors) and a cache map table
(how tensors land in vcaddr space) — instead of unrolled NPU instructions,
so storing many candidates per layer stays cheap.

Algorithm 1 runs against every MCT at the beginning of every layer of
every task, so each MCT lazily builds an :class:`MCTGeometry` — the
page-granular view of its candidates at one page size (``Pneed`` per
candidate, distinct page counts sorted for ``bisect``, the LBM
footprint).  The geometry turns the allocator's candidate walks into
O(log |LWM|) lookups while reproducing the exact semantics of the
original linear scans (first-of-max on selection, last-below on
downgrade), so allocation decisions are bit-identical.  Geometries are
cached on the MCT keyed by page size; an MCT's ``lwm``/``lbm`` must not
be mutated after its first geometry is built (call
:meth:`MappingCandidateTable.invalidate_geometry` if a test must).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import MappingError


@dataclass(frozen=True)
class LoopLevel:
    """One entry of a candidate's loop table.

    Attributes:
        dim: loop dimension name (``"m"``, ``"n"`` or ``"k"`` after GEMM
            lowering).
        factor: tile trip count at this level (outer loops) or tile size
            (innermost level), mirroring Figure 6's factor rows.
        level: memory level the loop iterates over (``"dram"``, ``"cache"``
            or ``"npu"``).
    """

    dim: str
    factor: int
    level: str

    def __post_init__(self) -> None:
        if self.dim not in ("m", "n", "k"):
            raise MappingError(f"unknown loop dim {self.dim!r}")
        if self.factor <= 0:
            raise MappingError(f"loop factor must be positive ({self.dim})")
        if self.level not in ("dram", "cache", "npu"):
            raise MappingError(f"unknown memory level {self.level!r}")


@dataclass(frozen=True)
class CacheMapEntry:
    """One row of a candidate's cache map table (Figure 6).

    Attributes:
        tensor: ``"weight"``, ``"input"``, ``"output"`` or ``"bias"``.
        vcaddr: base virtual cache address of the tensor (byte offset in
            the model's exclusive region); meaningless when bypassed.
        size: bytes the tensor occupies in cache (0 when bypassed).
        reuse: the tensor is retained in cache for reuse.
        bypass: the tensor streams through bypass semantics and never
            occupies cache space.
    """

    tensor: str
    vcaddr: int
    size: int
    reuse: bool
    bypass: bool

    def __post_init__(self) -> None:
        if self.size < 0 or self.vcaddr < 0:
            raise MappingError(f"{self.tensor}: negative size/vcaddr")
        if self.bypass and self.size:
            raise MappingError(f"{self.tensor}: bypassed but sized")
        if self.reuse and self.bypass:
            raise MappingError(f"{self.tensor}: reuse and bypass conflict")


@dataclass(frozen=True)
class MappingCandidate:
    """One mapping of one layer, at one cache-usage level.

    Attributes:
        kind: ``"LWM"`` or ``"LBM"``.
        usage_limit_bytes: the cache-usage level this candidate targets.
        cache_bytes: bytes of cache the candidate actually uses.
        dram_bytes: predicted DRAM traffic for executing the layer with
            this mapping (the solver's objective).
        compute_cycles: NPU cycles for the layer.
        loop_table: loop permutation and factors.
        cache_map: per-tensor cache placement rows.
    """

    kind: str
    usage_limit_bytes: int
    cache_bytes: int
    dram_bytes: float
    compute_cycles: int
    loop_table: Tuple[LoopLevel, ...] = ()
    cache_map: Tuple[CacheMapEntry, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("LWM", "LBM"):
            raise MappingError(f"unknown candidate kind {self.kind!r}")
        if self.cache_bytes > self.usage_limit_bytes:
            raise MappingError(
                f"candidate uses {self.cache_bytes} B over its "
                f"{self.usage_limit_bytes} B level"
            )
        if self.dram_bytes < 0 or self.compute_cycles < 0:
            raise MappingError("negative cost in mapping candidate")
        mapped = sum(e.size for e in self.cache_map if not e.bypass)
        if mapped > max(self.cache_bytes, 0):
            raise MappingError(
                f"cache map places {mapped} B but candidate claims "
                f"{self.cache_bytes} B"
            )

    def pages_needed(self, page_bytes: int) -> int:
        """Cache pages (``Pneed``) this candidate requires."""
        return math.ceil(self.cache_bytes / page_bytes)


class MCTGeometry:
    """Page-granular view of one MCT at one page size.

    Precomputed once per (MCT, ``page_bytes``) so Algorithm 1's candidate
    walks become array lookups.  All index methods reproduce the exact
    pick order of the original linear scans, including on LWM lists that
    are not sorted by page need (legal for hand-built test MCTs):

    * :meth:`select_index` — earliest candidate achieving the largest
      page count ``<= budget`` (falling back to ``lwm[0]``), matching the
      selection loop of Algorithm 1 lines 16-22;
    * :meth:`last_fitting_index` — last candidate with pages
      ``<= budget`` (the HW-only static-split walk);
    * :meth:`next_smaller_index` — last candidate with pages strictly
      below a target (the timeout downgrade walk).

    ``decision_cache`` is an opaque scratch dict for higher layers (the
    dynamic allocator memoizes immutable per-candidate decision objects
    there); this module never reads it.
    """

    __slots__ = (
        "page_bytes", "lwm_pages", "lbm_pages", "unique_pages",
        "first_of_unique", "last_of_unique", "is_sorted", "single_level",
        "trivial", "decision_cache",
    )

    def __init__(self, mct: "MappingCandidateTable",
                 page_bytes: int) -> None:
        if page_bytes <= 0:
            raise MappingError("page_bytes must be positive")
        self.page_bytes = page_bytes
        self.lwm_pages: Tuple[int, ...] = tuple(
            c.pages_needed(page_bytes) for c in mct.lwm
        )
        self.lbm_pages: Optional[int] = (
            mct.lbm.pages_needed(page_bytes)
            if mct.lbm is not None else None
        )
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        for i, pages in enumerate(self.lwm_pages):
            if pages not in first:
                first[pages] = i
            last[pages] = i
        self.unique_pages: List[int] = sorted(first)
        self.first_of_unique: List[int] = [
            first[p] for p in self.unique_pages
        ]
        self.last_of_unique: List[int] = [
            last[p] for p in self.unique_pages
        ]
        self.is_sorted: bool = all(
            a <= b for a, b in zip(self.lwm_pages, self.lwm_pages[1:])
        )
        #: Every LWM candidate needs the same page count (true for
        #: streaming pool/element-wise layers, which have one zero-cache
        #: candidate): selection is independent of the page budget, so
        #: the allocator can skip ``predAvailPages`` entirely.
        self.single_level: bool = len(self.unique_pages) <= 1
        #: Exactly one LWM candidate: every walk returns index 0.
        self.trivial: bool = len(self.lwm_pages) == 1
        self.decision_cache: Dict = {}

    # ------------------------------------------------------------------
    # Candidate lookups (exact replicas of the original linear scans)
    # ------------------------------------------------------------------

    def select_index(self, budget: int) -> int:
        """Index of the selection-loop winner for a page ``budget``.

        The original scan starts from ``lwm[0]`` and only moves to a
        candidate needing *strictly more* pages, so a value no larger
        than ``lwm[0]``'s own need can never win — the fallback stays
        index 0 even when smaller candidates fit (relevant only for
        unsorted hand-built MCTs; validated MCTs lead with zero pages).
        """
        k = bisect_right(self.unique_pages, budget) - 1
        if k < 0 or self.unique_pages[k] <= self.lwm_pages[0]:
            return 0
        return self.first_of_unique[k]

    def last_fitting_index(self, budget: int) -> int:
        """Index of the HW-only walk winner for a page ``budget``."""
        if self.is_sorted:
            k = bisect_right(self.lwm_pages, budget) - 1
            return k if k >= 0 else 0
        k = bisect_right(self.unique_pages, budget) - 1
        if k < 0:
            return 0
        return max(self.last_of_unique[: k + 1])

    def next_smaller_index(self, target_pages: int) -> int:
        """Index of the last candidate strictly below ``target_pages``
        (``-1`` when none exists — the zero-page floor)."""
        if self.is_sorted:
            return bisect_left(self.lwm_pages, target_pages) - 1
        best = -1
        for i, pages in enumerate(self.lwm_pages):
            if pages < target_pages:
                best = i
        return best


@dataclass
class MappingCandidateTable:
    """All candidates of one layer.

    Attributes:
        layer_index: position in the model graph.
        layer_name: layer name (for reporting).
        lwm: LWM candidates sorted by ascending cache usage; the first
            entry is the zero-cache fallback every layer must have.
        lbm: the LBM candidate, or ``None`` for layers where LBM is
            impossible (e.g. the intermediate footprint exceeds the cache).
        est_latency_s: profiling-based layer latency estimate
            (``layer.Test`` in Algorithm 1), filled by the profiler.
    """

    layer_index: int
    layer_name: str
    lwm: List[MappingCandidate] = field(default_factory=list)
    lbm: Optional[MappingCandidate] = None
    est_latency_s: float = 0.0
    #: Lazily-built geometries keyed by page size; never serialized.
    _geometry: Dict[int, MCTGeometry] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def geometry(self, page_bytes: int) -> MCTGeometry:
        """The (cached) page-granular view at ``page_bytes``.

        The candidate lists must not change after the first call; tests
        that rebuild ``lwm``/``lbm`` in place must call
        :meth:`invalidate_geometry`.
        """
        geom = self._geometry.get(page_bytes)
        if geom is None:
            geom = MCTGeometry(self, page_bytes)
            self._geometry[page_bytes] = geom
        return geom

    def invalidate_geometry(self) -> None:
        """Drop cached geometries after an in-place candidate edit."""
        self._geometry.clear()

    def validate(self, page_bytes: int) -> None:
        """Check MCT invariants used by Algorithm 1's candidate walk."""
        if not self.lwm:
            raise MappingError(
                f"layer {self.layer_name}: MCT has no LWM candidates"
            )
        pages = [c.pages_needed(page_bytes) for c in self.lwm]
        if pages != sorted(pages):
            raise MappingError(
                f"layer {self.layer_name}: LWM candidates not sorted by "
                f"page need"
            )
        if self.lwm[0].cache_bytes != 0:
            raise MappingError(
                f"layer {self.layer_name}: missing zero-cache fallback"
            )


@dataclass
class ModelMappingFile:
    """Offline mapping output for one model (Figure 6 left).

    Attributes:
        model_name: model this file belongs to.
        usage_levels: the cache-usage levels (bytes) the mapper targeted.
        mcts: one MCT per layer, in execution order.
        blocks: LBM layer blocks as (start, end) index pairs.

    The block lookup tables (layer -> block, per-layer block latency) are
    built lazily on first use and assume ``blocks`` and the MCTs'
    ``est_latency_s`` are final by then — true for mapper- and
    serializer-produced files; tests that mutate them afterwards must
    call :meth:`invalidate_caches`.
    """

    model_name: str
    usage_levels: Tuple[int, ...]
    mcts: List[MappingCandidateTable]
    blocks: List[Tuple[int, int]] = field(default_factory=list)
    #: layer -> containing block table; ``None`` until first use.
    _layer_blocks: Optional[List[Optional[Tuple[int, int]]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: page_bytes -> per-layer geometry tuple; built on first use.
    _layer_geoms: Dict[int, Tuple[MCTGeometry, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _head_flags: Optional[Tuple[bool, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _block_lat: Optional[Tuple[float, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: factor -> per-layer ``est_latency_s * factor`` tuples (the
    #: allocator caches its timeout horizon here; factor 1.0 is the raw
    #: latency table).
    _scaled_lat: Dict[float, Tuple[float, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def invalidate_caches(self) -> None:
        """Drop the lazy block tables (after mutating blocks/latencies)."""
        self._layer_blocks = None
        self._head_flags = None
        self._block_lat = None
        self._scaled_lat.clear()
        self._layer_geoms.clear()
        for mct in self.mcts:
            mct.invalidate_geometry()

    def scaled_latencies(self, factor: float) -> Tuple[float, ...]:
        """Per-layer ``est_latency_s * factor`` (cached per factor)."""
        table = self._scaled_lat.get(factor)
        if table is None:
            if factor == 1.0:
                table = tuple(m.est_latency_s for m in self.mcts)
            else:
                table = tuple(
                    m.est_latency_s * factor for m in self.mcts
                )
            self._scaled_lat[factor] = table
        return table

    def layer_geometries(self, page_bytes: int) -> Tuple[MCTGeometry, ...]:
        """Per-layer geometries at ``page_bytes``, built once per file.

        Mapping files are memoized process-wide, so every task of the
        same model shares this tuple: the allocator indexes it per layer
        instead of probing each MCT's geometry cache.
        """
        geoms = self._layer_geoms.get(page_bytes)
        if geoms is None:
            geoms = tuple(
                mct.geometry(page_bytes) for mct in self.mcts
            )
            self._layer_geoms[page_bytes] = geoms
        return geoms

    def _layer_block_table(self) -> List[Optional[Tuple[int, int]]]:
        table = self._layer_blocks
        if table is None:
            table = [None] * len(self.mcts)
            for start, end in self.blocks:
                block = (start, end)
                for i in range(start, min(end, len(table))):
                    table[i] = block
            self._layer_blocks = table
        return table

    def block_head_flags(self) -> Tuple[bool, ...]:
        """Per-layer flags: the layer heads its LBM block (Algorithm 1
        line 10; cached)."""
        flags = self._head_flags
        if flags is None:
            flags = tuple(
                block is not None and block[0] == i
                for i, block in enumerate(self._layer_block_table())
            )
            self._head_flags = flags
        return flags

    def block_latencies(self) -> Tuple[float, ...]:
        """Per-layer ``layerBlock.Test``: the profiled latency of the
        whole block containing the layer, or the layer's own latency
        outside every block (cached table)."""
        lat = self._block_lat
        if lat is None:
            mcts = self.mcts
            lat = tuple(
                mct.est_latency_s if block is None else sum(
                    mcts[j].est_latency_s
                    for j in range(block[0], block[1])
                )
                for mct, block in zip(mcts, self._layer_block_table())
            )
            self._block_lat = lat
        return lat

    def mct_for(self, layer_index: int) -> MappingCandidateTable:
        if not 0 <= layer_index < len(self.mcts):
            raise MappingError(
                f"{self.model_name}: no MCT for layer {layer_index}"
            )
        return self.mcts[layer_index]

    def block_of(self, layer_index: int) -> Optional[Tuple[int, int]]:
        """The (start, end) block containing ``layer_index``."""
        if not 0 <= layer_index < len(self.mcts):
            # Out-of-table layers are never inside a block (preserves the
            # pre-table behavior of scanning the block list directly).
            for start, end in self.blocks:
                if start <= layer_index < end:
                    return (start, end)
            return None
        return self._layer_block_table()[layer_index]

    def total_dram_bytes(self, level_bytes: int) -> float:
        """Whole-model DRAM traffic if every layer ran its largest LWM
        candidate within ``level_bytes`` (a static what-if helper)."""
        total = 0.0
        for mct in self.mcts:
            fitting = [
                c for c in mct.lwm if c.cache_bytes <= level_bytes
            ]
            total += min(c.dram_bytes for c in fitting) if fitting \
                else mct.lwm[0].dram_bytes
        return total
