"""The cache-aware layer mapper (Section III-C, Figure 6 left).

For each layer the mapper generates one LWM candidate per cache-usage level
(the ``CUs`` list of Figure 6: 0 KiB, 256 KiB, 512 KiB, ...) plus an LBM
candidate, writes them into the layer's MCT, and bundles all MCTs into the
model's mapping file.  Latency estimates (``Test`` in Algorithm 1) come from
the systolic compute model and a fair-share bandwidth assumption, playing
the role of the paper's profiling pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Tuple

from ...config import KiB, MiB, SoCConfig
from ...models.graph import ModelGraph
from ...models.layers import LayerKind, LayerSpec
from ...npu.systolic import SystolicModel
from ..mct import (
    CacheMapEntry,
    LoopLevel,
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)
from .dram_model import TilingChoice, refetch_factors
from .lbm import build_lbm_candidates, plan_blocks
from .loopnest import GEMMShape, trip_count
from .solver import SolvedMapping, SubspaceSolver

#: Environment override for the on-disk mapping-file cache location; an
#: empty value disables disk persistence (the process memo remains).
MAPPING_CACHE_DIR_ENV = "REPRO_MAPPING_CACHE_DIR"


def mapping_cache_dir() -> Optional[Path]:
    """Resolved mapping-file cache directory, or ``None`` when disabled."""
    from ..serialize import resolve_cache_dir

    return resolve_cache_dir(MAPPING_CACHE_DIR_ENV, "mappings")


#: Figure 6's cache-usage levels: 0 KiB, 256 KiB, 512 KiB, 1 MiB, 2 MiB,
#: 4 MiB.  The paper's list is open-ended ("[0KB, 256KB, 512KB, ...]");
#: :func:`usage_levels_for` extends it for larger caches.
DEFAULT_USAGE_LEVELS: Tuple[int, ...] = (
    0,
    256 * KiB,
    512 * KiB,
    1 * MiB,
    2 * MiB,
    4 * MiB,
)


def usage_levels_for(soc: SoCConfig) -> Tuple[int, ...]:
    """Cache-usage levels adapted to the SoC's NPU subspace.

    Doubling levels from 256 KiB up to a third of the NPU subspace: a
    single tenant should never be offered a candidate that monopolizes the
    shared NPU subspace, but larger caches must expose larger levels or
    CaMDN cannot exploit them (the paper's Figure 8 shows CaMDN's advantage
    *growing* with cache capacity).
    """
    ceiling = max(soc.cache.npu_subspace_bytes // 3, 256 * KiB)
    levels = [0]
    level = 256 * KiB
    while level <= ceiling:
        levels.append(level)
        level *= 2
    return tuple(levels)


@dataclass
class LayerMapper:
    """Offline cache-aware mapper for one SoC configuration.

    Attributes:
        soc: hardware configuration (``HC`` input of Figure 6).
        usage_levels: cache-usage levels (``CU`` input of Figure 6).
        lbm_occupancy_fraction: block budget as a fraction of the NPU
            subspace.
    """

    soc: SoCConfig
    usage_levels: Optional[Tuple[int, ...]] = None
    lbm_occupancy_fraction: float = 0.25

    #: Process-wide memo shared by every mapper instance: offline mapping
    #: is deterministic in (model, relevant hardware parameters), and the
    #: experiment sweeps re-map the same eight models many times.
    _SHARED_CACHE: ClassVar[Dict[tuple, ModelMappingFile]] = {}

    def __post_init__(self) -> None:
        if self.usage_levels is None:
            self.usage_levels = usage_levels_for(self.soc)
        self._solver = SubspaceSolver(self.soc.npu, self.soc.dtype_bytes)
        self._systolic = SystolicModel(self.soc.npu)

    def _memo_key(self, graph: ModelGraph) -> tuple:
        """Every input of a mapping file, in memory and on disk: the
        candidates' compute cycles depend on the PE array and
        ``dwconv_efficiency``, and each MCT's ``est_latency_s`` (which
        sets Algorithm 1's timeouts and ``Tnext``) on the clock and the
        DRAM bandwidth as well."""
        soc = self.soc
        return (
            graph.name,
            soc.npu.scratchpad_bytes,
            soc.npu.pe_rows,
            soc.npu.pe_cols,
            soc.npu.frequency_hz,
            soc.npu.dwconv_efficiency,
            soc.dram.total_bandwidth_bytes_per_s,
            soc.cache.npu_subspace_bytes,
            soc.cache.page_bytes,
            soc.dtype_bytes,
            soc.num_npu_cores,
            self.usage_levels,
            self.lbm_occupancy_fraction,
        )

    # ------------------------------------------------------------------

    def map_model(self, graph: ModelGraph) -> ModelMappingFile:
        """Run the offline mapping phase for ``graph`` (memoized).

        Two cache layers: the process-wide memo, then the on-disk
        mapping-file store (the persisted "Model Mapping File" of
        Figure 6 — real deployments persist the offline phase's output,
        and so do we).  Disk entries are keyed by a content hash of the
        memo key plus the package version and round-trip through the
        exact JSON serializers of :mod:`repro.core.serialize`, so a
        loaded mapping is float-for-float the one that was solved.
        """
        key = self._memo_key(graph)
        cached = self._SHARED_CACHE.get(key)
        if cached is not None:
            return cached
        disk_path = self._disk_path(key)
        loaded = self._load_disk(disk_path)
        if loaded is not None:
            self._SHARED_CACHE[key] = loaded
            return loaded
        mapping_file = self._solve_model(graph)
        self._SHARED_CACHE[key] = mapping_file
        self._store_disk(disk_path, mapping_file)
        return mapping_file

    def _disk_path(self, key: tuple) -> Optional[Path]:
        cache_dir = mapping_cache_dir()
        if cache_dir is None:
            return None
        from ... import __version__
        from ..serialize import source_content_salt, stable_content_hash

        digest = stable_content_hash({
            "repro_version": __version__,
            "source_salt": source_content_salt(),
            "key": list(key),
        })
        return cache_dir / f"{digest}.json"

    @staticmethod
    def _load_disk(path: Optional[Path]) -> Optional[ModelMappingFile]:
        """A persisted mapping file, or ``None`` on miss/corruption.

        A present entry that does not load (truncated write, corruption,
        another schema version) is logged and unlinked so the mapping
        re-solves and the entry is rebuilt transparently.
        """
        if path is None or not path.exists():
            return None
        from ..serialize import load_mapping_file

        try:
            return load_mapping_file(path)
        except Exception as exc:
            import logging

            logging.getLogger(__name__).warning(
                "mapping cache entry %s corrupt (%s); invalidating and "
                "re-solving", path.name, exc,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None

    @staticmethod
    def _store_disk(path: Optional[Path],
                    mapping_file: ModelMappingFile) -> None:
        if path is None:
            return
        from ..serialize import atomic_write_text, mapping_file_to_json

        # Best-effort: a failed write must not fail the mapping phase.
        atomic_write_text(path, mapping_file_to_json(mapping_file))

    def _solve_model(self, graph: ModelGraph) -> ModelMappingFile:
        blocks = plan_blocks(graph, self.soc, self.lbm_occupancy_fraction)
        lbm_candidates = build_lbm_candidates(
            graph, blocks, self._solver, self.soc
        )

        mcts: List[MappingCandidateTable] = []
        for i, layer in enumerate(graph.layers):
            mct = self._map_layer(layer, i)
            lbm = lbm_candidates.get(i)
            if lbm is not None:
                mct.lbm = MappingCandidate(
                    kind=lbm.kind,
                    usage_limit_bytes=lbm.usage_limit_bytes,
                    cache_bytes=lbm.cache_bytes,
                    dram_bytes=lbm.dram_bytes,
                    compute_cycles=self._systolic.layer_cycles(layer),
                    loop_table=lbm.loop_table,
                    cache_map=lbm.cache_map,
                )
            mct.est_latency_s = self._estimate_latency(layer, mct)
            mct.validate(self.soc.cache.page_bytes)
            mcts.append(mct)

        return ModelMappingFile(
            model_name=graph.name,
            usage_levels=self.usage_levels,
            mcts=mcts,
            blocks=[(b.start, b.end) for b in blocks],
        )

    # ------------------------------------------------------------------

    def _map_layer(self, layer: LayerSpec,
                   layer_index: int) -> MappingCandidateTable:
        """Generate the LWM candidates of one layer across usage levels."""
        mct = MappingCandidateTable(
            layer_index=layer_index, layer_name=layer.name
        )
        if layer.kind in (LayerKind.POOL, LayerKind.ELEMWISE):
            mct.lwm = [self._streaming_candidate(layer)]
            return mct

        shape = GEMMShape.of(layer)
        # One candidate per footprint: the first level's, unless a later
        # level moves strictly less DRAM.  A candidate carries its
        # solver result's footprint and DRAM bytes, so only the kept
        # results are packaged.
        kept: Dict[int, Tuple[SolvedMapping, int]] = {}
        for level in self.usage_levels:
            solved = self._solver.solve(shape, usage_limit_bytes=level)
            existing = kept.get(solved.cache_bytes)
            if existing is None or \
                    solved.dram_bytes < existing[0].dram_bytes:
                kept[solved.cache_bytes] = (solved, level)
        mct.lwm = [
            self._to_candidate(layer, shape, *kept[cache_bytes])
            for cache_bytes in sorted(kept)
        ]
        return mct

    def _streaming_candidate(self, layer: LayerSpec) -> MappingCandidate:
        """Pool/element-wise layers stream both operands (bypass)."""
        dtype = self.soc.dtype_bytes
        dram = (layer.input_elems + layer.output_elems) * dtype
        cache_map = (
            CacheMapEntry(tensor="input", vcaddr=0, size=0, reuse=False,
                          bypass=True),
            CacheMapEntry(tensor="output", vcaddr=0, size=0, reuse=False,
                          bypass=True),
        )
        return MappingCandidate(
            kind="LWM",
            usage_limit_bytes=0,
            cache_bytes=0,
            dram_bytes=float(dram),
            compute_cycles=self._systolic.layer_cycles(layer),
            cache_map=cache_map,
        )

    def _to_candidate(
        self,
        layer: LayerSpec,
        shape: GEMMShape,
        solved: SolvedMapping,
        level: int,
    ) -> MappingCandidate:
        """Package a solver result as an MCT entry."""
        choice = solved.choice
        loop_table = (
            LoopLevel("m", trip_count(shape.m, choice.tm), "dram"),
            LoopLevel("n", trip_count(shape.n, choice.tn), "dram"),
            LoopLevel("k", trip_count(shape.k, choice.tk), "dram"),
            LoopLevel(choice.innermost, 1, "cache"),
            LoopLevel("m", choice.tm, "npu"),
            LoopLevel("n", choice.tn, "npu"),
            LoopLevel("k", choice.tk, "npu"),
        )
        cache_map = self._cache_map(layer, shape, choice)
        return MappingCandidate(
            kind="LWM",
            usage_limit_bytes=level,
            cache_bytes=solved.cache_bytes,
            dram_bytes=solved.dram_bytes,
            compute_cycles=self._systolic.layer_cycles(layer),
            loop_table=loop_table,
            cache_map=cache_map,
        )

    def _cache_map(
        self, layer: LayerSpec, shape: GEMMShape, choice: TilingChoice
    ) -> Tuple[CacheMapEntry, ...]:
        """Lay pinned tensors out in vcaddr space; others are bypassed."""
        dtype = self.soc.dtype_bytes
        sizes = {
            "weight": shape.weight_elems * dtype,
            "input": shape.input_elems * dtype,
            "output": shape.output_elems * dtype,
        }
        factors = refetch_factors(shape, choice)
        entries: List[CacheMapEntry] = []
        vcaddr = 0
        for tensor in ("weight", "input", "output"):
            if tensor == "weight" and not layer.weight_elems:
                continue
            if tensor in choice.pinned:
                entries.append(
                    CacheMapEntry(
                        tensor=tensor,
                        vcaddr=vcaddr,
                        size=sizes[tensor],
                        reuse=factors[tensor] > 1,
                        bypass=False,
                    )
                )
                vcaddr += sizes[tensor]
            else:
                entries.append(
                    CacheMapEntry(
                        tensor=tensor, vcaddr=0, size=0, reuse=False,
                        bypass=True,
                    )
                )
        return tuple(entries)

    def _estimate_latency(self, layer: LayerSpec,
                          mct: MappingCandidateTable) -> float:
        """Profiling-style ``Test``: compute/memory max at fair bandwidth."""
        compute_s = (
            self._systolic.layer_cycles(layer) / self.soc.npu.frequency_hz
        )
        fair_bw = (
            self.soc.dram.total_bandwidth_bytes_per_s
            / self.soc.num_npu_cores
        )
        smallest = mct.lwm[0]
        memory_s = smallest.dram_bytes / fair_bw
        return max(compute_s, memory_s)

    # ------------------------------------------------------------------

    def mapping_stats(self, graph: ModelGraph) -> Dict[str, float]:
        """Aggregate statistics of a model's mapping file (for reports)."""
        mf = self.map_model(graph)
        level_traffic = {
            level: mf.total_dram_bytes(level) for level in self.usage_levels
        }
        base = level_traffic[0]
        best = min(level_traffic.values())
        return {
            "layers": len(mf.mcts),
            "blocks": len(mf.blocks),
            "lbm_layers": sum(1 for m in mf.mcts if m.lbm is not None),
            "dram_bytes_level0": base,
            "dram_bytes_best_level": best,
            "traffic_reduction": 1.0 - best / base if base else 0.0,
        }
