"""Unmanaged shared-cache baseline (the Section II-C motivation setup).

Every tenant's traffic flows through the transparent shared cache; nothing
partitions bandwidth or cache.  This is the configuration behind Figure 2:
hit rate collapses and memory access grows as tenants are added.

Traffic model: a layer's cache-level accesses are its compulsory tensor
fetches *plus* the scratchpad-tiling refetch traffic.  The refetch volume
comes from the same zero-cache-budget mapping the CaMDN compiler produces
(identical tiling hardware), but where CaMDN retains refetched data in an
exclusive region, the baseline trusts the transparent cache: refetches have
short reuse distances (the layer's working set) and hit when the machine is
lightly loaded, then spill to DRAM as co-tenants inflate stack distances —
the mechanism behind Figure 2's memory-access growth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache.transparent import AccessSegment, TransparentCacheModel
from ..config import SoCConfig
from ..models.graph import ModelGraph
from ..sim.native import TABLE_WORKS
from ..sim.task import LayerWork, TaskInstance
from .base import SchedulerPolicy

#: Traffic replication factor per extra core when a model spans NPUs
#: without multicast support (partial input/weight duplication).
CORE_TRAFFIC_REPLICATION = 0.3

#: DRAM efficiency of demand-miss traffic: a lone tenant keeps some row
#: locality; fully interleaved tenants degrade toward the scattered-access
#: floor.  eta(N) = FLOOR + LOCALITY_BONUS / N.
DRAM_EFF_FLOOR = 0.55
DRAM_EFF_LOCALITY_BONUS = 0.30

#: Process-wide layer-work memos, one per SoC, shared by the baseline,
#: MoCA and AuRORA (they cost layers alike): (model name, contention
#: factor, cores) -> one list per model indexed by layer, ``None`` until
#: the layer is first costed.  Layer cost is a pure function of the
#: model layer, the factor, the core count and the whole SoC (cache
#: capacity, access segments and layer cycles).  Each memo grows like
#: the mapping memo, per SoC, model and factor, until
#: :func:`~repro.core.prepared.clear_prepared_caches` empties the store.
_WORK_MEMOS: Dict[SoCConfig, Dict[tuple, List[Optional[LayerWork]]]] = {}


class SharedCacheBaseline(SchedulerPolicy):
    """Transparent shared cache, equal bandwidth, one core per task."""

    name = "baseline"

    #: Equal split + membership-dependent efficiency: rates only change
    #: when the running set changes, so the engine may cache them.
    dynamic_rates = False

    def __init__(self) -> None:
        """Configure the policy; :meth:`attach` builds the run state.

        The layer-work memo (``_work_memo``) is not run state: it lives
        per process and per SoC in :data:`_WORK_MEMOS`, which
        :meth:`attach` fetches.  The same layers recur once per
        inference and in every cell of the process on that SoC, so the
        steady state, and every later cell, is served from it.
        """
        super().__init__()
        self._cache_model: Optional[TransparentCacheModel] = None
        self._active_ids: set = set()
        self._work_memo: Optional[
            Dict[tuple, List[Optional[LayerWork]]]] = None
        #: Tenants currently admitted (dynamic-tenancy bookkeeping).
        self._tenants: Dict[str, ModelGraph] = {}
        self._tenant_admits = 0
        self._tenant_retires = 0

    def attach(self, soc: SoCConfig) -> None:
        super().attach(soc)
        self._cache_model = TransparentCacheModel(soc.cache.total_bytes)
        self._active_ids = set()
        self._work_memo = _WORK_MEMOS.setdefault(soc, {})
        self._tenants = {}
        self._tenant_admits = 0
        self._tenant_retires = 0

    # ------------------------------------------------------------------
    # Tenant lifecycle (dynamic tenancy)
    # ------------------------------------------------------------------

    def on_tenant_admit(self, stream_id: str, graph: ModelGraph,
                        now: float) -> None:
        """Warm the model's prepared artifacts (segments, layer cycles)
        off the inference hot path and register the tenant."""
        self._tenants[stream_id] = graph
        self._tenant_admits += 1
        self._model_segments(graph)

    def on_tenant_retire(self, stream_id: str, now: float) -> None:
        self._tenants.pop(stream_id, None)
        self._tenant_retires += 1

    def stats(self) -> Dict[str, float]:
        return {
            "tenant_admits": float(self._tenant_admits),
            "tenant_retires": float(self._tenant_retires),
        }

    def snapshot_state(self) -> dict:
        # _cache_model is a pure capacity constant rebuilt by attach(),
        # and _work_memo a process-wide store; only the tenant and
        # running-set bookkeeping is genuine run state.
        state = super().snapshot_state()
        state.update(
            active_ids=self._active_ids,
            tenants=self._tenants,
            tenant_admits=self._tenant_admits,
            tenant_retires=self._tenant_retires,
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._active_ids = state["active_ids"]
        self._tenants = state["tenants"]
        self._tenant_admits = state["tenant_admits"]
        self._tenant_retires = state["tenant_retires"]

    # ------------------------------------------------------------------

    def _model_segments(self, graph: ModelGraph
                        ) -> Tuple[Tuple[AccessSegment, ...], ...]:
        """Per-layer segments (from the prepared-model fast path)."""
        return self.prepared_for(graph).segments

    # ------------------------------------------------------------------

    def contention_factor(self) -> float:
        """Effective reuse-distance inflation: the number of started
        tasks.

        The engine does not pass the running set into ``begin_layer``, so
        the policy tracks it via task start/end hooks.
        """
        return float(max(len(self._active_ids), 1))

    def on_task_start(self, instance: TaskInstance, now: float) -> None:
        self._active_ids.add(instance.instance_id)

    def on_task_end(self, instance: TaskInstance, now: float) -> None:
        self._active_ids.discard(instance.instance_id)

    def dram_efficiency(self, num_running: int) -> float:
        """Scattered demand misses: row locality decays with tenant count.
        """
        return DRAM_EFF_FLOOR + DRAM_EFF_LOCALITY_BONUS / max(
            num_running, 1
        )

    def native_batch_args(self) -> tuple:
        """The layer-work memo and the current contention factor: the C
        batch loop installs a non-final completion's next layer from
        the memo list of its (model name, factor, cores), exactly as
        :meth:`begin_layer` would (``on_layer_end`` is the base no-op),
        and hands back empty slots and last layers.  The memo is the
        process-wide store of this SoC, so slots an earlier cell of the
        process filled are taken too.  Only task start and end change
        the factor, and those run in Python."""
        return (TABLE_WORKS, self._work_memo, self.contention_factor())

    def begin_layer(self, instance: TaskInstance, now: float
                    ) -> Tuple[Optional[LayerWork], float]:
        factor = self.contention_factor()
        key = (instance.graph.name, factor, instance.cores)
        works = self._work_memo.get(key)
        if works is None:
            works = [None] * len(instance.graph.layers)
            self._work_memo[key] = works
        work = works[instance.layer_index]
        if work is not None:
            return work, 0.0
        segments = self._model_segments(
            instance.graph
        )[instance.layer_index]
        dram, hits, accesses = self._cache_model.layer_traffic(
            segments, contention_factor=factor
        )
        if instance.cores > 1:
            replication = 1.0 + CORE_TRAFFIC_REPLICATION * \
                (instance.cores - 1)
            dram *= replication
        work = LayerWork(
            compute_cycles=self.compute_cycles(instance,
                                               instance.layer_index),
            dram_bytes=dram,
            hit_bytes=hits,
            access_bytes=accesses,
        )
        works[instance.layer_index] = work
        return work, 0.0
