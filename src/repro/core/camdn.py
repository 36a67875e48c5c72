"""The CaMDN system facade (Figure 6, both halves).

:class:`CaMDNSystem` wires the architecture (regions over the NPU subspace)
to the scheduling (offline mapper + Algorithm 1) and exposes the layer-
granular protocol the multi-tenant simulator drives:

1. ``admit_task``   — register a task; run/reuse the offline mapping.
2. ``begin_layer``  — Algorithm 1 selects a candidate; the system tries to
   grant its pages (resizing the task's exclusive region and its CPT).
3. ``retry_layer``  — after a timeout, downgrade to a smaller candidate.
4. ``finish_layer`` — update the predictor arrays.
5. ``retire_task``  — destroy the region, freeing every page.

Steps 2-4 are the one Python form of the per-layer protocol: the CaMDN
schedulers call them for every layer the native batch loop does not
take (and for every layer without native code).  Each resolves the task
id to its (allocator state, region) context once, and raises
:class:`~repro.errors.SimulationError` for a task that was never
admitted or is already retired.

Two modes:

* ``"full"``    — CaMDN(Full): cache-aware mapping + dynamic allocation.
* ``"hw_only"`` — CaMDN(HW-only): the architecture alone; cache capacity is
  split equally among active NPUs with no runtime adjustment (the paper's
  ablation baseline in Figure 7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import SoCConfig
from ..errors import PageAllocationError, SimulationError
from ..models.graph import ModelGraph
from .allocator import AllocationDecision, DynamicCacheAllocator
from .mapper.layer_mapper import LayerMapper
from .mct import ModelMappingFile
from .region import RegionManager


@dataclass
class LayerGrant:
    """Outcome of a begin/retry step for one layer.

    Attributes:
        decision: the (possibly downgraded) allocation decision.
        granted: pages were granted and the CPT updated; the layer may run.
        wait_timeout_s: when not granted, how long Algorithm 1 allows
            waiting before the next downgrade.
    """

    decision: AllocationDecision
    granted: bool
    wait_timeout_s: float = 0.0


#: id(decision) -> (decision, LayerGrant) grant stores, shared by every
#: system of the process.  A decision fully determines both grant
#: outcomes (the denied grant's wait timeout is the decision's own), and
#: the allocator memoizes decisions on the MCT geometry, so each store
#: holds one entry per decision ever granted or denied; the decision is
#: held in the value to pin its id.  Like the mapping-file memo they
#: live until :func:`~repro.core.prepared.clear_prepared_caches`.
_GRANTED: Dict[int, tuple] = {}
_DENIED: Dict[int, tuple] = {}


def _not_admitted(task_id: str) -> SimulationError:
    return SimulationError(
        f"{task_id} is not an admitted CaMDN task (never admitted, or "
        f"already retired)"
    )


class CaMDNSystem:
    """Architecture-scheduling co-design controller."""

    def __init__(self, soc: SoCConfig, mode: str = "full",
                 mapper: Optional[LayerMapper] = None) -> None:
        """Build the run state of one simulation: regions, allocator
        and task contexts.  The grants it hands out come from the
        process-wide ``_GRANTED`` / ``_DENIED`` stores, so every system
        of the process installs the same :class:`LayerGrant` object for
        a decision, and a pickled system carries no grant memo."""
        if mode not in ("full", "hw_only"):
            raise SimulationError(f"unknown CaMDN mode {mode!r}")
        self.soc = soc
        self.mode = mode
        self._hw_only = mode == "hw_only"
        self.mapper = mapper or LayerMapper(soc)
        self.regions = RegionManager(soc.cache)
        self.allocator = DynamicCacheAllocator(
            page_bytes=soc.cache.page_bytes,
            total_pages=soc.cache.num_pages,
        )
        self._graphs: Dict[str, ModelGraph] = {}
        #: task_id -> (allocator TaskState, region): the layer protocol
        #: resolves a task once here instead of per-subsystem dict walks.
        self._ctx: Dict[str, tuple] = {}
        #: HW-only static share ``total_pages // active_tasks``, kept
        #: current by admit/retire instead of being re-divided per layer.
        self._share = self.allocator.total_pages

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def admit_task(self, task_id: str,
                   graph: ModelGraph) -> ModelMappingFile:
        """Register a task and ensure its offline mapping exists."""
        mapping_file = self.mapper.map_model(graph)
        state = self.allocator.register_task(task_id, mapping_file)
        region = self.regions.create_region(task_id, 0)
        self._graphs[task_id] = graph
        self._ctx[task_id] = (state, region)
        self._share = self.allocator.total_pages // max(
            len(self._graphs), 1
        )
        return mapping_file

    def retire_task(self, task_id: str, now: float) -> None:
        """Free the task's region and predictor state."""
        self.allocator.finish_task(task_id, now)
        self.allocator.unregister_task(task_id)
        self.regions.destroy_region(task_id)
        del self._graphs[task_id]
        del self._ctx[task_id]
        self._share = self.allocator.total_pages // max(
            len(self._graphs), 1
        )

    @property
    def active_tasks(self) -> int:
        return len(self._graphs)

    # ------------------------------------------------------------------
    # Fault injection: ECC page retirement
    # ------------------------------------------------------------------

    def retire_pages(self, count: int, rng_key: str) -> Tuple[int, ...]:
        """Permanently retire up to ``count`` SPM pages (ECC fault).

        Victims are drawn without replacement from the non-retired
        population by an RNG seeded with ``rng_key`` (a pure function of
        the fault spec), so retirement is identical across engine paths
        and worker processes.  A free victim retires directly; an owned
        victim is evacuated through the region manager — remapped in
        place when a free page exists, or the owner shrinks by one page
        (the degradation path: future grants flow through the normal MCT
        downgrade geometry against the reduced capacity).  The count is
        clamped so at least one usable page remains.

        Returns the tuple of retired pcpns.
        """
        page_alloc = self.regions.allocator
        count = min(count, page_alloc.usable_pages - 1)
        if count <= 0:
            return ()
        candidates = [
            p for p in range(page_alloc.num_pages)
            if not page_alloc.is_retired(p)
        ]
        rng = random.Random(rng_key)
        victims = rng.sample(candidates, count)
        alloc = self.allocator
        for pcpn in victims:
            # Ownership is resolved per victim at processing time: an
            # earlier victim's evacuation may have granted a later
            # victim as the replacement.
            owner = page_alloc.owner_of(pcpn)
            if owner is None:
                page_alloc.retire_free(pcpn)
                continue
            region = self.regions.region_of(owner)
            shrank = self.regions.retire_owned(region, pcpn)
            if shrank:
                # Forced shrink: sync the dynamic allocator's palloc
                # accounting (the region's owner is an admitted task).
                self._ctx[owner][0].palloc -= 1
        # The logical capacity Algorithm 1 reasons over shrinks with the
        # physical pool (total_pages >= palloc_sum holds: every victim
        # was free or came out of an owner's holding).
        alloc.total_pages -= len(victims)
        self._share = alloc.total_pages // max(len(self._graphs), 1)
        return tuple(victims)

    # ------------------------------------------------------------------
    # Layer protocol
    # ------------------------------------------------------------------

    def begin_layer(self, task_id: str, layer_index: int,
                    now: float) -> LayerGrant:
        """Select a candidate and try to grant its pages."""
        try:
            state, region = self._ctx[task_id]
        except KeyError:
            raise _not_admitted(task_id) from None
        if self._hw_only:
            decision = self._hw_only_decision(state, layer_index)
        else:
            decision = self.allocator.select(state, layer_index, now)
        return self._try_grant(state, region, layer_index, decision)

    def retry_layer(self, task_id: str, layer_index: int,
                    grant: LayerGrant) -> LayerGrant:
        """Timeout path: downgrade and retry (Figure 6 right loop).

        The zero-page fallback always succeeds, so repeated retries
        terminate.
        """
        try:
            state, region = self._ctx[task_id]
        except KeyError:
            raise _not_admitted(task_id) from None
        decision = self.allocator.downgrade(
            state, layer_index, grant.decision
        )
        if decision is None:
            raise SimulationError(
                f"{task_id}: zero-page candidate failed to be granted"
            )
        return self._try_grant(state, region, layer_index, decision)

    def finish_layer(self, task_id: str, layer_index: int,
                     now: float) -> None:
        """Layer boundary: update the prediction arrays."""
        try:
            state = self._ctx[task_id][0]
        except KeyError:
            raise _not_admitted(task_id) from None
        self.allocator.end_layer(state, layer_index, now)

    # ------------------------------------------------------------------

    def _try_grant(self, state, region, layer_index: int,
                   decision: AllocationDecision) -> LayerGrant:
        needed = decision.pages_needed
        if needed != len(region.pcpns):
            if needed - len(region.pcpns) > self.regions.free_pages:
                return self._denied(decision)
            try:
                self.regions.resize(region, needed)
            except PageAllocationError:
                return self._denied(decision)
        self.allocator.commit(state, decision, layer_index)
        return self._granted(decision)

    def _granted(self, decision: AllocationDecision) -> LayerGrant:
        entry = _GRANTED.get(id(decision))
        if entry is None or entry[0] is not decision:
            entry = (decision, LayerGrant(decision=decision, granted=True))
            _GRANTED[id(decision)] = entry
        return entry[1]

    def _denied(self, decision: AllocationDecision) -> LayerGrant:
        entry = _DENIED.get(id(decision))
        if entry is None or entry[0] is not decision:
            entry = (decision, LayerGrant(
                decision=decision,
                granted=False,
                wait_timeout_s=decision.timeout_s,
            ))
            _DENIED[id(decision)] = entry
        return entry[1]

    def _hw_only_decision(self, state,
                          layer_index: int) -> AllocationDecision:
        """CaMDN(HW-only): equal static split, no prediction.

        Each active task gets ``total_pages / active_tasks`` pages; the
        largest candidate fitting that static share is used, preferring LBM
        when it fits.  Decisions are memoized on the MCT geometry keyed
        by the share (and, for LBM, whether the grant enables the block),
        so steady-state selection is a pair of dict probes.
        """
        if not 0 <= layer_index < len(state.geoms):
            state.mapping_file.mct_for(layer_index)  # raises MappingError
        geom = state.geoms[layer_index]
        cache = geom.decision_cache
        lbm_pages = geom.lbm_pages
        if lbm_pages is None and geom.trivial:
            # One candidate, no LBM: the walk always lands on index 0.
            decision = cache.get(0)
            if decision is None:
                decision = AllocationDecision(
                    candidate=state.mcts[layer_index].lwm[0],
                    pages_needed=geom.lwm_pages[0],
                    timeout_s=0.0,
                )
                cache[0] = decision
            return decision
        share = self._share
        if lbm_pages is not None and lbm_pages <= share:
            block = state.lbm_block
            enables = block is None or not (
                block[0] <= layer_index < block[1]
            )
            key = "hw_lbm_on" if enables else "hw_lbm_keep"
            decision = cache.get(key)
            if decision is None:
                decision = AllocationDecision(
                    candidate=state.mcts[layer_index].lbm,
                    pages_needed=lbm_pages,
                    timeout_s=0.0,
                    enables_lbm=enables,
                )
                cache[key] = decision
            return decision
        i = geom.last_fitting_index(share)
        # Bare int keys cannot collide with the allocator's str/tuple
        # keys in the shared decision cache.
        decision = cache.get(i)
        if decision is None:
            decision = AllocationDecision(
                candidate=state.mcts[layer_index].lwm[i],
                pages_needed=geom.lwm_pages[i],
                timeout_s=0.0,
            )
            cache[i] = decision
        return decision

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Cross-check the allocator's page accounting with the regions."""
        self.allocator.check_invariants()
        self.regions.check_invariants()
        for task_id, state in self.allocator.tasks.items():
            region = self.regions.region_of(task_id)
            pages = region.num_pages if region else 0
            if pages != state.palloc:
                raise SimulationError(
                    f"{task_id}: region holds {pages} pages but allocator "
                    f"records {state.palloc}"
                )
