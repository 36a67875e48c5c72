"""Dynamic cache allocation (Section III-D, Algorithm 1).

The algorithm runs at the beginning of every layer of every task.  It keeps
three global arrays, updated at the end of each layer:

* ``Tnext[t]`` — profiling-based predicted time of task ``t``'s next
  reallocation (its next layer boundary);
* ``Pnext[t]`` — pages ``t`` is predicted to need at that reallocation;
* ``Palloc[t]`` — pages currently allocated to ``t``.

``predAvailPages(Tahead, tcur)`` (lines 1-6) sums the currently idle pages
with every page co-tenants are predicted to free before ``Tahead``.  The
selection logic (lines 7-22) prefers an already-enabled LBM block, then
tries to enable LBM at block heads when the predicted availability covers
the block footprint, and otherwise picks the largest LWM candidate fitting
the prediction.  Timeout thresholds are 20 % of the profiled layer (or
block) latency; every timeout downgrades the request to the next-smaller
candidate (Figure 6 right).

This module is the hot path of the CaMDN policies' Python chain, so
the paper's global arrays are stored literally: flat parallel lists
(``Tnext``/``Pnext``/``Palloc``) in task registration order, mirroring
the structure-of-arrays design of :mod:`repro.sim.kernel`.  A running
``sum(Palloc)`` makes :meth:`DynamicCacheAllocator.idle_pages` O(1),
``predAvailPages`` is a tight scan over the flat arrays, and candidate
walks go through the precomputed :class:`~repro.core.mct.MCTGeometry`
``bisect`` tables instead of recomputing ``pages_needed`` per
comparison.  Because every selection input (candidate pages, layer
latency, lookahead fraction) is fixed per MCT, the resulting
:class:`AllocationDecision` objects are immutable and memoized on the
geometry — steady-state ``select`` builds no objects at all.

Every per-layer step (``select``, ``downgrade``, ``commit``,
``end_layer``, ``pred_avail_pages``) takes the task's resolved
:class:`TaskState`, which :meth:`DynamicCacheAllocator.register_task`
returns; :class:`~repro.core.camdn.CaMDNSystem` resolves a task id to it
once per layer step.  :class:`TaskState` stays the public per-task view;
its ``palloc``/``tnext``/``pnext`` attributes are properties that write
through to the arrays, so external mutation (tests, diagnostics) can
never desynchronize the aggregates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from .mct import MappingCandidate, ModelMappingFile

#: Fraction of the profiled latency used as the wait-ahead horizon and
#: timeout threshold (``Test * 0.2`` in Algorithm 1 lines 11 and 16).
LOOKAHEAD_FRACTION = 0.2


class TaskState:
    """Per-task allocation bookkeeping (Algorithm 1's global arrays).

    A view over one slot of the allocator's flat ``Tnext``/``Pnext``/
    ``Palloc`` arrays: reads and writes go straight to the arrays (and
    keep the running ``sum(Palloc)`` aggregate exact), so this object can
    be handed out freely without copying state.
    """

    __slots__ = ("task_id", "mapping_file", "lbm_block", "mcts", "geoms",
                 "heads", "block_est", "ests", "timeouts", "_alloc",
                 "_slot")

    def __init__(self, task_id: str, mapping_file: ModelMappingFile,
                 alloc: "DynamicCacheAllocator", slot: int) -> None:
        self.task_id = task_id
        self.mapping_file = mapping_file
        #: Active LBM block as (start, end), or ``None``.
        self.lbm_block: Optional[Tuple[int, int]] = None
        #: Direct references into the (shared) mapping file's lazy
        #: tables: per-layer MCTs, geometries at the allocator's page
        #: size, block-head flags and block latencies — the per-layer hot
        #: path is list indexing, not method calls or dict probes.
        self.mcts = mapping_file.mcts
        self.geoms = mapping_file.layer_geometries(alloc.page_bytes)
        self.heads = mapping_file.block_head_flags()
        self.block_est = mapping_file.block_latencies()
        self.ests = mapping_file.scaled_latencies(1.0)
        self.timeouts = mapping_file.scaled_latencies(LOOKAHEAD_FRACTION)
        self._alloc = alloc
        self._slot = slot

    @property
    def palloc(self) -> int:
        return self._alloc._palloc[self._slot]

    @palloc.setter
    def palloc(self, pages: int) -> None:
        alloc = self._alloc
        alloc._palloc_sum += pages - alloc._palloc[self._slot]
        alloc._palloc[self._slot] = pages

    @property
    def tnext(self) -> float:
        return self._alloc._tnext[self._slot]

    @tnext.setter
    def tnext(self, t: float) -> None:
        self._alloc._tnext[self._slot] = t

    @property
    def pnext(self) -> int:
        return self._alloc._pnext[self._slot]

    @pnext.setter
    def pnext(self, pages: int) -> None:
        self._alloc._pnext[self._slot] = pages

    def __repr__(self) -> str:
        return (
            f"TaskState(task_id={self.task_id!r}, palloc={self.palloc}, "
            f"tnext={self.tnext}, pnext={self.pnext}, "
            f"lbm_block={self.lbm_block})"
        )


@dataclass(frozen=True)
class AllocationDecision:
    """Output of Algorithm 1 for one layer.

    Attributes:
        candidate: selected mapping (``Mcur``).
        pages_needed: cache pages required (``Pcur``).
        timeout_s: waiting threshold (``Tahead`` as a *deadline instant* is
            kept by the caller; this is the wait budget from "now").
            ``inf`` when LBM is already enabled (line 9).
        enables_lbm: this decision turns LBM on for the layer's block.
    """

    candidate: MappingCandidate
    pages_needed: int
    timeout_s: float
    enables_lbm: bool = False


class DynamicCacheAllocator:
    """Algorithm 1 over a set of co-located tasks."""

    def __init__(self, page_bytes: int, total_pages: int) -> None:
        if page_bytes <= 0 or total_pages <= 0:
            raise SimulationError("page geometry must be positive")
        self.page_bytes = page_bytes
        self.total_pages = total_pages
        # Flat SoA predictor arrays in registration order, plus the
        # per-slot TaskState views and the id -> slot index.
        self._ids: List[str] = []
        self._states: List[TaskState] = []
        self._pos: Dict[str, int] = {}
        self._palloc: List[int] = []
        self._tnext: List[float] = []
        self._pnext: List[int] = []
        #: Running ``sum(Palloc)`` (kept exact by the palloc setter).
        self._palloc_sum: int = 0

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def register_task(self, task_id: str,
                      mapping_file: ModelMappingFile) -> TaskState:
        if task_id in self._pos:
            raise SimulationError(f"{task_id} already registered")
        slot = len(self._ids)
        state = TaskState(task_id, mapping_file, self, slot)
        self._pos[task_id] = slot
        self._ids.append(task_id)
        self._states.append(state)
        self._palloc.append(0)
        self._tnext.append(math.inf)
        self._pnext.append(0)
        return state

    def unregister_task(self, task_id: str) -> None:
        slot = self._pos.pop(task_id, None)
        if slot is None:
            raise SimulationError(f"{task_id} is not registered")
        self._palloc_sum -= self._palloc[slot]
        del self._ids[slot]
        del self._states[slot]
        del self._palloc[slot]
        del self._tnext[slot]
        del self._pnext[slot]
        # Compact: later slots shift down by one (registration order is
        # preserved, mirroring the legacy insertion-ordered dict).
        for j in range(slot, len(self._ids)):
            self._pos[self._ids[j]] = j
            self._states[j]._slot = j

    def task(self, task_id: str) -> TaskState:
        slot = self._pos.get(task_id)
        if slot is None:
            raise SimulationError(f"{task_id} is not registered")
        return self._states[slot]

    @property
    def tasks(self) -> Dict[str, TaskState]:
        return dict(zip(self._ids, self._states))

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------

    def idle_pages(self) -> int:
        """Pages not allocated to any registered task."""
        return self.total_pages - self._palloc_sum

    def pred_avail_pages(self, t_ahead: float, state: TaskState) -> int:
        """``predAvailPages`` (lines 1-6) for ``state``'s task: the idle
        pages plus every page a co-tenant is predicted to free before
        ``t_ahead``.  Sums every task's predicted free, then compensates
        the task's own slot — cheaper than an index test per iteration,
        and identical integer arithmetic (addition is commutative on
        ints).
        """
        p_ahead = self.total_pages - self._palloc_sum
        palloc = self._palloc
        pnext = self._pnext
        tnext = self._tnext
        for t, pa, pn in zip(tnext, palloc, pnext):
            if t < t_ahead:
                p_ahead += pa - pn
        slot = state._slot
        if tnext[slot] < t_ahead:
            p_ahead -= palloc[slot] - pnext[slot]
        return p_ahead

    def select(self, state: TaskState, layer_index: int,
               now: float) -> AllocationDecision:
        """Lines 7-22: pick the mapping candidate for the layer of
        ``state``'s task."""
        if not 0 <= layer_index < len(state.geoms):
            state.mapping_file.mct_for(layer_index)  # raises MappingError
        geom = state.geoms[layer_index]
        cache = geom.decision_cache
        lbm_pages = geom.lbm_pages

        if lbm_pages is not None:
            # Lines 7-9: LBM already enabled for this block.
            block = state.lbm_block
            if block is not None and \
                    block[0] <= layer_index < block[1]:
                decision = cache.get("lbm_sticky")
                if decision is None:
                    decision = AllocationDecision(
                        candidate=state.mcts[layer_index].lbm,
                        pages_needed=lbm_pages,
                        timeout_s=math.inf,
                    )
                    cache["lbm_sticky"] = decision
                return decision

            # Lines 10-15: try to enable LBM at a block head.
            if state.heads[layer_index]:
                timeout = state.block_est[layer_index] * \
                    LOOKAHEAD_FRACTION
                p_ahead = self.pred_avail_pages(now + timeout, state) + \
                    self._palloc[state._slot]
                if lbm_pages < p_ahead:
                    key = ("lbm_head", timeout)
                    decision = cache.get(key)
                    if decision is None:
                        decision = AllocationDecision(
                            candidate=state.mcts[layer_index].lbm,
                            pages_needed=lbm_pages,
                            timeout_s=timeout,
                            enables_lbm=True,
                        )
                        cache[key] = decision
                    return decision

        # Lines 16-22: largest LWM candidate within the prediction.
        timeout = state.timeouts[layer_index]
        if geom.single_level:
            # Every candidate needs the same page count, so the winner is
            # independent of the availability prediction (it is always
            # ``lwm[0]``): skip the ``predAvailPages`` scan.  The cached
            # decision is revalidated against this task's timeout table
            # (decision caches are shared across mapping files only via
            # the file memo, but the check costs one compare).
            decision = cache.get("lwm0")
            if decision is None or decision.timeout_s != timeout:
                decision = AllocationDecision(
                    candidate=state.mcts[layer_index].lwm[0],
                    pages_needed=geom.lwm_pages[0],
                    timeout_s=timeout,
                )
                cache["lwm0"] = decision
            return decision
        p_ahead = self.pred_avail_pages(now + timeout, state) + \
            self._palloc[state._slot]
        i = geom.select_index(p_ahead)
        key = ("lwm", i, timeout)
        decision = cache.get(key)
        if decision is None:
            decision = AllocationDecision(
                candidate=state.mcts[layer_index].lwm[i],
                pages_needed=geom.lwm_pages[i],
                timeout_s=timeout,
            )
            cache[key] = decision
        return decision

    def downgrade(self, state: TaskState, layer_index: int,
                  decision: AllocationDecision
                  ) -> Optional[AllocationDecision]:
        """Timeout path: the next-smaller candidate, or ``None`` when
        already at the zero-page fallback (which always succeeds).

        Downgraded decisions are memoized on the geometry like selection
        results (keyed by candidate index and carried timeout): repeated
        timeout storms reuse one immutable object per step, which also
        keeps the grant memos keyed on decision identity bounded.
        """
        if not 0 <= layer_index < len(state.mcts):
            state.mapping_file.mct_for(layer_index)  # raises MappingError
        mct = state.mcts[layer_index]
        geom = state.geoms[layer_index]
        cache = geom.decision_cache
        if decision.candidate.kind == "LBM":
            # Dropping out of LBM: fall back to the best-fitting LWM.
            key = ("dg", len(geom.lwm_pages) - 1, decision.timeout_s)
            downgraded = cache.get(key)
            if downgraded is None:
                downgraded = AllocationDecision(
                    candidate=mct.lwm[-1],
                    pages_needed=geom.lwm_pages[-1],
                    timeout_s=decision.timeout_s,
                )
                cache[key] = downgraded
            return downgraded
        i = geom.next_smaller_index(
            decision.candidate.pages_needed(self.page_bytes)
        )
        if i < 0:
            return None
        key = ("dg", i, decision.timeout_s)
        downgraded = cache.get(key)
        if downgraded is None:
            downgraded = AllocationDecision(
                candidate=mct.lwm[i],
                pages_needed=geom.lwm_pages[i],
                timeout_s=decision.timeout_s,
            )
            cache[key] = downgraded
        return downgraded

    # ------------------------------------------------------------------
    # Bookkeeping at layer boundaries
    # ------------------------------------------------------------------

    def commit(self, state: TaskState, decision: AllocationDecision,
               layer_index: int) -> None:
        """Record a successful page grant for ``state``'s task."""
        slot = state._slot
        pages = decision.pages_needed
        self._palloc_sum += pages - self._palloc[slot]
        self._palloc[slot] = pages
        if decision.enables_lbm:
            state.lbm_block = state.mapping_file.block_of(layer_index)

    def end_layer(self, state: TaskState, layer_index: int,
                  now: float) -> None:
        """Update ``Tnext``/``Pnext`` at the end of a layer (the paper's
        "updated at the end of each layer").

        ``Tnext`` is the predicted end of the *next* layer (the task's next
        reallocation opportunity after the imminent one); ``Pnext`` is the
        pages it is predicted to hold then — the LBM footprint while inside
        an enabled block, otherwise the largest LWM candidate not exceeding
        the current allocation (tasks tend to stay at their usage level).
        """
        slot = state._slot
        ests = state.ests
        block = state.lbm_block
        next_index = layer_index + 1
        if next_index >= len(ests):
            # Last layer: everything frees at completion.
            self._tnext[slot] = now + state.mcts[layer_index].est_latency_s
            self._pnext[slot] = 0
            if block and layer_index >= block[1] - 1:
                state.lbm_block = None
            return
        self._tnext[slot] = now + ests[next_index]
        geom = state.geoms[next_index]
        if block is not None and geom.lbm_pages is not None and \
                block[0] <= next_index < block[1]:
            self._pnext[slot] = geom.lbm_pages
        elif geom.single_level:
            unique = geom.unique_pages
            self._pnext[slot] = unique[0] if unique and \
                unique[0] <= self._palloc[slot] else 0
        else:
            unique = geom.unique_pages
            k = bisect_right(unique, self._palloc[slot]) - 1
            self._pnext[slot] = unique[k] if k >= 0 else 0
        if block and layer_index >= block[1] - 1:
            state.lbm_block = None

    def finish_task(self, tcur: str, now: float) -> None:
        """Mark a completed inference: all pages become reclaimable."""
        slot = self._pos.get(tcur)
        if slot is None:
            raise SimulationError(f"{tcur} is not registered")
        self._palloc_sum -= self._palloc[slot]
        self._palloc[slot] = 0
        self._pnext[slot] = 0
        self._tnext[slot] = math.inf
        self._states[slot].lbm_block = None

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Total allocated pages never exceed the NPU subspace, and the
        running aggregate agrees with the array it summarizes."""
        total = sum(self._palloc)
        if total != self._palloc_sum:
            raise SimulationError(
                f"palloc aggregate {self._palloc_sum} != array sum {total}"
            )
        if total > self.total_pages:
            raise SimulationError(
                f"allocated {total} pages > {self.total_pages} available"
            )
        for task_id, slot in self._pos.items():
            if self._ids[slot] != task_id or \
                    self._states[slot]._slot != slot:
                raise SimulationError(
                    f"{task_id}: SoA slot index out of sync"
                )
