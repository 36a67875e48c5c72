"""Shared machinery of the two CaMDN scheduler variants.

Both variants drive a :class:`~repro.core.camdn.CaMDNSystem` through the
engine's layer protocol: a layer start is one ``CaMDNSystem.begin_layer``
call (a timeout one ``retry_layer`` call) and a layer end one
``finish_layer`` call.  The native batch loop takes most non-final
completions itself from the completion tables built here; every other
layer reaches the system's protocol.  The variants differ only in the
system mode (``full`` vs ``hw_only``) and in the optional AuRORA-style
QoS integration (the paper's Figure 9 configuration gives CaMDN the same
bandwidth and NPU allocation algorithms as AuRORA).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SoCConfig
from ..core.allocator import LOOKAHEAD_FRACTION, AllocationDecision
from ..core.camdn import CaMDNSystem, LayerGrant
from ..errors import SimulationError
from ..memory.bwalloc import DemandProportionalPolicy, SlackWeightedPolicy
from ..sim.native import TABLE_CAMDN
from ..sim.task import LayerWork, TaskInstance
from .base import SchedulerPolicy

#: With multicast, extra cores add only a small per-core control traffic
#: overhead instead of replicating tensors.
MULTICAST_TRAFFIC_OVERHEAD = 0.05

#: NEC transfers are explicit bulk streams (whole tiles/pages in order), so
#: they sustain near-peak DRAM efficiency regardless of tenant count.
CAMDN_DRAM_EFFICIENCY = 0.92

#: Process-wide layer-work memos, one per SoC: id(candidate) ->
#: (candidate, {cores: (LayerWork, 0.0)}, is_lbm).  A granted candidate
#: fully determines its work on one SoC (model layer -> compute cycles,
#: candidate -> DRAM bytes, cores -> multicast factor).  The key is the
#: whole SoC, which covers every field the mapping-file key and the
#: layer cycles read.  The candidate is held in the value so its id
#: cannot be reused while the entry lives.  Each
#: memo grows like the mapping memo, per SoC and model, until
#: :func:`~repro.core.prepared.clear_prepared_caches` empties the store.
_WORKS: Dict[SoCConfig, Dict[int, tuple]] = {}

#: Process-wide native completion tables, one per (SoC, HW-only flag):
#: id(mapping_file) -> (mapping_file, rows, pairs) (see
#: ``_build_fast_file``).  The flag is part of the key because one
#: selection code stands for different decisions under HW-only and Full
#: (see ``_build_fast_pair``).  Grows like :data:`_WORKS`.
_FAST_FILES: Dict[Tuple[SoCConfig, bool], Dict[int, tuple]] = {}


class CaMDNSchedulerBase(SchedulerPolicy):
    """Engine adapter around :class:`CaMDNSystem`."""

    #: CaMDN system mode; overridden by subclasses.
    mode = "full"

    def __init__(self, qos_mode: bool = False, urgency: float = 3.0,
                 floor: float = 0.02,
                 lbm_occupancy_fraction: Optional[float] = None) -> None:
        """Configure the policy; :meth:`attach` builds the run state.

        The completion memos are not run state: the layer works
        (``_work_cache``) and the native completion tables
        (``_fast_files``) are the process-wide stores :data:`_WORKS`
        and :data:`_FAST_FILES` of the attached SoC (and mode), so
        every cell of a process on that SoC reuses, and installs, the
        entries earlier cells built.
        """
        super().__init__()
        self.qos_mode = qos_mode
        self._bw_policy = SlackWeightedPolicy(urgency=urgency, floor=floor)
        self._demand_policy = DemandProportionalPolicy(floor=floor)
        self.lbm_occupancy_fraction = lbm_occupancy_fraction
        self.system: Optional[CaMDNSystem] = None
        self._work_cache: Optional[Dict[int, tuple]] = None
        self._fast_files: Optional[Dict[int, tuple]] = None
        self._timeouts = 0
        self._lbm_layers = 0
        self._tenant_admits = 0
        self._tenant_retires = 0
        self._pages_retired = 0

    def attach(self, soc: SoCConfig) -> None:
        super().attach(soc)
        self._tenant_admits = 0
        self._tenant_retires = 0
        self._pages_retired = 0
        mapper = None
        if self.lbm_occupancy_fraction is not None:
            from ..core.mapper.layer_mapper import LayerMapper

            mapper = LayerMapper(
                soc, lbm_occupancy_fraction=self.lbm_occupancy_fraction
            )
        self.system = CaMDNSystem(soc, mode=self.mode, mapper=mapper)
        self._timeouts = 0
        self._lbm_layers = 0
        self._freq_hz = soc.npu.frequency_hz
        self._bind_system()

    def _bind_system(self) -> None:
        """Fetch the process-wide memo stores of this SoC and mode, and
        build the native completion tables of every task the system
        carries: a restored system's tasks started in another process,
        whose stores may be cold."""
        system = self.system
        self._work_cache = _WORKS.setdefault(self.soc, {})
        self._fast_files = _FAST_FILES.setdefault(
            (self.soc, system._hw_only), {}
        )
        for state, _ in system._ctx.values():
            self._ensure_fast_file(state.mapping_file)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """The whole :class:`CaMDNSystem` (allocator SoA arrays, regions,
        CPT, page reverse maps, task contexts) rides the payload by
        reference — the ``_ctx`` tuples are the very objects pinned on
        the instances' ``sched_ctx``, and one shared pickle keeps those
        identities.  The completion memos are process-wide module
        stores, so no payload carries them."""
        state = super().snapshot_state()
        state.update(
            qos_mode=self.qos_mode,
            bw_policy=self._bw_policy,
            demand_policy=self._demand_policy,
            lbm_occupancy_fraction=self.lbm_occupancy_fraction,
            system=self.system,
            timeouts=self._timeouts,
            lbm_layers=self._lbm_layers,
            tenant_admits=self._tenant_admits,
            tenant_retires=self._tenant_retires,
            pages_retired=self._pages_retired,
        )
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.qos_mode = state["qos_mode"]
        self._bw_policy = state["bw_policy"]
        self._demand_policy = state["demand_policy"]
        self.lbm_occupancy_fraction = state["lbm_occupancy_fraction"]
        self.system = state["system"]
        self._timeouts = state["timeouts"]
        self._lbm_layers = state["lbm_layers"]
        self._tenant_admits = state["tenant_admits"]
        self._tenant_retires = state["tenant_retires"]
        self._pages_retired = state["pages_retired"]
        # The restored system's tasks need native completion tables.
        self._bind_system()

    # ------------------------------------------------------------------
    # Core allocation (AuRORA-compatible in QoS mode)
    # ------------------------------------------------------------------

    def cores_for(self, instance: TaskInstance, free_cores: int) -> int:
        if not self.qos_mode or free_cores < 2:
            return 1
        if instance.qos_target_s == float("inf"):
            return 1
        est = self.est_isolated_latency_s(instance)
        if est > 0.7 * instance.qos_target_s:
            return min(2, free_cores)
        return 1

    # ------------------------------------------------------------------
    # Layer protocol
    # ------------------------------------------------------------------

    def on_tenant_admit(self, stream_id: str, graph, now: float) -> None:
        """Run (or reuse) the model's offline mapping at admission time,
        so a tenant joining mid-run pays the mapping cost here rather
        than inside its first inference's ``begin_layer`` chain."""
        self.system.mapper.map_model(graph)
        self._tenant_admits += 1

    def on_tenant_retire(self, stream_id: str, now: float) -> None:
        """Departure audit: the tenant's in-flight inference (if any) was
        already ended or cancelled through :meth:`on_task_end`, so no
        allocator task, region or pages may remain under its stream id.
        A leak here means churn left cache pages orphaned."""
        self._tenant_retires += 1
        prefix = f"{stream_id}#"
        for task_id in self.system.allocator.tasks:
            if task_id.startswith(prefix):
                raise SimulationError(
                    f"tenant {stream_id} retired with allocator state "
                    f"still registered for {task_id}"
                )

    def on_pages_retired(self, count: int, rng_key: str,
                         now: float) -> Tuple[int, ...]:
        """ECC fault: evacuate and permanently retire SPM pages.

        Delegates to :meth:`CaMDNSystem.retire_pages` — owned victims
        are remapped or shrunk out of their regions, the MCT geometry
        then downgrades future grants against the reduced capacity
        (graceful degradation through the existing Figure 6 loop, no
        crash path).
        """
        retired = self.system.retire_pages(count, rng_key)
        self._pages_retired += len(retired)
        return retired

    def on_task_start(self, instance: TaskInstance, now: float) -> None:
        self.system.admit_task(instance.instance_id, instance.graph)
        # Pin the resolved (state, region) context on the instance: the
        # native batch loop and its memo builder read the task's
        # predictor slot and region from it.
        ctx = self.system._ctx[instance.instance_id]
        instance.sched_ctx = ctx
        self._ensure_fast_file(ctx[0].mapping_file)

    def begin_layer(self, instance: TaskInstance, now: float
                    ) -> Tuple[Optional[LayerWork], float]:
        grant = self.system.begin_layer(
            instance.instance_id, instance.layer_index, now
        )
        return self._grant_to_work(instance, grant)

    def timeout_layer(self, instance: TaskInstance, now: float
                      ) -> Tuple[Optional[LayerWork], float]:
        self._timeouts += 1
        grant = self.system.retry_layer(
            instance.instance_id, instance.layer_index,
            instance.sched_scratch,
        )
        return self._grant_to_work(instance, grant)

    def on_layer_end(self, instance: TaskInstance, now: float) -> None:
        self.system.finish_layer(
            instance.instance_id, instance.layer_index, now
        )

    def on_task_end(self, instance: TaskInstance, now: float) -> None:
        self.system.retire_task(instance.instance_id, now)
        instance.sched_scratch = None
        instance.sched_ctx = None

    # ------------------------------------------------------------------
    # Native completion-handler support tables
    # ------------------------------------------------------------------

    def native_batch_args(self) -> tuple:
        """The CaMDN completion table of one native batch-loop call:
        the allocator's predictor lists and page totals, the HW-only
        static share, the HW-only flag, the :meth:`_build_fast_file`
        tables, the regions' page allocator, the allocator itself and
        the memo builder :meth:`_build_fast_pair`.  The engine fetches
        this tuple per call: the loop resizes regions (the page moves
        of ``RegionManager.resize``) and writes the moved
        ``_palloc_sum`` back to the allocator, and the other totals
        change only between calls.  The tables are the process-wide
        store of this SoC and mode, so the loop takes the memo entries
        an earlier cell of the process built, and builds the missing
        ones through the builder."""
        system = self.system
        alloc = system.allocator
        return (
            TABLE_CAMDN,
            alloc._tnext, alloc._pnext, alloc._palloc, alloc.total_pages,
            alloc._palloc_sum, system._share,
            1 if system._hw_only else 0, self._fast_files,
            system.regions.allocator, alloc, self._build_fast_pair,
        )

    def add_lbm_layers(self, count: int) -> None:
        """Count LBM layers whose completions the native batch loop
        handled (the ``is_lbm`` flags of the memo entries it took)."""
        self._lbm_layers += count

    def _ensure_fast_file(self, mf) -> None:
        """Build the mapping file's :meth:`_build_fast_file` tables
        unless the process-wide store holds them."""
        ft = self._fast_files.get(id(mf))
        if ft is None or ft[0] is not mf:
            self._build_fast_file(mf)

    def _build_fast_file(self, mf) -> None:
        """Precompute the per-layer geometry rows the C completion
        handler reads, plus one ``(grant, (work, 0.0), is_lbm)`` memo
        dict per layer keyed by ``code * 64 + cores``.  Built when a
        task of the model starts (or a restored system is bound), so
        the batch loop finds the tables of every task it sees.

        One table per mapping file, SoC and mode (shared by every task
        of the model in every cell of the process): every row field is
        a frozen per-layer constant — candidate page
        counts, block bounds, profiled latencies and their timeout
        scalings — so the C side never touches a Python object graph
        beyond one tuple row and the predictor lists.
        """
        geoms = mf.layer_geometries(self.system.allocator.page_bytes)
        heads = mf.block_head_flags()
        block_est = mf.block_latencies()
        ests = mf.scaled_latencies(1.0)
        touts = mf.scaled_latencies(LOOKAHEAD_FRACTION)
        blocks = mf._layer_block_table()
        rows = []
        pairs: List[dict] = []
        for i, geom in enumerate(geoms):
            blk = blocks[i]
            rows.append((
                -1 if geom.lbm_pages is None else geom.lbm_pages,
                1 if heads[i] else 0,
                -1 if blk is None else blk[0],
                -1 if blk is None else blk[1],
                block_est[i] * LOOKAHEAD_FRACTION,
                ests[i],
                touts[i],
                1 if geom.single_level else 0,
                1 if geom.is_sorted else 0,
                1 if geom.trivial else 0,
                tuple(geom.unique_pages),
                tuple(geom.first_of_unique),
                tuple(geom.last_of_unique),
                tuple(geom.lwm_pages),
            ))
            pairs.append({})
        self._fast_files[id(mf)] = (mf, rows, pairs)

    def _build_fast_pair(self, instance: TaskInstance, layer_index: int,
                         code: int) -> None:
        """Memo miss of the native batch loop, called from C in the
        middle of a completion that moves ``instance`` to
        ``layer_index`` with the C selection ``code``: rebuild the
        decision the code denotes — through the same geometry decision
        cache the Python chain uses, so both paths create identical
        cache entries at the first occurrence — and store its
        ``(grant, (work, 0.0), is_lbm)`` entry under
        ``code * 64 + cores``.

        It changes no run state: the loop then takes the entry as on a
        hit, doing the grant's page moves, palloc commit, predictions
        and LBM block itself.  Nor may it read ``instance.layer_index``
        (hence the layer argument): the loop holds the instance's layer
        until it returns."""
        state = instance.sched_ctx[0]
        geom = state.geoms[layer_index]
        cache = geom.decision_cache
        mct = state.mcts[layer_index]
        if self.system._hw_only:
            if code < 2:
                enables = code == 0
                key = "hw_lbm_on" if enables else "hw_lbm_keep"
                decision = cache.get(key)
                if decision is None:
                    decision = AllocationDecision(
                        candidate=mct.lbm,
                        pages_needed=geom.lbm_pages,
                        timeout_s=0.0,
                        enables_lbm=enables,
                    )
                    cache[key] = decision
            else:
                i = code - 2
                decision = cache.get(i)
                if decision is None:
                    decision = AllocationDecision(
                        candidate=mct.lwm[i],
                        pages_needed=geom.lwm_pages[i],
                        timeout_s=0.0,
                    )
                    cache[i] = decision
        elif code == 0:
            decision = cache.get("lbm_sticky")
            if decision is None:
                decision = AllocationDecision(
                    candidate=mct.lbm,
                    pages_needed=geom.lbm_pages,
                    timeout_s=math.inf,
                )
                cache["lbm_sticky"] = decision
        elif code == 1:
            timeout = state.block_est[layer_index] * LOOKAHEAD_FRACTION
            key = ("lbm_head", timeout)
            decision = cache.get(key)
            if decision is None:
                decision = AllocationDecision(
                    candidate=mct.lbm,
                    pages_needed=geom.lbm_pages,
                    timeout_s=timeout,
                    enables_lbm=True,
                )
                cache[key] = decision
        elif code == 2:
            timeout = state.timeouts[layer_index]
            decision = cache.get("lwm0")
            if decision is None or decision.timeout_s != timeout:
                decision = AllocationDecision(
                    candidate=mct.lwm[0],
                    pages_needed=geom.lwm_pages[0],
                    timeout_s=timeout,
                )
                cache["lwm0"] = decision
        else:
            i = code - 3
            timeout = state.timeouts[layer_index]
            key = ("lwm", i, timeout)
            decision = cache.get(key)
            if decision is None:
                decision = AllocationDecision(
                    candidate=mct.lwm[i],
                    pages_needed=geom.lwm_pages[i],
                    timeout_s=timeout,
                )
                cache[key] = decision
        candidate = decision.candidate
        wentry = self._work_entry(candidate)
        pair = wentry[1].get(instance.cores)
        if pair is None:
            pair = self._build_work(instance, layer_index, candidate,
                                    wentry)
        ft = self._fast_files[id(state.mapping_file)]
        ft[2][layer_index][code * 64 + instance.cores] = (
            self.system._granted(decision), pair, wentry[2]
        )

    # ------------------------------------------------------------------

    def _work_entry(self, candidate) -> tuple:
        """The candidate's ``(candidate, {cores: (work, 0.0)}, is_lbm)``
        work-cache entry (created on first sight)."""
        entry = self._work_cache.get(id(candidate))
        if entry is None or entry[0] is not candidate:
            entry = (candidate, {}, candidate.kind == "LBM")
            self._work_cache[id(candidate)] = entry
        return entry

    def _grant_to_work(self, instance: TaskInstance, grant: LayerGrant
                       ) -> Tuple[Optional[LayerWork], float]:
        instance.sched_scratch = grant
        if not grant.granted:
            timeout = grant.wait_timeout_s
            if math.isinf(timeout):
                # Defensive: never hand the engine an unbounded wait.
                # The registered mapping file is the same memoized object
                # map_model() would return, without rebuilding its key.
                mf = self.system.allocator.task(
                    instance.instance_id
                ).mapping_file
                timeout = max(
                    mf.mcts[instance.layer_index].est_latency_s * 0.2,
                    1e-6,
                )
            return None, timeout
        candidate = grant.decision.candidate
        entry = self._work_entry(candidate)
        if entry[2]:
            self._lbm_layers += 1
        pair = entry[1].get(instance.cores)
        if pair is None:
            pair = self._build_work(instance, instance.layer_index,
                                    candidate, entry)
        return pair

    def _build_work(self, instance: TaskInstance, layer_index: int,
                    candidate, entry: tuple) -> Tuple[LayerWork, float]:
        """Build and cache the ``(LayerWork, 0.0)`` pair for a granted
        candidate of layer ``layer_index`` on this instance's core
        count."""
        dram = candidate.dram_bytes
        if instance.cores > 1:
            # Multicast combines the per-core identical reads.
            dram *= 1.0 + MULTICAST_TRAFFIC_OVERHEAD * \
                (instance.cores - 1)
        work = LayerWork(
            compute_cycles=self.compute_cycles(instance, layer_index),
            dram_bytes=dram,
        )
        pair = (work, 0.0)
        entry[1][instance.cores] = pair
        return pair

    # ------------------------------------------------------------------

    def dram_efficiency(self, num_running: int) -> float:
        return CAMDN_DRAM_EFFICIENCY

    def rate_kernel(self) -> Optional[tuple]:
        """Non-QoS mode is plain demand-proportional over the remaining
        work; QoS mode is AuRORA's slack-weighted rule.  Both are
        expressible as fused specs."""
        if self.qos_mode:
            return (
                "slack_weighted",
                self._bw_policy.urgency,
                self._bw_policy.floor,
            )
        return ("demand_prop", self._demand_policy.floor)

    def bandwidth_shares(
        self,
        insts: Sequence[TaskInstance],
        rem_compute: Sequence[float],
        rem_dram: Sequence[float],
        now: float,
    ) -> List[float]:
        """Demand-proportional shares by default (bandwidth allocation is
        orthogonal to CaMDN and the baselines also manage it); AuRORA's
        slack-weighted allocation in QoS mode (the Figure 9 integration).
        """
        if not insts:
            return []
        freq = self._freq_hz
        demands = [
            (rem_d if rem_d > 1.0 else 1.0)
            / (t if (t := rem_c / freq) > 1e-9 else 1e-9)
            for rem_c, rem_d in zip(rem_compute, rem_dram)
        ]
        if not self.qos_mode:
            return self._demand_policy.allocate(demands)
        slack_of = self.slack_of
        est_of = self.est_isolated_latency_s
        slacks = [
            slack_of(inst, now, est_of(inst)) for inst in insts
        ]
        return self._bw_policy.allocate(demands, slacks)

    def stats(self) -> Dict[str, float]:
        return {
            "timeouts": float(self._timeouts),
            "lbm_layers": float(self._lbm_layers),
            "tenant_admits": float(self._tenant_admits),
            "tenant_retires": float(self._tenant_retires),
            "pages_retired": float(self._pages_retired),
        }
