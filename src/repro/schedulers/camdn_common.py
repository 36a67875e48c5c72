"""Shared machinery of the two CaMDN scheduler variants.

Both variants drive a :class:`~repro.core.camdn.CaMDNSystem` through the
engine's layer protocol; they differ only in the system mode (``full`` vs
``hw_only``) and in the optional AuRORA-style QoS integration (the paper's
Figure 9 configuration gives CaMDN the same bandwidth and NPU allocation
algorithms as AuRORA).
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


class CaMDNSchedulerBase(SchedulerPolicy):
    """Engine adapter around :class:`CaMDNSystem`."""

    #: CaMDN system mode; overridden by subclasses.
    mode = "full"

    def __init__(self, qos_mode: bool = False, urgency: float = 3.0,
                 floor: float = 0.02,
                 usage_levels: Optional[tuple] = None,
                 lbm_occupancy_fraction: Optional[float] = None) -> None:
        super().__init__()
        self.qos_mode = qos_mode
        self._bw_policy = SlackWeightedPolicy(urgency=urgency, floor=floor)
        self._demand_policy = DemandProportionalPolicy(floor=floor)
        self.usage_levels = usage_levels
        self.lbm_occupancy_fraction = lbm_occupancy_fraction
        self.system: Optional[CaMDNSystem] = None
        #: id(candidate) -> (candidate, {cores: LayerWork}).  A granted
        #: candidate fully determines its LayerWork (model layer ->
        #: compute cycles, candidate -> DRAM bytes, cores -> multicast
        #: factor), and the allocator memoizes decisions per MCT, so the
        #: same few candidates recur every inference of a stream.  The
        #: candidate is held in the value so the id key can never be
        #: reused by a new object while the entry lives.
        self._work_cache: Dict[int, tuple] = {}
        self._timeouts = 0
        self._lbm_layers = 0
        self._tenant_admits = 0
        self._tenant_retires = 0
        self._pages_retired = 0
        #: id(mapping_file) -> (mapping_file, rows, pairs) tables for
        #: the native completion handler (see _build_fast_file).
        self._fast_files: Dict[int, tuple] = {}
        #: The native completion handler, installed by the engine
        #: (bind_native); None keeps advance_layer in Python.
        self._advance_native = None
        self._alloc = None

    def attach(self, soc: SoCConfig) -> None:
        super().attach(soc)
        self._tenant_admits = 0
        self._tenant_retires = 0
        self._pages_retired = 0
        mapper = None
        if self.usage_levels is not None or \
                self.lbm_occupancy_fraction is not None:
            from ..core.mapper.layer_mapper import LayerMapper

            kwargs = {}
            if self.usage_levels is not None:
                kwargs["usage_levels"] = tuple(self.usage_levels)
            if self.lbm_occupancy_fraction is not None:
                kwargs["lbm_occupancy_fraction"] = \
                    self.lbm_occupancy_fraction
            mapper = LayerMapper(soc, **kwargs)
        self.system = CaMDNSystem(soc, mode=self.mode, mapper=mapper)
        self._work_cache = {}
        self._timeouts = 0
        self._lbm_layers = 0
        self._freq_hz = soc.npu.frequency_hz
        # Bound hot-path methods: the per-layer chain runs twice per
        # simulated event, so the attribute walks are resolved once.
        self._alloc_end = self.system.allocator.end_layer_prepared
        self._alloc_select = self.system.allocator.select_prepared
        self._sys_try = self.system._try_grant
        self._sys_hw = (
            self.system._hw_only_decision
            if self.system._hw_only else None
        )
        self._alloc = self.system.allocator
        self._fast_files = {}
        self._advance_native = None

    def bind_native(self, advance) -> None:
        """Install the engine's native completion handler
        (``_batchstep.camdn_advance``), or ``None`` for the pure-Python
        chain.  The engine calls this after every attach or restore, so
        a run without native code never reaches it."""
        self._advance_native = advance

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """The whole :class:`CaMDNSystem` (allocator SoA arrays, regions,
        CPT, page reverse maps, task contexts) rides the payload by
        reference — the ``_ctx`` tuples are the very objects pinned on
        the instances' ``sched_ctx``, and one shared pickle keeps those
        identities.  The id-keyed work cache is a pure memo and stays
        behind."""
        state = super().snapshot_state()
        state.update(
            qos_mode=self.qos_mode,
            bw_policy=self._bw_policy,
            demand_policy=self._demand_policy,
            usage_levels=self.usage_levels,
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
        self.usage_levels = state["usage_levels"]
        self.lbm_occupancy_fraction = state["lbm_occupancy_fraction"]
        self.system = state["system"]
        self._timeouts = state["timeouts"]
        self._lbm_layers = state["lbm_layers"]
        self._tenant_admits = state["tenant_admits"]
        self._tenant_retires = state["tenant_retires"]
        self._pages_retired = state["pages_retired"]
        # id()-keyed memos never survive a process change; rebuilt
        # lazily with identical pure values.
        self._work_cache = {}
        # Re-bind the hot-path methods to the restored system (attach()
        # bound them to the fresh one it built, now discarded).
        self._alloc_end = self.system.allocator.end_layer_prepared
        self._alloc_select = self.system.allocator.select_prepared
        self._sys_try = self.system._try_grant
        self._sys_hw = (
            self.system._hw_only_decision
            if self.system._hw_only else None
        )
        self._alloc = self.system.allocator
        self._fast_files = {}
        self._advance_native = None

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
        crash path).  The bound ``_sys_try`` hot path stays valid:
        retirement mutates the shared allocator in place.
        """
        retired = self.system.retire_pages(count, rng_key)
        self._pages_retired += len(retired)
        return retired

    def on_task_start(self, instance: TaskInstance, now: float) -> None:
        self.system.admit_task(instance.instance_id, instance.graph)
        # Pin the resolved (state, region) context on the instance: the
        # per-layer hooks read a slot attribute instead of hashing the
        # instance id into the context dict twice per simulated event.
        instance.sched_ctx = self.system._ctx[instance.instance_id]

    def begin_layer(self, instance: TaskInstance, now: float
                    ) -> Tuple[Optional[LayerWork], float]:
        # Flattened CaMDNSystem.begin_layer: the context pinned at task
        # start leads straight into the allocator — this chain runs
        # twice per simulated event, so the facade wrappers are bypassed.
        ctx = instance.sched_ctx
        if ctx is None:
            grant = self.system.begin_layer(  # raises "not registered"
                instance.instance_id, instance.layer_index, now
            )
            return self._grant_to_work(instance, grant)
        state, region = ctx
        layer_index = instance.layer_index
        hw = self._sys_hw
        if hw is not None:
            decision = hw(state, layer_index)
        else:
            decision = self._alloc_select(state, layer_index, now)
        grant = self._sys_try(state, region, layer_index, decision)
        return self._grant_to_work(instance, grant)

    def poll_layer(self, instance: TaskInstance, now: float
                   ) -> Tuple[Optional[LayerWork], float]:
        # Re-select with fresh predictions; pages may have been freed.
        return self.begin_layer(instance, now)

    def advance_layer(self, instance: TaskInstance, now: float
                      ) -> Tuple[Optional[LayerWork], float]:
        """Fused engine hook: end-of-layer bookkeeping plus next-layer
        selection in one call (resolves the task context once).  Must
        behave exactly like ``on_layer_end`` -> ``layer_index += 1`` ->
        ``begin_layer``; the engine only calls it when the next layer
        exists."""
        ctx = instance.sched_ctx
        if ctx is None:
            # Defensive fallback to the split protocol (raises there).
            self.on_layer_end(instance, now)
            instance.layer_index += 1
            return self.begin_layer(instance, now)
        state, region = ctx
        layer_index = instance.layer_index
        fast = self._advance_native
        if fast is not None:
            # Native per-completion fast path: end-of-layer predictor
            # update, next-layer selection and the no-resize grant in
            # one C call.  None means the C side bailed without mutating
            # anything; the Python chain below then owns the event.
            mf = state.mapping_file
            ft = self._fast_files.get(id(mf))
            if ft is None or ft[0] is not mf:
                ft = self._build_fast_file(mf)
            nxt = layer_index + 1
            rows = ft[1]
            if nxt < len(rows):
                alloc = self._alloc
                block = state.lbm_block
                if block is not None:
                    ls, le = block
                else:
                    ls = le = -1
                res = fast(
                    alloc._tnext, alloc._pnext, alloc._palloc,
                    state._slot, now, alloc.total_pages,
                    alloc._palloc_sum, ls, le, layer_index,
                    len(region.pcpns), rows[nxt],
                    1 if self._sys_hw is not None else 0,
                    self.system._share,
                )
                if res is not None:
                    code, nls, nle = res
                    if nls != ls or nle != le:
                        # block_of returns the mapping file's canonical
                        # block tuple — the very object the Python chain
                        # would install, keeping pickled object graphs
                        # (snapshot bytes) identical across paths.
                        state.lbm_block = (
                            None if nls < 0 else mf.block_of(nxt)
                        )
                    instance.layer_index = nxt
                    # cores is capped at 2 (cores_for), so packing the
                    # selection code above it can never collide.
                    entry = ft[2][nxt].get(code * 64 + instance.cores)
                    if entry is None:
                        entry = self._build_fast_pair(
                            instance, state, region, nxt, code, ft
                        )
                    instance.sched_scratch = entry[0]
                    if entry[2]:
                        self._lbm_layers += 1
                    return entry[1]
        self._alloc_end(state, layer_index, now)
        layer_index += 1
        instance.layer_index = layer_index
        hw = self._sys_hw
        if hw is not None:
            decision = hw(state, layer_index)
        else:
            decision = self._alloc_select(state, layer_index, now)
        grant = self._sys_try(state, region, layer_index, decision)
        # Inlined granted fast path of _grant_to_work (this chain runs
        # twice per simulated event).
        instance.sched_scratch = grant
        if grant.granted:
            candidate = grant.decision.candidate
            entry = self._work_cache.get(id(candidate))
            if entry is None or entry[0] is not candidate:
                entry = self._work_entry(candidate)
            if entry[2]:
                self._lbm_layers += 1
            pair = entry[1].get(instance.cores)
            if pair is not None:
                return pair
            return self._build_work(instance, candidate, entry)
        return self._grant_to_work(instance, grant)

    def timeout_layer(self, instance: TaskInstance, now: float
                      ) -> Tuple[Optional[LayerWork], float]:
        self._timeouts += 1
        last = instance.sched_scratch
        grant = self.system.retry_layer(
            instance.instance_id, instance.layer_index, last
        )
        return self._grant_to_work(instance, grant)

    def on_layer_end(self, instance: TaskInstance, now: float) -> None:
        ctx = instance.sched_ctx
        if ctx is None:
            self.system.finish_layer(         # raises "not registered"
                instance.instance_id, instance.layer_index, now
            )
            return
        self.system.allocator.end_layer_prepared(
            ctx[0], instance.layer_index, now
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
        static share, the HW-only flag and the :meth:`_build_fast_file`
        tables.  The totals change only between calls, so the engine
        fetches this tuple per call."""
        alloc = self._alloc
        return (
            TABLE_CAMDN,
            alloc._tnext, alloc._pnext, alloc._palloc, alloc.total_pages,
            alloc._palloc_sum, self.system._share,
            0 if self._sys_hw is None else 1, self._fast_files,
        )

    def add_lbm_layers(self, count: int) -> None:
        """Count LBM layers whose completions the native batch loop
        handled (the ``is_lbm`` flags of the memo entries it took)."""
        self._lbm_layers += count

    def _build_fast_file(self, mf) -> tuple:
        """Precompute the per-layer geometry rows the C completion
        handler reads, plus one ``(grant, (work, 0.0), is_lbm)`` memo
        dict per layer keyed by ``code * 64 + cores``.

        One table per mapping file (shared by every task of the model):
        every field is a frozen per-layer constant — candidate page
        counts, block bounds, profiled latencies and their timeout
        scalings — so the C side never touches a Python object graph
        beyond one tuple row and the predictor lists.
        """
        alloc = self._alloc
        geoms = mf.layer_geometries(alloc.page_bytes)
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
        ft = (mf, rows, pairs)
        self._fast_files[id(mf)] = ft
        return ft

    def _build_fast_pair(self, instance: TaskInstance, state, region,
                         layer_index: int, code: int, ft: tuple
                         ) -> tuple:
        """Cold miss of the native completion handler: rebuild the
        decision the C selection ``code`` denotes — through the same
        geometry decision cache the Python chain uses, so both paths
        create identical cache entries at the first occurrence — then
        run the exact grant/work machinery once and memoize the
        ``(grant, (work, 0.0), is_lbm)`` triple.

        Re-running ``_try_grant`` after the C commit is idempotent: the
        footprint equals the region (no resize), palloc is unchanged
        (the skipped write), and an enabling decision re-installs the
        same block bounds the C call already reported."""
        geom = state.geoms[layer_index]
        cache = geom.decision_cache
        mct = state.mcts[layer_index]
        if self._sys_hw is not None:
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
        grant = self._sys_try(state, region, layer_index, decision)
        candidate = decision.candidate
        wentry = self._work_entry(candidate)
        pair = wentry[1].get(instance.cores)
        if pair is None:
            pair = self._build_work(instance, candidate, wentry)
        entry = (grant, pair, wentry[2])
        ft[2][layer_index][code * 64 + instance.cores] = entry
        return entry

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
            pair = self._build_work(instance, candidate, entry)
        return pair

    def _build_work(self, instance: TaskInstance, candidate,
                    entry: tuple) -> Tuple[LayerWork, float]:
        """Build and cache the ``(LayerWork, 0.0)`` pair for a granted
        candidate on this instance's core count."""
        dram = candidate.dram_bytes
        if instance.cores > 1:
            # Multicast combines the per-core identical reads.
            dram *= 1.0 + MULTICAST_TRAFFIC_OVERHEAD * \
                (instance.cores - 1)
        work = LayerWork(
            compute_cycles=self.compute_cycles(instance),
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
