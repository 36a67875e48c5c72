"""Property-based invariant tests for cache allocation.

Hypothesis drives random operation sequences against the dynamic cache
allocator (Algorithm 1) and the region manager's page accounting,
checking the safety properties the architecture rests on: pages are never
double-allocated, and frees restore the capacity they took.
"""

from hypothesis import given, settings, strategies as st

from repro.config import KiB, CacheConfig
from repro.core.allocator import DynamicCacheAllocator
from repro.core.mct import (
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)
from repro.core.region import RegionManager
from repro.errors import PageAllocationError

PAGE = 32 * KiB
TOTAL_PAGES = 24


def _candidate(cache_bytes, dram=100.0, kind="LWM"):
    return MappingCandidate(
        kind=kind, usage_limit_bytes=cache_bytes, cache_bytes=cache_bytes,
        dram_bytes=dram, compute_cycles=10,
    )


def _mapping_file(num_layers, lwm_page_counts, lbm_pages):
    mcts = []
    for i in range(num_layers):
        mct = MappingCandidateTable(layer_index=i, layer_name=f"l{i}")
        mct.lwm = [
            _candidate(pages * PAGE, dram=1000.0 - pages)
            for pages in lwm_page_counts
        ]
        if lbm_pages:
            mct.lbm = _candidate(lbm_pages * PAGE, dram=10.0, kind="LBM")
        mct.est_latency_s = 0.001
        mcts.append(mct)
    return ModelMappingFile(
        model_name="toy",
        usage_levels=tuple(p * PAGE for p in lwm_page_counts),
        mcts=mcts,
        blocks=[(0, num_layers)],
    )


#: One allocator step: (task index, layer index, op code).
_ops = st.lists(
    st.tuples(
        st.integers(0, 3),            # task
        st.integers(0, 3),            # layer
        st.sampled_from(["begin", "end", "finish"]),
    ),
    min_size=1,
    max_size=60,
)


class TestDynamicAllocatorProperties:
    @given(ops=_ops, lbm_pages=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_no_page_overcommit_and_frees_restore_capacity(
        self, ops, lbm_pages
    ):
        """Random begin/end/finish sequences never overcommit pages, and
        finishing a task restores exactly the pages it held."""
        alloc = DynamicCacheAllocator(page_bytes=PAGE,
                                      total_pages=TOTAL_PAGES)
        mf = _mapping_file(num_layers=4, lwm_page_counts=(0, 2, 8),
                           lbm_pages=lbm_pages)
        registered = set()
        now = 0.0
        for task_idx, layer, op in ops:
            task = f"T{task_idx}"
            if task not in registered:
                alloc.register_task(task, mf)
                registered.add(task)
            state = alloc.task(task)
            if op == "begin":
                decision = alloc.select(state, layer, now)
                # Emulate the engine's grant check: commit only when the
                # delta fits in the currently idle pages.
                delta = decision.pages_needed - state.palloc
                if delta <= alloc.idle_pages():
                    alloc.commit(state, decision, layer)
            elif op == "end":
                alloc.end_layer(state, layer, now)
            else:
                idle_before = alloc.idle_pages()
                held = state.palloc
                alloc.finish_task(task, now)
                assert alloc.idle_pages() == idle_before + held
            assert 0 <= alloc.idle_pages() <= TOTAL_PAGES
            alloc.check_invariants()
            now += 0.0005

    @given(lbm_pages=st.integers(1, 12), start_pages=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_downgrade_chain_terminates_at_zero_pages(
        self, lbm_pages, start_pages
    ):
        """Repeated timeouts walk candidates strictly downward to the
        zero-page fallback (so waits cannot loop forever)."""
        alloc = DynamicCacheAllocator(page_bytes=PAGE, total_pages=4)
        mf = _mapping_file(num_layers=1, lwm_page_counts=(0, 2, 8),
                           lbm_pages=lbm_pages)
        state = alloc.register_task("T", mf)
        decision = alloc.select(state, 0, now=0.0)
        seen_pages = [decision.pages_needed]
        while True:
            smaller = alloc.downgrade(state, 0, decision)
            if smaller is None:
                break
            if decision.candidate.kind != "LBM":
                assert smaller.pages_needed < decision.pages_needed
            decision = smaller
            seen_pages.append(decision.pages_needed)
            assert len(seen_pages) < 20, "downgrade chain did not shrink"
        assert decision.pages_needed == 0


class TestRegionManagerProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, TOTAL_PAGES)),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_regions_never_share_pages(self, ops):
        """Random region resizes keep page ownership exclusive and
        conserve the page pool (no double allocation across tenants)."""
        cache = CacheConfig(
            total_bytes=1 * 1024 * 1024, num_slices=2, num_ways=8,
            npu_ways=6, page_bytes=32 * KiB,
        )
        manager = RegionManager(cache)
        live = set()
        for task_idx, target in ops:
            task = f"T{task_idx}"
            if task not in live:
                manager.create_region(task, 0)
                live.add(task)
            try:
                manager.resize(manager.region_of(task), target)
            except PageAllocationError:
                pass  # growth beyond free pages: a legal wait condition
            owned = [
                pcpn for region in manager.regions()
                for pcpn in region.pcpns
            ]
            assert len(owned) == len(set(owned)), "page double-allocated"
            assert len(owned) + manager.free_pages == cache.num_pages
            manager.check_invariants()
        for task in sorted(live):
            held = manager.region_of(task).num_pages
            free_before = manager.free_pages
            assert manager.destroy_region(task) == held
            assert manager.free_pages == free_before + held
        assert manager.free_pages == cache.num_pages

