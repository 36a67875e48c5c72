"""CPT incremental-remap equivalence (satellite of the PR 3 refactor).

``RegionManager.resize`` updates CPT entries only for the delta
pages.  These tests prove that the incremental path is indistinguishable
from rebuilding the whole table with ``remap_all`` after every resize:
identical entries, identical mapped vcpn sets, and identical physical
grant order.
"""

from hypothesis import given, settings, strategies as st

from repro.config import KiB, CacheConfig
from repro.core.cpt import CachePageTable
from repro.core.region import RegionManager
from repro.errors import PageAllocationError

CACHE = CacheConfig(
    total_bytes=2 * 1024 * 1024, num_slices=2, num_ways=8, npu_ways=6,
    page_bytes=32 * KiB,
)


def _rebuilt_cpt(region) -> CachePageTable:
    """A CPT rebuilt from scratch over the region's current pages."""
    cpt = CachePageTable(CACHE)
    cpt.remap_all(list(region.pcpns))
    return cpt


def _assert_tables_equal(incremental: CachePageTable,
                         rebuilt: CachePageTable, num_pages: int) -> None:
    assert incremental.mapped_vcpns() == rebuilt.mapped_vcpns()
    for vcpn in incremental.mapped_vcpns():
        assert incremental.lookup(vcpn) == rebuilt.lookup(vcpn)


class TestIncrementalRemapEquivalence:
    @given(
        targets=st.lists(st.integers(0, CACHE.num_pages), min_size=1,
                         max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_resize_sequences_match_full_rebuild(self, targets):
        manager = RegionManager(CacheConfig(
            total_bytes=CACHE.total_bytes, num_slices=CACHE.num_slices,
            num_ways=CACHE.num_ways, npu_ways=CACHE.npu_ways,
            page_bytes=CACHE.page_bytes,
        ))
        region = manager.create_region("A", 0)
        for target in targets:
            try:
                manager.resize(region, target)
            except PageAllocationError:
                continue
            _assert_tables_equal(
                region.cpt, _rebuilt_cpt(region), region.num_pages
            )
            manager.check_invariants()

    @given(
        sizes=st.lists(st.integers(0, 20), min_size=2, max_size=5),
        targets=st.lists(st.integers(0, 20), min_size=2, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_tenant_resizes_keep_grant_order_deterministic(
        self, sizes, targets
    ):
        """Two managers fed the same op sequence grant the same physical
        pages in the same order (grant order is a pure function of the
        allocate/release history — the free list is kept sorted and
        grants take the lowest pages)."""
        managers = [
            RegionManager(CacheConfig(
                total_bytes=CACHE.total_bytes,
                num_slices=CACHE.num_slices, num_ways=CACHE.num_ways,
                npu_ways=CACHE.npu_ways, page_bytes=CACHE.page_bytes,
            ))
            for _ in range(2)
        ]
        for i, size in enumerate(sizes):
            for m in managers:
                try:
                    m.create_region(f"T{i}", min(size, 10))
                except PageAllocationError:
                    m.create_region(f"T{i}", 0)
        for j, target in enumerate(targets):
            task = f"T{j % len(sizes)}"
            results = []
            for m in managers:
                try:
                    m.resize(m.region_of(task), target)
                    results.append(list(m.region_of(task).pcpns))
                except PageAllocationError:
                    results.append(None)
            assert results[0] == results[1]

    def test_growth_appends_without_touching_existing_entries(self):
        manager = RegionManager(CacheConfig(
            total_bytes=CACHE.total_bytes, num_slices=CACHE.num_slices,
            num_ways=CACHE.num_ways, npu_ways=CACHE.npu_ways,
            page_bytes=CACHE.page_bytes,
        ))
        region = manager.create_region("A", 4)
        before = {v: region.cpt.lookup(v) for v in range(4)}
        manager.resize(region, 9)
        for vcpn, pcpn in before.items():
            assert region.cpt.lookup(vcpn) == pcpn
        _assert_tables_equal(region.cpt, _rebuilt_cpt(region), 9)

    def test_shrink_unmaps_only_the_tail(self):
        manager = RegionManager(CacheConfig(
            total_bytes=CACHE.total_bytes, num_slices=CACHE.num_slices,
            num_ways=CACHE.num_ways, npu_ways=CACHE.npu_ways,
            page_bytes=CACHE.page_bytes,
        ))
        region = manager.create_region("A", 8)
        kept = {v: region.cpt.lookup(v) for v in range(3)}
        manager.resize(region, 3)
        assert region.cpt.mapped_vcpns() == [0, 1, 2]
        for vcpn, pcpn in kept.items():
            assert region.cpt.lookup(vcpn) == pcpn
        assert region.cpt.lookup(3) is None
        _assert_tables_equal(region.cpt, _rebuilt_cpt(region), 3)


class TestReverseMapConsistency:
    """The pcpn -> owner reverse map (satellite: ``owner_of`` O(1)) stays
    consistent under interleaved grant/free traffic."""

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 24)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_owner_of_matches_held_pages(self, ops):
        manager = RegionManager(CacheConfig(
            total_bytes=CACHE.total_bytes, num_slices=CACHE.num_slices,
            num_ways=CACHE.num_ways, npu_ways=CACHE.npu_ways,
            page_bytes=CACHE.page_bytes,
        ))
        allocator = manager.allocator
        live = set()
        for task_idx, target in ops:
            task = f"T{task_idx}"
            if task not in live:
                manager.create_region(task, 0)
                live.add(task)
            try:
                manager.resize(manager.region_of(task), target)
            except PageAllocationError:
                pass
            owned = {
                pcpn: region.task_id
                for region in manager.regions()
                for pcpn in region.pcpns
            }
            for pcpn in range(CACHE.num_pages):
                assert allocator.owner_of(pcpn) == owned.get(pcpn)
            allocator.check_invariants()
