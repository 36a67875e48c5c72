"""Tests for the cache page table (Section III-B3).

A model's CPT is its region's page list: virtual cache page ``vcpn`` is
backed by physical page ``region.pcpns[vcpn]``.  The table holds at most
one entry per page of the NPU subspace, each entry costs
``CPT_ENTRY_BYTES`` of SRAM, and the region manager maps and unmaps
entries as it creates, grows, shrinks and destroys regions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, KiB, MiB
from repro.core.area import CPT_ENTRY_BYTES
from repro.core.region import RegionManager
from repro.errors import PageAllocationError

#: A 2 MiB cache of 48 NPU pages: small enough that random resizes
#: run out of free pages.
SMALL_CACHE = CacheConfig(
    total_bytes=2 * 1024 * 1024, num_slices=2, num_ways=8, npu_ways=6,
    page_bytes=32 * KiB,
)


@pytest.fixture
def manager():
    return RegionManager(CacheConfig())


class TestTableManagement:
    def test_paper_sram_budget(self, manager):
        # Paper: <= 512 entries x 3 bytes = 1.5 KiB for a 16 MiB cache.
        # With a 12/16 way split the NPU subspace holds 384 pages.
        region = manager.create_region("A", 384)
        assert region.num_pages * CPT_ENTRY_BYTES == 384 * 3
        assert region.num_pages * CPT_ENTRY_BYTES <= int(1.5 * KiB)
        with pytest.raises(PageAllocationError):
            manager.resize(region, 385)
        assert region.num_pages == 384

    def test_full_cache_cpt_is_512_entries(self):
        manager = RegionManager(CacheConfig(npu_ways=16))
        region = manager.create_region("A", 512)
        assert region.num_pages * CPT_ENTRY_BYTES == int(1.5 * KiB)
        assert manager.free_pages == 0

    def test_map_unmap(self, manager):
        region = manager.create_region("A", 0)
        manager.resize(region, 1)
        assert region.pcpns == [0]
        assert manager.allocator.owner_of(0) == "A"
        manager.resize(region, 0)
        assert region.pcpns == []
        assert manager.allocator.owner_of(0) is None

    def test_double_map_raises(self, manager):
        """One physical page backing two vcpns is refused: the check
        rejects the table, and a shrink over it frees nothing."""
        region = manager.create_region("A", 3)
        region.pcpns[2] = region.pcpns[0]
        with pytest.raises(PageAllocationError, match="listed twice"):
            manager.check_invariants()
        before = list(region.pcpns)
        with pytest.raises(PageAllocationError, match="duplicate"):
            manager.resize(region, 0)
        assert region.pcpns == before
        assert manager.free_pages == 384 - 3

    def test_unmap_invalid_raises(self, manager):
        """Destroying a region whose table names a page it does not own
        is refused, and the region stays registered and intact."""
        a = manager.create_region("A", 2)
        b = manager.create_region("B", 1)
        a.pcpns[1] = b.pcpns[0]
        before = list(a.pcpns)
        with pytest.raises(PageAllocationError, match="does not own"):
            manager.destroy_region("A")
        assert manager.region_of("A") is a
        assert a.pcpns == before
        assert manager.allocator.owner_of(b.pcpns[0]) == "B"

    def test_out_of_range_vcpn(self, manager):
        region = manager.create_region("A", 0)
        with pytest.raises(PageAllocationError):
            manager.resize(region, manager.allocator.num_pages + 1)
        assert region.pcpns == []
        assert manager.free_pages == 384

    def test_out_of_range_pcpn(self, manager):
        region = manager.create_region("A", 2)
        region.pcpns.append(10_000)
        with pytest.raises(PageAllocationError, match="out of range"):
            manager.check_invariants()

    def test_create_maps_the_granted_pages(self, manager):
        manager.create_region("A", 2)
        manager.destroy_region("A")
        manager.create_region("B", 1)
        region = manager.create_region("C", 3)
        # The lowest free pages, in ascending vcpn order.
        assert region.pcpns == [1, 2, 3]
        assert all(manager.allocator.owner_of(p) == "C"
                   for p in region.pcpns)

    def test_create_over_capacity_raises(self, manager):
        a = manager.create_region("A", 4)
        with pytest.raises(PageAllocationError):
            manager.create_region("B", 381)
        assert manager.region_of("B") is None
        assert a.pcpns == [0, 1, 2, 3]
        assert manager.free_pages == 380
        manager.check_invariants()

    def test_create_to_full_capacity(self, manager):
        region = manager.create_region("A", 384)
        assert region.pcpns == list(range(384))
        assert manager.free_pages == 0
        manager.check_invariants()

    @pytest.mark.parametrize("pcpn", [-1, 384])
    def test_unmap_out_of_range_raises(self, manager, pcpn):
        region = manager.create_region("A", 3)
        region.pcpns[2] = pcpn
        before = list(region.pcpns)
        with pytest.raises(PageAllocationError, match="out of range"):
            manager.resize(region, 1)
        assert region.pcpns == before
        assert manager.free_pages == 384 - 3

    def test_num_pages_tracks_map_and_unmap(self, manager):
        region = manager.create_region("A", 0)
        for target in (4, 9, 2, 2, 7, 0, 5):
            manager.resize(region, target)
            assert region.num_pages == target
            assert manager.free_pages == 384 - target
        assert region.pcpns == [0, 1, 2, 3, 4]


class TestTranslationProperties:
    @given(
        sizes=st.lists(st.integers(0, 20), min_size=1, max_size=4),
        targets=st.lists(st.integers(0, 20), min_size=1, max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_distinct_pages_never_collide(self, sizes, targets):
        """Distinct (region, vcpn) pairs translate to distinct physical
        pages, each owned by the region that maps it."""
        manager = RegionManager(SMALL_CACHE)
        for i, size in enumerate(sizes):
            manager.create_region(f"T{i}", min(size, manager.free_pages))
        for j, target in enumerate(targets):
            try:
                manager.resize(manager.region_of(f"T{j % len(sizes)}"),
                               target)
            except PageAllocationError:
                pass
        seen = {}
        for region in manager.regions():
            for vcpn, pcpn in enumerate(region.pcpns):
                assert pcpn not in seen, (seen[pcpn], region.task_id, vcpn)
                seen[pcpn] = (region.task_id, vcpn)
                assert manager.allocator.owner_of(pcpn) == region.task_id

    @given(cache_mb=st.sampled_from([4, 8, 16, 32, 64]))
    def test_scaling_cache_sizes(self, cache_mb):
        cache = CacheConfig(total_bytes=cache_mb * MiB)
        manager = RegionManager(cache)
        region = manager.create_region("A", cache.num_pages)
        assert region.pcpns[-1] == cache.num_pages - 1
        with pytest.raises(PageAllocationError):
            manager.resize(region, cache.num_pages + 1)
        assert region.num_pages == cache.num_pages

    @given(
        targets=st.lists(st.integers(0, SMALL_CACHE.num_pages + 4),
                         min_size=1, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_resize_sequences_keep_surviving_entries(self, targets):
        """A resize edits only the delta: the entries below the smaller
        of the old and new sizes are untouched, growth maps pages that
        were free, and a refused resize changes nothing."""
        manager = RegionManager(SMALL_CACHE)
        other = manager.create_region("B", 5)
        region = manager.create_region("A", 0)
        for target in targets:
            before = list(region.pcpns)
            free = set(manager.allocator._free)
            try:
                manager.resize(region, target)
            except PageAllocationError:
                assert region.pcpns == before
                continue
            kept = min(len(before), target)
            assert region.num_pages == target
            assert region.pcpns[:kept] == before[:kept]
            assert set(region.pcpns[kept:]) <= free
            assert other.pcpns == [0, 1, 2, 3, 4]
            manager.check_invariants()
