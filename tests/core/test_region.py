"""Tests for model-exclusive region management."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KiB, CacheConfig, SoCConfig
from repro.core.region import RegionManager
from repro.errors import PageAllocationError
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig
from repro.sim.scenario import get_scenario


#: A 2 MiB cache of 48 NPU pages: small enough that random resizes
#: run out of free pages.
SMALL_CACHE = CacheConfig(
    total_bytes=2 * 1024 * 1024, num_slices=2, num_ways=8, npu_ways=6,
    page_bytes=32 * KiB,
)


@pytest.fixture
def manager():
    return RegionManager(CacheConfig())


class TestRegionLifecycle:
    def test_create_and_destroy(self, manager):
        region = manager.create_region("A", 10)
        assert region.num_pages == 10
        assert manager.free_pages == 384 - 10
        assert manager.destroy_region("A") == 10
        assert manager.free_pages == 384

    def test_double_create_raises(self, manager):
        manager.create_region("A", 1)
        with pytest.raises(PageAllocationError):
            manager.create_region("A", 1)

    def test_destroy_unknown_raises(self, manager):
        with pytest.raises(PageAllocationError):
            manager.destroy_region("ghost")

    def test_destroy_frees_exactly_the_region_pages(self, manager):
        a = manager.create_region("A", 3)
        b = manager.create_region("B", 2)
        manager.resize(a, 5)
        assert manager.destroy_region("A") == 5
        alloc = manager.allocator
        assert [alloc.owner_of(p) for p in b.pcpns] == ["B", "B"]
        assert all(alloc.owner_of(p) is None for p in a.pcpns)
        manager.check_invariants()


class TestOwnersOverARun:
    """A camdn-full run creates and destroys one region per inference;
    the page allocator's reverse map must name the live regions' pages
    only, or a destroyed region's pages leak (and every snapshot payload
    grows with each inference run)."""

    @staticmethod
    def _regions_at(events: int):
        spec = get_scenario("steady-quad").scaled(0.25)
        result = run_scenario(
            spec, SoCConfig(), "camdn-full",
            config=RunConfig(snapshot_at_events=events))
        engine = result.last_snapshot.resume()
        return engine.scheduler.system.regions, len(engine.metrics.records)

    def test_owner_map_holds_exactly_the_live_regions(self):
        regions, completed = self._regions_at(14000)
        assert completed > 100
        alloc = regions.allocator
        owners = {p: alloc.owner_of(p) for p in range(alloc.num_pages)
                  if alloc.owner_of(p) is not None}
        live = {p: r.task_id for r in regions.regions() for p in r.pcpns}
        assert owners == live
        regions.check_invariants()

    def test_allocator_payload_does_not_grow_with_inferences(self):
        early, early_done = self._regions_at(2000)
        late, late_done = self._regions_at(14000)
        assert late_done > early_done + 100
        early_size = len(pickle.dumps(early.allocator, protocol=4))
        late_size = len(pickle.dumps(late.allocator, protocol=4))
        # Only the page lists' split between owners may differ.
        assert late_size < 1.05 * early_size


class TestResize:
    def test_grow_preserves_existing_mappings(self, manager):
        region = manager.create_region("A", 4)
        before = list(region.pcpns)
        assert manager.resize(region, 8) == 4
        assert region.pcpns[:4] == before  # cached data survives growth

    def test_shrink_drops_highest_vcpns(self, manager):
        region = manager.create_region("A", 8)
        kept = list(region.pcpns[:3])
        dropped = list(region.pcpns[3:])
        assert manager.resize(region, 3) == -5
        assert region.pcpns == kept
        assert all(manager.allocator.owner_of(p) is None for p in dropped)

    def test_resize_to_zero(self, manager):
        region = manager.create_region("A", 8)
        manager.resize(region, 0)
        assert manager.region_of("A").num_pages == 0
        assert manager.free_pages == 384

    def test_region_shrunk_to_zero_grows_again(self, manager):
        """A region resized to no pages stays registered with an empty
        page list, which a later grow extends."""
        manager.create_region("B", 2)
        region = manager.create_region("A", 3)
        manager.resize(region, 0)
        assert manager.region_of("A") is region
        assert manager.resize(region, 4) == 4
        assert region.pcpns == [2, 3, 4, 5]
        manager.check_invariants()

    def test_negative_size_raises(self, manager):
        region = manager.create_region("A", 3)
        with pytest.raises(PageAllocationError, match="negative"):
            manager.resize(region, -1)
        assert region.num_pages == 3
        manager.check_invariants()

    def test_grow_beyond_capacity_raises(self, manager):
        region = manager.create_region("A", 380)
        with pytest.raises(PageAllocationError):
            manager.resize(region, 390)

    def test_failed_grow_leaves_state_intact(self, manager):
        manager.create_region("A", 380)
        region = manager.create_region("B", 4)
        with pytest.raises(PageAllocationError):
            manager.resize(region, 10)
        manager.check_invariants()
        assert manager.region_of("B").num_pages == 4

    def test_refused_release_leaves_the_region_intact(self, manager):
        """A shrink releases before it truncates: a page list the
        reverse map disagrees with is refused with the region as it
        was."""
        a = manager.create_region("A", 4)
        b = manager.create_region("B", 2)
        a.pcpns[3] = b.pcpns[0]
        before = list(a.pcpns)
        with pytest.raises(PageAllocationError, match="does not own"):
            manager.resize(a, 2)
        assert a.pcpns == before
        assert manager.allocator.owner_of(b.pcpns[0]) == "B"


class TestIsolation:
    def test_regions_never_share_pages(self, manager):
        a = manager.create_region("A", 100)
        b = manager.create_region("B", 100)
        assert set(a.pcpns) & set(b.pcpns) == set()

    def test_cpts_translate_disjointly(self, manager):
        """Each region's CPT (its page list) maps its virtual pages onto
        pages it owns, so two regions never reach the same physical
        page."""
        a = manager.create_region("A", 4)
        b = manager.create_region("B", 4)
        alloc = manager.allocator
        for region in (a, b):
            for vcpn in range(region.num_pages):
                assert alloc.owner_of(region.pcpns[vcpn]) == region.task_id
        assert set(a.pcpns) & set(b.pcpns) == set()

    @given(
        sizes=st.lists(st.integers(0, 60), min_size=1, max_size=6),
        resizes=st.lists(st.integers(0, 60), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_resizes_keep_invariants(self, sizes, resizes):
        manager = RegionManager(CacheConfig())
        regions = [
            manager.create_region(f"T{i}", size)
            for i, size in enumerate(sizes)
        ]
        for region, target in zip(regions, resizes):
            try:
                manager.resize(region, target)
            except PageAllocationError:
                pass
            manager.check_invariants()

    @given(
        sizes=st.lists(st.integers(0, 20), min_size=2, max_size=5),
        targets=st.lists(st.integers(0, 20), min_size=2, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_op_sequences_grant_identical_pages(self, sizes,
                                                          targets):
        """Two managers fed the same op sequence grant the same physical
        pages in the same order (grant order is a pure function of the
        allocate/release history: the free list is kept sorted and
        grants take the lowest pages)."""
        managers = [RegionManager(SMALL_CACHE) for _ in range(2)]
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

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 24)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_owner_of_matches_region_lists(self, ops):
        """The pcpn -> owner reverse map names exactly the pages of each
        region's list under interleaved multi-tenant resizes."""
        manager = RegionManager(SMALL_CACHE)
        allocator = manager.allocator
        for task_idx, target in ops:
            task = f"T{task_idx}"
            if manager.region_of(task) is None:
                manager.create_region(task, 0)
            try:
                manager.resize(manager.region_of(task), target)
            except PageAllocationError:
                pass
            owned = {
                pcpn: region.task_id
                for region in manager.regions()
                for pcpn in region.pcpns
            }
            for pcpn in range(SMALL_CACHE.num_pages):
                assert allocator.owner_of(pcpn) == owned.get(pcpn)
            allocator.check_invariants()


class TestCheckInvariants:
    def test_consistent_regions_pass(self, manager):
        manager.create_region("A", 3)
        manager.create_region("B", 0)
        manager.check_invariants()

    def test_rejects_a_page_owned_outside_any_region(self, manager):
        manager.create_region("A", 2)
        manager.allocator.allocate("ghost", 1)
        with pytest.raises(PageAllocationError,
                           match="owned by 'ghost' outside any region"):
            manager.check_invariants()

    def test_rejects_a_region_list_that_disagrees_with_the_reverse_map(
        self, manager
    ):
        a = manager.create_region("A", 2)
        b = manager.create_region("B", 2)
        a.pcpns[1] = b.pcpns[0]
        with pytest.raises(PageAllocationError,
                           match="the reverse map gives to 'B'"):
            manager.check_invariants()

    def test_rejects_a_free_page_in_a_region_list(self, manager):
        region = manager.create_region("A", 2)
        region.pcpns.append(manager.allocator._free[0])
        with pytest.raises(PageAllocationError,
                           match="the reverse map gives to None"):
            manager.check_invariants()
