"""Tests for model-exclusive region management."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, SoCConfig
from repro.core.region import RegionManager
from repro.errors import PageAllocationError
from repro.experiments.common import run_scenario
from repro.runconfig import RunConfig
from repro.sim.scenario import get_scenario


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

    def test_region_bytes(self, manager):
        region = manager.create_region("A", 4)
        assert region.bytes == 4 * 32 * 1024


class TestOwnersOverARun:
    """A camdn-full run creates and destroys one region per inference;
    the page allocator's owner map must hold the live regions only, or
    it (and every snapshot payload) grows with each inference run."""

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
        live = {r.task_id: sorted(r.pcpns) for r in regions.regions()}
        assert regions.allocator._owner_pages == live
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
        assert manager.resize(region, 3) == -5
        assert region.pcpns == kept
        assert region.cpt.lookup(2) == kept[2]
        assert region.cpt.lookup(3) is None

    def test_resize_to_zero(self, manager):
        region = manager.create_region("A", 8)
        manager.resize(region, 0)
        assert manager.region_of("A").num_pages == 0
        assert manager.free_pages == 384

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


class TestIsolation:
    def test_regions_never_share_pages(self, manager):
        a = manager.create_region("A", 100)
        b = manager.create_region("B", 100)
        assert set(a.pcpns) & set(b.pcpns) == set()

    def test_cpts_translate_disjointly(self, manager):
        """Each region's CPT maps its virtual pages onto its own granted
        pages, so two regions never reach the same physical page."""
        a = manager.create_region("A", 4)
        b = manager.create_region("B", 4)
        pages_a = {a.cpt.lookup(v) for v in a.cpt.mapped_vcpns()}
        pages_b = {b.cpt.lookup(v) for v in b.cpt.mapped_vcpns()}
        assert pages_a == set(a.pcpns) and pages_b == set(b.pcpns)
        assert pages_a & pages_b == set()

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
