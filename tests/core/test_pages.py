"""Tests for the cache page allocator, including exclusivity invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pages import CachePageAllocator, _merge_sorted
from repro.errors import PageAllocationError


class TestAllocate:
    def test_needs_a_page(self):
        with pytest.raises(PageAllocationError):
            CachePageAllocator(0)

    def test_initial_state(self):
        alloc = CachePageAllocator(384)
        assert alloc.free_pages == 384
        assert alloc.used_pages == 0

    def test_allocate_grants_exact_count(self):
        alloc = CachePageAllocator(16)
        grant = alloc.allocate("A", 5)
        assert grant.num_pages == 5
        assert alloc.free_pages == 11

    def test_exclusivity(self):
        alloc = CachePageAllocator(16)
        a = set(alloc.allocate("A", 8).pcpns)
        b = set(alloc.allocate("B", 8).pcpns)
        assert a & b == set()

    def test_over_allocation_raises(self):
        alloc = CachePageAllocator(4)
        alloc.allocate("A", 3)
        with pytest.raises(PageAllocationError):
            alloc.allocate("B", 2)

    def test_zero_allocation_ok(self):
        alloc = CachePageAllocator(4)
        grant = alloc.allocate("A", 0)
        assert grant.num_pages == 0

    def test_negative_allocation_raises(self):
        with pytest.raises(PageAllocationError):
            CachePageAllocator(4).allocate("A", -1)

    def test_owner_of(self):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 2)
        for pcpn in grant.pcpns:
            assert alloc.owner_of(pcpn) == "A"
        free = next(
            p for p in range(8) if p not in grant.pcpns
        )
        assert alloc.owner_of(free) is None

    @pytest.mark.parametrize("pcpn", [-1, 8])
    def test_owner_of_out_of_range_raises(self, pcpn):
        with pytest.raises(PageAllocationError):
            CachePageAllocator(8).owner_of(pcpn)

    def test_grants_take_the_lowest_free_pages(self):
        alloc = CachePageAllocator(8)
        alloc.allocate("A", 3)
        alloc.allocate("B", 2)
        alloc.release("A", [1])
        assert alloc.allocate("C", 2).pcpns == (1, 5)

    def test_owners_lists_only_holders(self):
        alloc = CachePageAllocator(8)
        alloc.allocate("B", 2)
        alloc.allocate("A", 1)
        alloc.allocate("C", 0)
        assert alloc.owners() == ["A", "B"]
        alloc.release("B")
        assert alloc.owners() == ["A"]
        assert alloc.pages_of("B") == []
        assert alloc.pages_of("nobody") == []


class TestRelease:
    def test_release_all(self):
        alloc = CachePageAllocator(8)
        alloc.allocate("A", 5)
        released = alloc.release("A")
        assert released == 5
        assert alloc.free_pages == 8

    def test_release_specific(self):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 4)
        alloc.release("A", list(grant.pcpns[:2]))
        assert len(alloc.pages_of("A")) == 2

    def test_release_foreign_page_raises(self):
        alloc = CachePageAllocator(8)
        alloc.allocate("A", 2)
        grant_b = alloc.allocate("B", 2)
        with pytest.raises(PageAllocationError):
            alloc.release("A", list(grant_b.pcpns))

    def test_duplicate_pages_in_release_raise(self):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 2)
        with pytest.raises(PageAllocationError, match="duplicate"):
            alloc.release("A", [grant.pcpns[0], grant.pcpns[0]])
        assert alloc.pages_of("A") == list(grant.pcpns)
        alloc.check_invariants()

    def test_release_of_nothing_returns_zero(self):
        alloc = CachePageAllocator(8)
        assert alloc.release("A") == 0
        alloc.allocate("A", 2)
        assert alloc.release("A", []) == 0
        assert alloc.free_pages == 6

    def test_release_all_forgets_the_owner(self):
        alloc = CachePageAllocator(8)
        alloc.allocate("A", 3)
        alloc.allocate("B", 0)
        alloc.release("A")
        alloc.release("B")
        assert alloc._owner_pages == {}
        alloc.check_invariants()

    def test_release_of_every_listed_page_keeps_the_owner(self):
        """A region shrunk to 0 pages keeps its (empty) entry: the
        native batch loop's resize reads it to grow the region again."""
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 3)
        alloc.release("A", list(grant.pcpns))
        assert alloc._owner_pages == {"A": []}

    def test_released_pages_are_reusable(self):
        alloc = CachePageAllocator(4)
        alloc.allocate("A", 4)
        alloc.release("A")
        assert alloc.allocate("B", 4).num_pages == 4


class TestMergeSorted:
    @pytest.mark.parametrize("a,b", [
        ([], [1, 2]),
        ([1, 2], []),
        ([1, 2], [5, 9]),
        ([5, 9], [1, 2]),
        ([1, 4, 9], [2, 3, 10]),
    ], ids=["a-empty", "b-empty", "a-before-b", "b-before-a",
            "interleaved"])
    def test_merge(self, a, b):
        merged = _merge_sorted(a, b)
        assert merged == sorted(a + b)
        assert merged is not a and merged is not b

    @given(pages=st.lists(st.integers(0, 99), unique=True), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_disjoint_runs(self, pages, data):
        split = set(data.draw(st.lists(st.sampled_from(pages), unique=True))
                    if pages else [])
        a = sorted(p for p in pages if p in split)
        b = sorted(p for p in pages if p not in split)
        assert _merge_sorted(a, b) == sorted(pages)


class TestInvariants:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "free", "release"]),
                st.sampled_from(["A", "B", "C"]),
                st.integers(0, 12),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_op_sequences_conserve_pages(self, ops):
        alloc = CachePageAllocator(24)
        for op, owner, count in ops:
            try:
                if op == "alloc":
                    alloc.allocate(owner, count)
                elif op == "free":
                    alloc.release(owner)
                else:
                    # Partial release: the owner's ``count`` lowest pages.
                    alloc.release(owner, alloc.pages_of(owner)[:count])
            except PageAllocationError:
                pass  # over-allocation / double-release are legal rejections
            alloc.check_invariants()
            assert alloc.free_pages + alloc.used_pages == 24
