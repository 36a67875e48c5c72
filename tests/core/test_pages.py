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
        assert grant == [0, 1, 2, 3, 4]
        assert alloc.free_pages == 11

    def test_exclusivity(self):
        alloc = CachePageAllocator(16)
        a = set(alloc.allocate("A", 8))
        b = set(alloc.allocate("B", 8))
        assert a & b == set()

    def test_over_allocation_raises(self):
        alloc = CachePageAllocator(4)
        alloc.allocate("A", 3)
        with pytest.raises(PageAllocationError):
            alloc.allocate("B", 2)

    def test_zero_allocation_ok(self):
        alloc = CachePageAllocator(4)
        assert alloc.allocate("A", 0) == []

    def test_grant_is_a_new_list(self):
        """A region keeps the granted list as its page list, so editing
        it must not reach the allocator's free list."""
        alloc = CachePageAllocator(4)
        grant = alloc.allocate("A", 2)
        grant.append(9)
        grant[0] = 7
        assert alloc.allocate("B", 2) == [2, 3]
        alloc.check_invariants()

    def test_negative_allocation_raises(self):
        with pytest.raises(PageAllocationError):
            CachePageAllocator(4).allocate("A", -1)

    def test_owner_of(self):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 2)
        for pcpn in grant:
            assert alloc.owner_of(pcpn) == "A"
        free = next(
            p for p in range(8) if p not in grant
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
        assert alloc.allocate("C", 2) == [1, 5]


class TestRelease:
    def test_release_all(self):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 5)
        released = alloc.release("A", grant)
        assert released == 5
        assert alloc.free_pages == 8

    def test_release_specific(self):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 4)
        alloc.release("A", grant[:2])
        assert [alloc.owner_of(p) for p in grant] == [None, None, "A", "A"]
        assert alloc.allocate("B", 1) == [0]

    def test_release_foreign_page_raises(self):
        alloc = CachePageAllocator(8)
        alloc.allocate("A", 2)
        grant_b = alloc.allocate("B", 2)
        with pytest.raises(PageAllocationError):
            alloc.release("A", grant_b)
        assert [alloc.owner_of(p) for p in grant_b] == ["B", "B"]

    def test_duplicate_pages_in_release_raise(self):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 2)
        with pytest.raises(PageAllocationError, match="duplicate"):
            alloc.release("A", [grant[0], grant[0]])
        assert [alloc.owner_of(p) for p in grant] == ["A", "A"]
        alloc.check_invariants()

    @pytest.mark.parametrize("pcpn", [-1, 8])
    def test_out_of_range_page_in_release_raises(self, pcpn):
        alloc = CachePageAllocator(8)
        grant = alloc.allocate("A", 2)
        with pytest.raises(PageAllocationError, match="out of range"):
            alloc.release("A", [grant[0], pcpn])
        assert alloc.free_pages == 6
        alloc.check_invariants()

    def test_release_of_nothing_returns_zero(self):
        alloc = CachePageAllocator(8)
        assert alloc.release("A", []) == 0
        alloc.allocate("A", 2)
        assert alloc.release("A", []) == 0
        assert alloc.free_pages == 6

    def test_release_all_forgets_the_owner(self):
        alloc = CachePageAllocator(8)
        grant_a = alloc.allocate("A", 3)
        grant_b = alloc.allocate("B", 0)
        alloc.release("A", grant_a)
        alloc.release("B", grant_b)
        assert [alloc.owner_of(p) for p in range(8)] == [None] * 8
        alloc.check_invariants()

    def test_released_pages_are_reusable(self):
        alloc = CachePageAllocator(4)
        alloc.release("A", alloc.allocate("A", 4))
        assert len(alloc.allocate("B", 4)) == 4


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
        held = {"A": [], "B": [], "C": []}
        for op, owner, count in ops:
            try:
                if op == "alloc":
                    held[owner] += alloc.allocate(owner, count)
                elif op == "free":
                    alloc.release(owner, held[owner])
                    held[owner] = []
                else:
                    # Partial release: the owner's ``count`` lowest pages.
                    victims = sorted(held[owner])[:count]
                    alloc.release(owner, victims)
                    held[owner] = [p for p in held[owner]
                                   if p not in victims]
            except PageAllocationError:
                pass  # over-allocation is a legal rejection
            alloc.check_invariants()
            assert alloc.free_pages + alloc.used_pages == 24
            for name, pages in held.items():
                assert all(alloc.owner_of(p) == name for p in pages)
