"""Cache page allocator for the NPU subspace (Section III-B3).

The NPU subspace is divided into pages of identical size (32 KiB for a
16 MiB cache) and assigned to models.  Physical cache pages are
identified by *physical cache page number* (``pcpn``), numbered 0..N-1
across the whole NPU subspace.

This module owns the free list and a **pcpn -> owner reverse map**
(:meth:`CachePageAllocator.owner_of` is O(1)); which pages a model
holds, and in what virtual order, is its region's page list
(:mod:`~repro.core.region`), the one record of them.  The free list is
kept ascending: grants take the lowest free pages, and frees splice
sorted victim runs back in O(pages) instead of re-sorting it.  The
dynamic allocation algorithm resizes some region at nearly every layer
of every task, so these operations are on the per-layer critical path
of the CaMDN policies.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import PageAllocationError


def _merge_sorted(a: List[int], b: List[int]) -> List[int]:
    """Merge two ascending lists (no duplicates across them)."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    # Common fast paths: one list entirely before the other.
    if a[-1] < b[0]:
        return a + b
    if b[-1] < a[0]:
        return b + a
    # Interleaved runs: concatenating and sorting lets Timsort merge the
    # two detected runs at C speed (galloping), far faster than an
    # element-wise Python merge loop.
    out = a + b
    out.sort()
    return out


class CachePageAllocator:
    """Free-list allocator over the NPU subspace's physical cache pages.

    Owners are model/task identifiers (strings).  The allocator enforces
    exclusivity: a page belongs to at most one owner — this is the property
    that eliminates inter-model cache contention in CaMDN.
    """

    def __init__(self, num_pages: int) -> None:
        if num_pages <= 0:
            raise PageAllocationError("allocator needs at least one page")
        self.num_pages = num_pages
        #: Free pcpns, always ascending: grants pop from the front,
        #: frees merge sorted runs back in.
        self._free: List[int] = list(range(num_pages))
        #: pcpn -> owning model (``None`` while free or retired).
        self._page_owner: List[Optional[str]] = [None] * num_pages
        #: ECC-retired pcpns: permanently out of circulation — never on
        #: the free list, never owned, never re-issued.
        self._retired: set = set()

    @property
    def free_pages(self) -> int:
        """Number of currently unowned pages."""
        return len(self._free)

    @property
    def used_pages(self) -> int:
        """Number of pages owned by some model."""
        return self.num_pages - len(self._free) - len(self._retired)

    @property
    def retired_pages(self) -> int:
        """Number of ECC-retired pages (permanently unusable)."""
        return len(self._retired)

    @property
    def usable_pages(self) -> int:
        """Pages still in circulation (free or owned)."""
        return self.num_pages - len(self._retired)

    def is_retired(self, pcpn: int) -> bool:
        """Has ``pcpn`` been permanently retired?"""
        self._check_pcpn(pcpn)
        return pcpn in self._retired

    def owner_of(self, pcpn: int) -> Optional[str]:
        """Owner of page ``pcpn`` or ``None`` if free."""
        self._check_pcpn(pcpn)
        return self._page_owner[pcpn]

    def allocate(self, owner: str, num_pages: int) -> List[int]:
        """Grant ``num_pages`` free pages to ``owner``; returns them,
        ascending, as a new list.

        Grants always take the lowest-numbered free pages, so grant order
        is a pure function of the preceding allocate/release sequence.

        Raises:
            PageAllocationError: not enough free pages.  Callers (the
            dynamic allocation algorithm) treat this as a timeout-retry
            situation rather than a fatal error.
        """
        if num_pages < 0:
            raise PageAllocationError("cannot allocate a negative count")
        free = self._free
        if num_pages > len(free):
            raise PageAllocationError(
                f"{owner}: requested {num_pages} pages, "
                f"only {len(free)} free"
            )
        granted = free[:num_pages]
        del free[:num_pages]
        page_owner = self._page_owner
        for pcpn in granted:
            page_owner[pcpn] = owner
        return granted

    def release(self, owner: str, pcpns: List[int]) -> int:
        """Return ``owner``'s pages ``pcpns`` to the free list.

        Returns:
            Number of pages released.

        Raises:
            PageAllocationError: a listed page is out of range, not
                owned by ``owner``, or listed twice; nothing is freed.
        """
        page_owner = self._page_owner
        for pcpn in pcpns:
            self._check_pcpn(pcpn)
            if page_owner[pcpn] != owner:
                raise PageAllocationError(
                    f"{owner} does not own page {pcpn}"
                )
        victims = sorted(set(pcpns))
        if len(victims) != len(pcpns):
            # A duplicate entry would double-free below.
            raise PageAllocationError(
                f"{owner}: duplicate pages in release list"
            )
        for pcpn in victims:
            page_owner[pcpn] = None
        if victims:
            self._free = _merge_sorted(self._free, victims)
        return len(victims)

    def retire_free(self, pcpn: int) -> None:
        """Permanently retire a currently-free page (ECC fault).

        Retired pages leave the free list forever: :meth:`allocate` can
        never re-issue them, and :meth:`check_invariants` accounts for
        them separately from free and owned pages.

        Raises:
            PageAllocationError: the page is owned, or already retired.
        """
        self._check_pcpn(pcpn)
        if pcpn in self._retired:
            raise PageAllocationError(f"page {pcpn} already retired")
        if self._page_owner[pcpn] is not None:
            raise PageAllocationError(
                f"page {pcpn} is owned by "
                f"{self._page_owner[pcpn]!r}; use evacuate()"
            )
        self._free.remove(pcpn)
        self._retired.add(pcpn)

    def evacuate(self, owner: str, pcpn: int) -> Optional[int]:
        """Permanently retire an *owned* page, granting a replacement.

        The page leaves ``owner``'s holding and circulation in one step.
        When a free page exists, the lowest-numbered one is granted to
        ``owner`` as the replacement (deterministic, like
        :meth:`allocate`) and returned; with no free page the owner
        simply shrinks by one and ``None`` is returned.  Either way the
        caller (region manager) edits the owner's page list.

        Raises:
            PageAllocationError: ``owner`` does not own ``pcpn``, or the
                page is already retired.
        """
        self._check_pcpn(pcpn)
        if pcpn in self._retired:
            raise PageAllocationError(f"page {pcpn} already retired")
        if self._page_owner[pcpn] != owner:
            raise PageAllocationError(
                f"{owner} does not own page {pcpn}"
            )
        self._page_owner[pcpn] = None
        self._retired.add(pcpn)
        if not self._free:
            return None
        return self.allocate(owner, 1)[0]

    def _check_pcpn(self, pcpn: int) -> None:
        if not 0 <= pcpn < self.num_pages:
            raise PageAllocationError(
                f"pcpn {pcpn} out of range [0, {self.num_pages})"
            )

    def check_invariants(self) -> None:
        """Assert that every page is exactly one of free, owned or
        retired, and that the free list is ascending; used by property
        tests."""
        free = set(self._free)
        if len(free) != len(self._free):
            raise PageAllocationError("duplicate pages in free list")
        if self._free != sorted(free):
            raise PageAllocationError("free list not sorted")
        if len(self._page_owner) != self.num_pages or \
                not free <= set(range(self.num_pages)):
            raise PageAllocationError("page conservation violated")
        for pcpn, owner in enumerate(self._page_owner):
            states = ((pcpn in free) + (pcpn in self._retired)
                      + (owner is not None))
            if states != 1:
                raise PageAllocationError(
                    f"page {pcpn} is free: {pcpn in free}, retired: "
                    f"{pcpn in self._retired}, owned by {owner!r}; "
                    "page conservation violated"
                )
