"""Cache page allocator for the NPU subspace (Section III-B3).

The NPU subspace is divided into pages of identical size (32 KiB for a
16 MiB cache) and assigned to models.  This module owns the global free
list; each model's page map lives in :mod:`~repro.core.cpt`.

Physical cache pages are identified by *physical cache page number*
(``pcpn``), numbered 0..N-1 across the whole NPU subspace; the allocator
only tracks ownership.

Ownership is tracked twice, and the two views are kept consistent on
every grant and free (``check_invariants`` asserts it):

* per-owner **sorted pcpn lists** — grants take the lowest free pages
  (already ascending) and merge in O(pages); frees splice sorted victim
  runs back into the free list in O(pages) instead of re-sorting it;
* a **pcpn -> owner reverse map** making :meth:`CachePageAllocator.owner_of`
  O(1) instead of a scan over every owner's page set.

Both views exist because the dynamic allocation algorithm resizes some
region at nearly every layer of every task: this module's operations are
on the per-layer critical path of the CaMDN policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import PageAllocationError


@dataclass(frozen=True)
class PageRange:
    """A set of physical pages granted to one owner."""

    owner: str
    pcpns: tuple

    @property
    def num_pages(self) -> int:
        return len(self.pcpns)


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
        #: Per-owner held pcpns, always ascending.
        self._owner_pages: Dict[str, List[int]] = {}
        #: pcpn -> owning model (``None`` while free).
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

    def owners(self) -> List[str]:
        """All owners currently holding at least one page."""
        return sorted(o for o, pages in self._owner_pages.items() if pages)

    def pages_of(self, owner: str) -> List[int]:
        """Sorted pcpns held by ``owner`` (empty list if none)."""
        return list(self._owner_pages.get(owner, ()))

    def owner_of(self, pcpn: int) -> Optional[str]:
        """Owner of page ``pcpn`` or ``None`` if free."""
        self._check_pcpn(pcpn)
        return self._page_owner[pcpn]

    def allocate(self, owner: str, num_pages: int) -> PageRange:
        """Grant ``num_pages`` free pages to ``owner``.

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
        held = self._owner_pages.get(owner)
        if held is None:
            self._owner_pages[owner] = granted
        elif not held or (granted and held[-1] < granted[0]):
            held.extend(granted)
        else:
            self._owner_pages[owner] = _merge_sorted(held, granted)
        return PageRange(owner=owner, pcpns=tuple(granted))

    def release(self, owner: str, pcpns: Optional[List[int]] = None) -> int:
        """Return pages to the free list.

        Args:
            owner: releasing model.
            pcpns: specific pages to release, or ``None`` for all of the
                owner's pages and the owner itself (a destroyed region;
                a region shrunk to 0 pages keeps its empty entry, which
                the native batch loop's resize reads).

        Returns:
            Number of pages released.

        Raises:
            PageAllocationError: a listed page is not owned by ``owner``.
        """
        if pcpns is None:
            held = self._owner_pages.pop(owner, None)
            victims = list(held) if held else []
        else:
            held = self._owner_pages.get(owner)
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
        if not victims:
            return 0
        page_owner = self._page_owner
        for pcpn in victims:
            page_owner[pcpn] = None
        if len(victims) == len(held):
            held.clear()
        else:
            victim_set = set(victims)
            self._owner_pages[owner] = [
                p for p in held if p not in victim_set
            ]
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
        simply shrinks by one and ``None`` is returned — the caller
        (region manager) must drop a virtual page.

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
        self._owner_pages[owner].remove(pcpn)
        self._retired.add(pcpn)
        if not self._free:
            return None
        grant = self.allocate(owner, 1)
        return grant.pcpns[0]

    def _check_pcpn(self, pcpn: int) -> None:
        if not 0 <= pcpn < self.num_pages:
            raise PageAllocationError(
                f"pcpn {pcpn} out of range [0, {self.num_pages})"
            )

    def check_invariants(self) -> None:
        """Assert exclusivity, conservation and reverse-map consistency;
        used by property tests."""
        seen = set(self._free)
        if len(seen) != len(self._free):
            raise PageAllocationError("duplicate pages in free list")
        if self._free != sorted(seen):
            raise PageAllocationError("free list not sorted")
        for pcpn in self._free:
            if self._page_owner[pcpn] is not None:
                raise PageAllocationError(
                    f"free page {pcpn} has owner "
                    f"{self._page_owner[pcpn]!r} in the reverse map"
                )
        for owner, pages in self._owner_pages.items():
            overlap = seen.intersection(pages)
            if overlap:
                raise PageAllocationError(
                    f"pages {sorted(overlap)} double-owned ({owner})"
                )
            if list(pages) != sorted(set(pages)):
                raise PageAllocationError(
                    f"{owner}: held pages not sorted/unique"
                )
            for pcpn in pages:
                if self._page_owner[pcpn] != owner:
                    raise PageAllocationError(
                        f"page {pcpn} owned by {owner} but reverse map "
                        f"says {self._page_owner[pcpn]!r}"
                    )
            seen |= set(pages)
        if seen & self._retired:
            raise PageAllocationError(
                f"retired pages {sorted(seen & self._retired)} are "
                "free or owned"
            )
        if seen | self._retired != set(range(self.num_pages)):
            raise PageAllocationError("page conservation violated")
