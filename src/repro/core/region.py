"""Model-exclusive region management (Section III-B3).

A *region* is the set of physical cache pages a model currently owns,
exposed to the model's NPU(s) as a contiguous virtual cache address
space.  Its page list is the model's cache page table (CPT, Figure
5(b)): virtual cache page ``vcpn`` is backed by physical page
``pcpns[vcpn]``, so a model sees one contiguous cache region however its
granted pages are scattered.  The list is the one record of a region's
pages; the page allocator keeps only the free list and the pcpn -> owner
reverse map.  The :class:`RegionManager` keeps the two consistent:
growing a region allocates pages and appends them as new virtual pages;
shrinking releases the highest virtual pages first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import CacheConfig
from ..errors import PageAllocationError
from .pages import CachePageAllocator


@dataclass
class ModelRegion:
    """One model's exclusive slice of the NPU subspace.

    Attributes:
        task_id: owning model/task identifier.
        pcpns: the region's CPT: physical pages backing virtual pages
            0..n-1, in vcpn order.
    """

    task_id: str
    pcpns: List[int]

    @property
    def num_pages(self) -> int:
        return len(self.pcpns)


class RegionManager:
    """Keeps page ownership and every region's page list consistent."""

    def __init__(self, cache: CacheConfig) -> None:
        self.cache = cache
        self.allocator = CachePageAllocator(cache.num_pages)
        self._regions: Dict[str, ModelRegion] = {}

    # ------------------------------------------------------------------

    @property
    def free_pages(self) -> int:
        """Pages not owned by any region."""
        return self.allocator.free_pages

    def region_of(self, task_id: str) -> Optional[ModelRegion]:
        """The region owned by ``task_id`` (``None`` if it has none)."""
        return self._regions.get(task_id)

    def regions(self) -> List[ModelRegion]:
        """All live regions sorted by task id."""
        return [self._regions[t] for t in sorted(self._regions)]

    # ------------------------------------------------------------------

    def create_region(self, task_id: str, num_pages: int) -> ModelRegion:
        """Create a region of ``num_pages`` pages for ``task_id``.

        Raises:
            PageAllocationError: the task already has a region or not
                enough pages are free.
        """
        if task_id in self._regions:
            raise PageAllocationError(f"{task_id} already has a region")
        region = ModelRegion(task_id,
                             self.allocator.allocate(task_id, num_pages))
        self._regions[task_id] = region
        return region

    def resize(self, region: ModelRegion, target_pages: int) -> int:
        """Grow/shrink ``region`` to ``target_pages`` pages.

        Returns the signed page delta.  The resize is delta-based: only
        the page difference is granted or released.  Growth appends new
        virtual pages (existing vcpn->pcpn mappings — and therefore
        cached data — are preserved); shrinkage drops the highest vcpns
        first.

        Raises:
            PageAllocationError: a negative target, or not enough free
                pages to grow (callers treat this as a wait-and-retry
                condition); the region is left unchanged.
        """
        if target_pages < 0:
            raise PageAllocationError(
                f"{region.task_id}: negative region size {target_pages}"
            )
        pcpns = region.pcpns
        delta = target_pages - len(pcpns)
        if delta > 0:
            pcpns.extend(self.allocator.allocate(region.task_id, delta))
        elif delta < 0:
            self.allocator.release(region.task_id, pcpns[delta:])
            del pcpns[delta:]
        return delta

    def retire_owned(self, region: ModelRegion, pcpn: int) -> bool:
        """Evacuate an ECC-retired physical page out of ``region``.

        With a free replacement page the backing is swapped in place
        (the virtual page keeps its vcpn; region size is preserved);
        with no free page the region shrinks by one page — the last
        virtual page's backing moves into the hole and the top vcpn
        goes, so the region stays virtually contiguous.

        Returns:
            True when the region shrank (the caller must sync any
            page-count bookkeeping), False on an in-place swap.
        """
        pcpns = region.pcpns
        vcpn = pcpns.index(pcpn)
        replacement = self.allocator.evacuate(region.task_id, pcpn)
        if replacement is not None:
            pcpns[vcpn] = replacement
            return False
        last = pcpns.pop()
        if vcpn < len(pcpns):
            pcpns[vcpn] = last
        return True

    def destroy_region(self, task_id: str) -> int:
        """Release every page of ``task_id``'s region; returns page count."""
        region = self._regions.get(task_id)
        if region is None:
            raise PageAllocationError(f"{task_id} has no region")
        released = self.allocator.release(task_id, region.pcpns)
        del self._regions[task_id]
        return released

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """The allocator is consistent, and its reverse map names exactly
        the regions' pages: each region's pages are owned by its task
        and listed once, and no page is owned outside a region."""
        alloc = self.allocator
        alloc.check_invariants()
        listed: List[Optional[str]] = [None] * alloc.num_pages
        for task_id, region in self._regions.items():
            for pcpn in region.pcpns:
                owner = alloc.owner_of(pcpn)
                if listed[pcpn] is not None:
                    raise PageAllocationError(
                        f"page {pcpn} is listed twice (regions of "
                        f"{listed[pcpn]} and {task_id})"
                    )
                if owner != task_id:
                    raise PageAllocationError(
                        f"{task_id}: region lists page {pcpn}, which "
                        f"the reverse map gives to {owner!r}"
                    )
                listed[pcpn] = task_id
        for pcpn in range(alloc.num_pages):
            owner = alloc.owner_of(pcpn)
            if owner is not None and listed[pcpn] is None:
                raise PageAllocationError(
                    f"page {pcpn} is owned by {owner!r} outside any "
                    "region"
                )
