"""Model-exclusive region management (Section III-B3).

A *region* is the set of physical cache pages a model currently owns,
exposed to the model's NPU(s) as a contiguous virtual cache address space
through the CPT.  The :class:`RegionManager` keeps the global page
allocator and every model's CPT consistent: growing a region allocates
pages and appends CPT entries; shrinking releases the highest virtual pages
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import CacheConfig
from ..errors import PageAllocationError
from .cpt import CachePageTable
from .pages import CachePageAllocator


@dataclass
class ModelRegion:
    """One model's exclusive slice of the NPU subspace.

    Attributes:
        task_id: owning model/task identifier.
        cpt: the CPT exposing the region as virtual cache space.
        pcpns: physical pages backing virtual pages 0..n-1, in vcpn order.
    """

    task_id: str
    cpt: CachePageTable
    pcpns: List[int]

    @property
    def num_pages(self) -> int:
        return len(self.pcpns)

    @property
    def bytes(self) -> int:
        return self.num_pages * self.cpt.cache.page_bytes


class RegionManager:
    """Keeps page ownership and CPT contents consistent across models."""

    def __init__(self, cache: CacheConfig,
                 allocator: Optional[CachePageAllocator] = None) -> None:
        self.cache = cache
        self.allocator = allocator or CachePageAllocator(cache.num_pages)
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
        grant = self.allocator.allocate(task_id, num_pages)
        cpt = CachePageTable(self.cache)
        cpt.remap_all(list(grant.pcpns))
        region = ModelRegion(task_id=task_id, cpt=cpt,
                             pcpns=list(grant.pcpns))
        self._regions[task_id] = region
        return region

    def resize(self, region: ModelRegion, target_pages: int) -> int:
        """Grow/shrink ``region`` to ``target_pages`` pages.

        Returns the signed page delta.  The resize is delta-based: only
        the page difference is granted or released, and only the affected
        CPT entries change.  Growth appends new virtual pages (existing
        vcpn->pcpn mappings — and therefore cached data — are preserved);
        shrinkage drops the highest vcpns first.

        Raises:
            PageAllocationError: not enough free pages to grow (callers
                treat this as a wait-and-retry condition); the region is
                left unchanged.
        """
        pcpns = region.pcpns
        current = len(pcpns)
        delta = target_pages - current
        if delta > 0:
            grant = self.allocator.allocate(region.task_id, delta)
            cpt_map = region.cpt.map
            for vcpn, pcpn in enumerate(grant.pcpns, start=current):
                cpt_map(vcpn, pcpn)
            pcpns.extend(grant.pcpns)
        elif delta < 0:
            victims = pcpns[delta:]
            cpt_unmap = region.cpt.unmap
            for vcpn in range(target_pages, current):
                cpt_unmap(vcpn)
            del pcpns[delta:]
            self.allocator.release(region.task_id, victims)
        return delta

    def retire_owned(self, region: ModelRegion, pcpn: int) -> bool:
        """Evacuate an ECC-retired physical page out of ``region``.

        With a free replacement page the backing is swapped in place
        (the virtual page keeps its vcpn; region size is preserved);
        with no free page the region shrinks by one page — the last
        virtual page's backing moves into the hole and the top vcpn
        unmaps, so the region stays virtually contiguous.

        Returns:
            True when the region shrank (the caller must sync any
            page-count bookkeeping), False on an in-place swap.
        """
        vcpn = region.pcpns.index(pcpn)
        replacement = self.allocator.evacuate(region.task_id, pcpn)
        cpt = region.cpt
        if replacement is not None:
            cpt.unmap(vcpn)
            cpt.map(vcpn, replacement)
            region.pcpns[vcpn] = replacement
            return False
        last = region.num_pages - 1
        if vcpn == last:
            cpt.unmap(vcpn)
            region.pcpns.pop()
            return True
        last_pcpn = region.pcpns[last]
        cpt.unmap(last)
        cpt.unmap(vcpn)
        cpt.map(vcpn, last_pcpn)
        region.pcpns[vcpn] = last_pcpn
        region.pcpns.pop()
        return True

    def destroy_region(self, task_id: str) -> int:
        """Release every page of ``task_id``'s region; returns page count."""
        region = self._regions.pop(task_id, None)
        if region is None:
            raise PageAllocationError(f"{task_id} has no region")
        released = self.allocator.release(task_id)
        return released

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Regions and allocator agree; CPTs are internally consistent."""
        self.allocator.check_invariants()
        for task_id, region in self._regions.items():
            held = self.allocator.pages_of(task_id)
            if sorted(region.pcpns) != held:
                raise PageAllocationError(
                    f"{task_id}: region pages {sorted(region.pcpns)} != "
                    f"allocator view {held}"
                )
            for vcpn, pcpn in enumerate(region.pcpns):
                if region.cpt.lookup(vcpn) != pcpn:
                    raise PageAllocationError(
                        f"{task_id}: CPT entry {vcpn} inconsistent"
                    )
            if region.cpt.num_mapped != region.num_pages:
                raise PageAllocationError(
                    f"{task_id}: CPT has stale entries"
                )
