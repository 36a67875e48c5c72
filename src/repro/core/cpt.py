"""Hardware cache page table (Section III-B3, Figure 5(b)).

Each NPU carries a CPT that maps the running model's *virtual cache page
numbers* (``vcpn``) onto *physical cache page numbers* (``pcpn``) of the
NPU subspace, so a model sees one contiguous cache region however its
granted pages are scattered.  Regions grow and shrink by installing and
invalidating entries for the delta pages (:mod:`~repro.core.region`).

For the paper's 16 MiB cache with 32 KiB pages the CPT holds at most 512
entries of 3 bytes (pcpn + valid bit): a 1.5 KiB SRAM, 0.9 % of NPU area
(Table III).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CacheConfig
from ..errors import CPTError


class CachePageTable:
    """Per-NPU vcpn -> pcpn page map."""

    #: Bytes of SRAM per CPT entry (pcpn + valid bit), per the paper.
    ENTRY_BYTES = 3

    def __init__(self, cache: CacheConfig) -> None:
        self.cache = cache
        self.max_entries = cache.num_pages
        self._table: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------

    @property
    def num_mapped(self) -> int:
        """Number of valid entries."""
        return len(self._table)

    @property
    def sram_bytes(self) -> int:
        """SRAM footprint of the table (paper: 1.5 KiB for 512 entries)."""
        return self.max_entries * self.ENTRY_BYTES

    def map(self, vcpn: int, pcpn: int) -> None:
        """Install translation ``vcpn -> pcpn``.

        Raises:
            CPTError: vcpn/pcpn out of range or vcpn already valid.
        """
        # Range checks inlined (_check_vcpn) — one entry is installed
        # per delta page of every region grow.
        if not 0 <= vcpn < self.max_entries:
            raise CPTError(
                f"vcpn {vcpn} out of range [0, {self.max_entries})"
            )
        if not 0 <= pcpn < self.max_entries:
            raise CPTError(f"pcpn {pcpn} out of range")
        if vcpn in self._table:
            raise CPTError(f"vcpn {vcpn} already mapped")
        self._table[vcpn] = pcpn

    def unmap(self, vcpn: int) -> int:
        """Invalidate entry ``vcpn``; returns the released pcpn."""
        if not 0 <= vcpn < self.max_entries:
            raise CPTError(
                f"vcpn {vcpn} out of range [0, {self.max_entries})"
            )
        pcpn = self._table.pop(vcpn, None)
        if pcpn is None:
            raise CPTError(f"vcpn {vcpn} is not mapped")
        return pcpn

    def remap_all(self, pcpns: List[int]) -> None:
        """Replace the whole table: vcpn ``i`` maps to ``pcpns[i]``.

        This is the bulk "modify CPT" step of the online allocation flow
        (Figure 6): after a page request succeeds, the granted physical
        pages back the model's contiguous virtual space.
        """
        if len(pcpns) > self.max_entries:
            raise CPTError(
                f"{len(pcpns)} entries exceed CPT capacity "
                f"{self.max_entries}"
            )
        self._table = {vcpn: pcpn for vcpn, pcpn in enumerate(pcpns)}

    def lookup(self, vcpn: int) -> Optional[int]:
        """Return the pcpn for ``vcpn`` or ``None`` if invalid."""
        self._check_vcpn(vcpn)
        return self._table.get(vcpn)

    def mapped_vcpns(self) -> List[int]:
        """Sorted valid vcpns."""
        return sorted(self._table)

    def _check_vcpn(self, vcpn: int) -> None:
        if not 0 <= vcpn < self.max_entries:
            raise CPTError(
                f"vcpn {vcpn} out of range [0, {self.max_entries})"
            )
