"""Analytic area model (paper Table III, 45 nm).

The paper synthesizes the CaMDN architecture with Synopsys DC in a 45 nm
process and reports this breakdown:

===========  ==========  =====   ===========  ==========  =====
NPU                              Cache slice
-----------------------------   -------------------------------
Component    Area (um^2)  %      Component    Area (um^2)  %
===========  ==========  =====   ===========  ==========  =====
Scratchpad   6302k       79.7    Data array   21878k      88.7
PE array     1302k       16.5    Tag array    2398k       9.7
CPT          73k         0.9     NEC          66k         0.3
others       228k        2.9     others       334k        1.3
total        7905k       100.0   total        24676k      100.0
===========  ==========  =====   ===========  ==========  =====

We replace the synthesis flow with per-component area constants (um^2 per
SRAM bit / per PE / fixed logic) calibrated so the Table II configuration
reproduces the table above; the model then extrapolates to other
configurations (different scratchpad sizes, cache capacities, CPT entry
counts) for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..config import SoCConfig

#: 45 nm single-port SRAM density for small scratchpad-style macros
#: (um^2 per bit), calibrated to 6302k um^2 for a 256 KiB scratchpad.
SPAD_UM2_PER_BIT = 6302e3 / (256 * 1024 * 8)

#: 45 nm high-density array macro (um^2 per bit), calibrated to 21878k um^2
#: for a 2 MiB cache-slice data array.
DATA_ARRAY_UM2_PER_BIT = 21878e3 / (2 * 1024 * 1024 * 8)

#: Tag array density (um^2 per bit): tag+state bits are latency-critical and
#: less dense; calibrated to 2398k um^2 for a 2048-set, 16-way slice.
_TAG_BITS_PER_LINE = 26
TAG_ARRAY_UM2_PER_BIT = 2398e3 / (2048 * 16 * _TAG_BITS_PER_LINE)

#: Area of one 8-bit MAC processing element with pipeline registers.
PE_UM2 = 1302e3 / (32 * 32)

#: Bytes of SRAM per CPT entry (pcpn + valid bit), per the paper: 1.5 KiB
#: for the 512 pages of a 16 MiB cache.
CPT_ENTRY_BYTES = 3

#: CPT translation/indexing logic beyond its SRAM bits.
CPT_LOGIC_UM2 = 73e3 - 512 * CPT_ENTRY_BYTES * 8 * SPAD_UM2_PER_BIT

#: NEC control logic (request decoder, dual interface, state machines).
NEC_LOGIC_UM2 = 66e3

#: Remaining NPU logic (instruction buffer, decoder, DMA, SIMD).
NPU_OTHERS_UM2 = 228e3

#: Remaining slice logic (cache controller, queues, interconnect port).
SLICE_OTHERS_UM2 = 334e3


@dataclass(frozen=True)
class AreaModel:
    """Area estimator bound to an SoC configuration."""

    soc: SoCConfig

    # -- NPU side -------------------------------------------------------

    def scratchpad_area(self) -> float:
        bits = self.soc.npu.scratchpad_bytes * 8
        return bits * SPAD_UM2_PER_BIT

    def pe_array_area(self) -> float:
        return self.soc.npu.pe_rows * self.soc.npu.pe_cols * PE_UM2

    def cpt_area(self) -> float:
        """CPT SRAM (one entry per cache page) plus translation logic."""
        sram_bits = self.soc.cache.num_pages * CPT_ENTRY_BYTES * 8
        return sram_bits * SPAD_UM2_PER_BIT + CPT_LOGIC_UM2

    def npu_others_area(self) -> float:
        return NPU_OTHERS_UM2

    def npu_total_area(self) -> float:
        return (
            self.scratchpad_area()
            + self.pe_array_area()
            + self.cpt_area()
            + self.npu_others_area()
        )

    # -- Cache slice side ----------------------------------------------

    def data_array_area(self) -> float:
        bits = self.soc.cache.slice_bytes * 8
        return bits * DATA_ARRAY_UM2_PER_BIT

    def tag_array_area(self) -> float:
        cache = self.soc.cache
        bits = cache.sets_per_slice * cache.num_ways * _TAG_BITS_PER_LINE
        return bits * TAG_ARRAY_UM2_PER_BIT

    def nec_area(self) -> float:
        return NEC_LOGIC_UM2

    def slice_others_area(self) -> float:
        return SLICE_OTHERS_UM2

    def slice_total_area(self) -> float:
        return (
            self.data_array_area()
            + self.tag_array_area()
            + self.nec_area()
            + self.slice_others_area()
        )


def area_breakdown_table(soc: SoCConfig | None = None
                         ) -> Dict[str, List[Tuple[str, float, float]]]:
    """Reproduce Table III: rows of (component, area_um2, percent).

    Returns:
        ``{"NPU": [...], "Cache Slice": [...]}`` with rows ordered as the
        paper prints them, totals last.
    """
    model = AreaModel(soc or SoCConfig())
    npu_total = model.npu_total_area()
    slice_total = model.slice_total_area()
    npu_rows = [
        ("Scratchpad", model.scratchpad_area()),
        ("PE Array", model.pe_array_area()),
        ("CPT", model.cpt_area()),
        ("others", model.npu_others_area()),
        ("NPU total", npu_total),
    ]
    slice_rows = [
        ("Data Array", model.data_array_area()),
        ("Tag Array", model.tag_array_area()),
        ("NEC", model.nec_area()),
        ("others", model.slice_others_area()),
        ("Cache Slice total", slice_total),
    ]
    return {
        "NPU": [
            (name, area, 100.0 * area / npu_total)
            for name, area in npu_rows
        ],
        "Cache Slice": [
            (name, area, 100.0 * area / slice_total)
            for name, area in slice_rows
        ],
    }
