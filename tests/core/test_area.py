"""Tests for the Table III area model."""

import pytest

from repro.config import KiB, MiB, NPUConfig, SoCConfig
from repro.core.area import CPT_ENTRY_BYTES, AreaModel, area_breakdown_table


@pytest.fixture(scope="module")
def model():
    return AreaModel(SoCConfig())


def _percent(soc, side, component):
    """A component's share of its side in the Table III breakdown."""
    rows = area_breakdown_table(soc)[side]
    return next(pct for name, _, pct in rows if name == component)


class TestPaperNumbers:
    """The Table II configuration must reproduce Table III closely."""

    def test_scratchpad_area(self, model):
        assert model.scratchpad_area() == pytest.approx(6302e3, rel=0.01)

    def test_pe_array_area(self, model):
        assert model.pe_array_area() == pytest.approx(1302e3, rel=0.01)

    def test_data_array_area(self, model):
        assert model.data_array_area() == pytest.approx(21878e3, rel=0.01)

    def test_tag_array_area(self, model):
        assert model.tag_array_area() == pytest.approx(2398e3, rel=0.01)

    def test_nec_area(self, model):
        assert model.nec_area() == pytest.approx(66e3, rel=0.01)

    def test_npu_total(self, model):
        # Paper: 7905k um^2 (our CPT is slightly smaller: 384 entries for
        # the 12/16 split instead of the full-cache 512).
        assert model.npu_total_area() == pytest.approx(7905e3, rel=0.02)

    def test_slice_total(self, model):
        assert model.slice_total_area() == pytest.approx(24676e3, rel=0.01)

    def test_cpt_overhead_fraction(self):
        # Paper: 0.9 % of NPU area.
        assert _percent(SoCConfig(), "NPU", "CPT") == pytest.approx(
            0.9, abs=0.2)

    def test_nec_overhead_fraction(self):
        # Paper: 0.3 % of slice area.
        assert _percent(SoCConfig(), "Cache Slice", "NEC") == \
            pytest.approx(0.3, abs=0.1)

    def test_cpt_sram_budget(self, model):
        # Paper: at most 1.5 KiB; 384 pages x 3 B = 1.125 KiB here.
        num_pages = model.soc.cache.num_pages
        assert num_pages == 384
        assert num_pages * CPT_ENTRY_BYTES <= int(1.5 * KiB)


class TestScaling:
    def test_cpt_grows_with_cache(self):
        small = AreaModel(SoCConfig().with_cache_bytes(4 * MiB))
        big = AreaModel(SoCConfig().with_cache_bytes(64 * MiB))
        assert big.cpt_area() > small.cpt_area()

    def test_scratchpad_scales_linearly(self):
        half = AreaModel(
            SoCConfig(npu=NPUConfig(scratchpad_bytes=128 * KiB))
        )
        full = AreaModel(SoCConfig())
        ratio = full.scratchpad_area() / half.scratchpad_area()
        assert ratio == pytest.approx(2.0)

    def test_overheads_remain_small_across_configs(self):
        # The NEC is fixed logic, so its share rises as slices shrink
        # (~1 % at 4 MiB); the CPT grows with page count (~1.8 % at
        # 64 MiB).  Both stay far below the 5 % "lightweight" bar.
        for cache_mb in (4, 8, 16, 32, 64):
            soc = SoCConfig().with_cache_bytes(cache_mb * MiB)
            assert _percent(soc, "NPU", "CPT") < 2.0
            assert _percent(soc, "Cache Slice", "NEC") < 1.5


class TestBreakdownTable:
    def test_structure(self):
        table = area_breakdown_table()
        assert set(table) == {"NPU", "Cache Slice"}
        assert len(table["NPU"]) == 5
        assert len(table["Cache Slice"]) == 5

    def test_percentages_sum_to_100(self):
        table = area_breakdown_table()
        for rows in table.values():
            component_pct = sum(pct for name, _, pct in rows[:-1])
            assert component_pct == pytest.approx(100.0, abs=0.1)

    def test_totals_are_last(self):
        table = area_breakdown_table()
        assert table["NPU"][-1][0] == "NPU total"
        assert table["Cache Slice"][-1][2] == pytest.approx(100.0)
