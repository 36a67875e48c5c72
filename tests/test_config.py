"""Tests for the SoC configuration (paper Table II)."""

import pytest

from repro.config import (
    CACHE_PAGE_BYTES,
    KiB,
    MiB,
    CacheConfig,
    DRAMConfig,
    NPUConfig,
    SoCConfig,
    default_soc,
)
from repro.errors import ConfigError


class TestTableII:
    """The default configuration must match paper Table II exactly."""

    def test_pe_array(self):
        soc = default_soc()
        assert soc.npu.pe_rows == 32
        assert soc.npu.pe_cols == 32

    def test_scratchpad(self):
        assert default_soc().npu.scratchpad_bytes == 256 * KiB

    def test_cores(self):
        assert default_soc().num_npu_cores == 16

    def test_cache_capacity(self):
        assert default_soc().cache.total_bytes == 16 * MiB

    def test_way_split(self):
        cache = default_soc().cache
        assert cache.npu_ways == 12
        assert cache.num_ways == 16

    def test_slices(self):
        assert default_soc().cache.num_slices == 8

    def test_dram_bandwidth(self):
        assert default_soc().dram.total_bandwidth_bytes_per_s == \
            pytest.approx(102.4e9)

    def test_dram_channels(self):
        assert default_soc().dram.num_channels == 4

    def test_frequency(self):
        assert default_soc().npu.frequency_hz == pytest.approx(1e9)


class TestCacheGeometry:
    def test_page_size_is_32k(self):
        assert CACHE_PAGE_BYTES == 32 * KiB

    def test_npu_subspace(self):
        cache = CacheConfig()
        assert cache.npu_subspace_bytes == 12 * MiB

    def test_num_pages(self):
        # 12 MiB NPU subspace / 32 KiB pages = 384 pages.
        assert CacheConfig().num_pages == 384

    def test_sets_per_slice(self):
        cache = CacheConfig()
        assert cache.sets_per_slice * cache.num_ways * cache.line_bytes \
            == cache.slice_bytes

    def test_slice_bytes(self):
        assert CacheConfig().slice_bytes == 2 * MiB

    def test_invalid_way_split(self):
        with pytest.raises(ConfigError):
            CacheConfig(npu_ways=17)

    def test_invalid_line_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(line_bytes=48)

    def test_page_must_divide_subspace(self):
        with pytest.raises(ConfigError):
            CacheConfig(total_bytes=16 * MiB + 64)


class TestNPUConfig:
    def test_macs_per_cycle(self):
        assert NPUConfig().macs_per_cycle == 1024

    def test_rejects_zero_pe(self):
        with pytest.raises(ConfigError):
            NPUConfig(pe_rows=0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigError):
            NPUConfig(dwconv_efficiency=0.0)
        with pytest.raises(ConfigError):
            NPUConfig(dwconv_efficiency=1.5)


class TestDRAMConfig:
    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            DRAMConfig(access_latency_s=-1e-9)


class TestSoCConfig:
    def test_with_cache_bytes_preserves_ratio(self):
        soc = SoCConfig().with_cache_bytes(4 * MiB)
        assert soc.cache.total_bytes == 4 * MiB
        assert soc.cache.npu_ways == 12
        assert soc.cache.num_ways == 16
        assert soc.cache.num_slices == 8

    def test_with_cache_bytes_keeps_other_subsystems(self):
        soc = SoCConfig().with_cache_bytes(64 * MiB)
        assert soc.npu == SoCConfig().npu
        assert soc.dram == SoCConfig().dram

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SoCConfig(num_npu_cores=0)

    def test_rejects_zero_dtype(self):
        with pytest.raises(ConfigError):
            SoCConfig(dtype_bytes=0)
