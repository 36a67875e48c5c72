"""Tests for the cache page table (Section III-B3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, MiB
from repro.core.cpt import CachePageTable
from repro.errors import CPTError


@pytest.fixture
def cpt():
    return CachePageTable(CacheConfig())


class TestTableManagement:
    def test_paper_sram_budget(self, cpt):
        # Paper: <= 512 entries x 3 bytes = 1.5 KiB for a 16 MiB cache.
        # With a 12/16 way split the NPU subspace holds 384 pages.
        assert cpt.max_entries == 384
        assert cpt.sram_bytes == 384 * 3

    def test_full_cache_cpt_is_512_entries(self):
        cache = CacheConfig(npu_ways=16)
        assert CachePageTable(cache).max_entries == 512

    def test_map_unmap(self, cpt):
        cpt.map(0, 42)
        assert cpt.lookup(0) == 42
        assert cpt.unmap(0) == 42
        assert cpt.lookup(0) is None

    def test_double_map_raises(self, cpt):
        cpt.map(0, 1)
        with pytest.raises(CPTError):
            cpt.map(0, 2)

    def test_unmap_invalid_raises(self, cpt):
        with pytest.raises(CPTError):
            cpt.unmap(3)

    def test_out_of_range_vcpn(self, cpt):
        with pytest.raises(CPTError):
            cpt.map(cpt.max_entries, 0)

    def test_out_of_range_pcpn(self, cpt):
        with pytest.raises(CPTError):
            cpt.map(0, 10_000)

    def test_remap_all(self, cpt):
        cpt.remap_all([5, 6, 7])
        assert cpt.num_mapped == 3
        assert cpt.mapped_vcpns() == [0, 1, 2]
        assert cpt.lookup(1) == 6

    def test_remap_all_replaces_every_entry(self, cpt):
        cpt.map(9, 100)
        cpt.remap_all([3, 1])
        assert cpt.mapped_vcpns() == [0, 1]
        assert cpt.lookup(9) is None

    def test_remap_all_over_capacity_raises(self, cpt):
        cpt.remap_all([1])
        with pytest.raises(CPTError):
            cpt.remap_all(list(range(cpt.max_entries + 1)))
        assert cpt.lookup(0) == 1  # the rejected table changed nothing

    def test_remap_all_to_full_capacity(self, cpt):
        cpt.remap_all(list(reversed(range(cpt.max_entries))))
        assert cpt.num_mapped == cpt.max_entries
        assert cpt.lookup(cpt.max_entries - 1) == 0

    def test_lookup_unmapped_is_none(self, cpt):
        cpt.map(1, 4)
        assert cpt.lookup(0) is None
        assert cpt.lookup(cpt.max_entries - 1) is None

    @pytest.mark.parametrize("vcpn", [-1, 384])
    def test_lookup_out_of_range_raises(self, cpt, vcpn):
        with pytest.raises(CPTError):
            cpt.lookup(vcpn)

    @pytest.mark.parametrize("vcpn", [-1, 384])
    def test_unmap_out_of_range_raises(self, cpt, vcpn):
        with pytest.raises(CPTError):
            cpt.unmap(vcpn)

    def test_negative_pcpn_rejected(self, cpt):
        with pytest.raises(CPTError):
            cpt.map(0, -1)
        assert cpt.num_mapped == 0

    def test_num_mapped_tracks_map_and_unmap(self, cpt):
        for vcpn in range(4):
            cpt.map(vcpn, 10 + vcpn)
        cpt.unmap(2)
        assert cpt.num_mapped == 3
        assert cpt.mapped_vcpns() == [0, 1, 3]


class TestTranslationProperties:
    @given(
        pcpns=st.lists(
            st.integers(0, 383), unique=True, min_size=1, max_size=32
        ),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_distinct_pages_never_collide(self, pcpns, data):
        cpt = CachePageTable(CacheConfig())
        cpt.remap_all(pcpns)
        vcpn_a = data.draw(st.integers(0, len(pcpns) - 1))
        vcpn_b = data.draw(st.integers(0, len(pcpns) - 1))
        pa = cpt.lookup(vcpn_a)
        pb = cpt.lookup(vcpn_b)
        assert (pa, pb) == (pcpns[vcpn_a], pcpns[vcpn_b])
        assert (pa == pb) == (vcpn_a == vcpn_b)

    @given(cache_mb=st.sampled_from([4, 8, 16, 32, 64]))
    def test_scaling_cache_sizes(self, cache_mb):
        cache = CacheConfig(total_bytes=cache_mb * MiB)
        cpt = CachePageTable(cache)
        assert cpt.max_entries == cache.num_pages
        cpt.map(0, cache.num_pages - 1)
        assert cpt.lookup(0) == cache.num_pages - 1
