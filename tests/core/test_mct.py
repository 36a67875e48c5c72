"""Tests for mapping candidate tables (Section III-C3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KiB
from repro.core.allocator import DynamicCacheAllocator
from repro.core.mct import (
    CacheMapEntry,
    LoopLevel,
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)
from repro.errors import MappingError

PAGE = 32 * KiB


def _candidate(cache_bytes: int, dram: float = 100.0,
               kind: str = "LWM") -> MappingCandidate:
    return MappingCandidate(
        kind=kind,
        usage_limit_bytes=cache_bytes,
        cache_bytes=cache_bytes,
        dram_bytes=dram,
        compute_cycles=10,
    )


def _mct(cache_sizes) -> MappingCandidateTable:
    mct = MappingCandidateTable(layer_index=0, layer_name="l0")
    mct.lwm = [_candidate(c) for c in cache_sizes]
    return mct


def _geometry(pages):
    """Geometry of an MCT whose LWM candidates need ``pages`` pages."""
    return _mct([p * PAGE for p in pages]).geometry(PAGE)


# The linear candidate walks that MCTGeometry's bisect lookups replace.

def _scan_select(pages, budget):
    """Algorithm 1 lines 16-22: start from lwm[0] and move only to a
    fitting candidate that needs strictly more pages."""
    best = 0
    for i, need in enumerate(pages):
        if need <= budget and need > pages[best]:
            best = i
    return best


def _scan_last_fitting(pages, budget):
    """HW-only static split: the last candidate that fits, else lwm[0]."""
    best = 0
    for i, need in enumerate(pages):
        if need <= budget:
            best = i
    return best


def _scan_next_smaller(pages, target):
    """Timeout downgrade: the last candidate strictly below ``target``."""
    best = -1
    for i, need in enumerate(pages):
        if need < target:
            best = i
    return best


def _scan_max_at_most(pages, budget):
    """``Pnext``: the largest page need that fits, else 0."""
    return max((need for need in pages if need <= budget), default=0)


SCANS = {
    "select_index": _scan_select,
    "last_fitting_index": _scan_last_fitting,
    "next_smaller_index": _scan_next_smaller,
}

#: Page needs per LWM candidate.  Mapper output is sorted and leads with
#: zero pages; hand-built tables need neither, and the lookups must still
#: pick what the linear walks pick.
PAGE_LISTS = {
    "sorted": [0, 1, 3, 6],
    "duplicates": [0, 1, 1, 3, 3, 6],
    "single": [0],
    "flat": [2, 2, 2],
    "unsorted": [0, 4, 2, 4, 1],
    "descending": [5, 3, 0],
    "nonzero-head": [2, 5, 1, 3],
}


class TestLoopLevel:
    def test_valid(self):
        LoopLevel("m", 4, "dram")

    def test_rejects_bad_dim(self):
        with pytest.raises(MappingError):
            LoopLevel("x", 4, "dram")

    def test_rejects_bad_level(self):
        with pytest.raises(MappingError):
            LoopLevel("m", 4, "l3")

    def test_rejects_zero_factor(self):
        with pytest.raises(MappingError):
            LoopLevel("m", 0, "npu")


class TestCacheMapEntry:
    def test_bypass_has_no_size(self):
        with pytest.raises(MappingError):
            CacheMapEntry("weight", 0, 100, reuse=False, bypass=True)

    def test_reuse_bypass_conflict(self):
        with pytest.raises(MappingError):
            CacheMapEntry("weight", 0, 0, reuse=True, bypass=True)

    def test_valid_pinned(self):
        entry = CacheMapEntry("input", 0x200, 0x100, reuse=True,
                              bypass=False)
        assert entry.size == 0x100


class TestMappingCandidate:
    def test_pages_needed_rounds_up(self):
        candidate = _candidate(PAGE + 1)
        assert candidate.pages_needed(PAGE) == 2

    def test_zero_cache_needs_zero_pages(self):
        assert _candidate(0).pages_needed(PAGE) == 0

    def test_rejects_over_limit(self):
        with pytest.raises(MappingError):
            MappingCandidate(
                kind="LWM", usage_limit_bytes=10, cache_bytes=20,
                dram_bytes=0, compute_cycles=0,
            )

    def test_rejects_unknown_kind(self):
        with pytest.raises(MappingError):
            MappingCandidate(
                kind="XXX", usage_limit_bytes=0, cache_bytes=0,
                dram_bytes=0, compute_cycles=0,
            )

    def test_cache_map_cannot_exceed_claim(self):
        with pytest.raises(MappingError):
            MappingCandidate(
                kind="LWM", usage_limit_bytes=64, cache_bytes=64,
                dram_bytes=0, compute_cycles=0,
                cache_map=(
                    CacheMapEntry("weight", 0, 128, reuse=True,
                                  bypass=False),
                ),
            )


class TestMCT:
    def test_validate_requires_zero_fallback(self):
        mct = _mct([PAGE])
        with pytest.raises(MappingError):
            mct.validate(PAGE)

    def test_validate_requires_sorted(self):
        mct = MappingCandidateTable(0, "l0")
        mct.lwm = [_candidate(2 * PAGE), _candidate(0)]
        with pytest.raises(MappingError):
            mct.validate(PAGE)

    def test_validate_ok(self):
        _mct([0, PAGE, 4 * PAGE]).validate(PAGE)


class TestMCTGeometry:
    @pytest.mark.parametrize("lookup", sorted(SCANS))
    @pytest.mark.parametrize("name", sorted(PAGE_LISTS))
    def test_lookup_matches_linear_scan(self, name, lookup):
        pages = PAGE_LISTS[name]
        geom = _geometry(pages)
        for budget in range(-1, max(pages) + 3):
            assert getattr(geom, lookup)(budget) == \
                SCANS[lookup](pages, budget), budget

    @pytest.mark.parametrize("name", sorted(PAGE_LISTS))
    def test_pnext_matches_linear_scan(self, name):
        """The allocator's end-of-layer ``Pnext`` bisects the next
        layer's geometry; it must pick what the linear scan picks."""
        pages = PAGE_LISTS[name]
        mf = ModelMappingFile(
            model_name="toy", usage_levels=(),
            mcts=[_mct([0]), _mct([p * PAGE for p in pages])],
        )
        alloc = DynamicCacheAllocator(page_bytes=PAGE, total_pages=64)
        state = alloc.register_task("A", mf)
        for palloc in range(max(pages) + 3):
            state.palloc = palloc
            alloc.end_layer(state, 0, now=0.0)
            assert state.pnext == _scan_max_at_most(pages, palloc), palloc

    @given(pages=st.lists(st.integers(0, 12), min_size=1, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_random_tables_match_linear_scans(self, pages):
        geom = _geometry(pages)
        for budget in range(-1, max(pages) + 2):
            for lookup, scan in SCANS.items():
                assert getattr(geom, lookup)(budget) == \
                    scan(pages, budget), (lookup, budget)

    @pytest.mark.parametrize("name", sorted(PAGE_LISTS))
    def test_shape_flags(self, name):
        pages = PAGE_LISTS[name]
        geom = _geometry(pages)
        assert geom.lwm_pages == tuple(pages)
        assert geom.unique_pages == sorted(set(pages))
        assert geom.is_sorted == (pages == sorted(pages))
        assert geom.single_level == (len(set(pages)) == 1)
        assert geom.trivial == (len(pages) == 1)

    def test_page_needs_round_up(self):
        geom = _mct([0, 1, PAGE, PAGE + 1]).geometry(PAGE)
        assert geom.lwm_pages == (0, 1, 1, 2)

    def test_lbm_pages(self):
        mct = _mct([0, PAGE])
        assert mct.geometry(PAGE).lbm_pages is None
        mct.lbm = _candidate(3 * PAGE - 1, kind="LBM")
        mct.invalidate_geometry()
        assert mct.geometry(PAGE).lbm_pages == 3

    @pytest.mark.parametrize("page_bytes", [0, -PAGE])
    def test_rejects_non_positive_page_bytes(self, page_bytes):
        with pytest.raises(MappingError):
            _mct([0]).geometry(page_bytes)

    def test_cached_per_page_size_until_invalidated(self):
        mct = _mct([0, 2 * PAGE, 4 * PAGE])
        geom = mct.geometry(PAGE)
        assert mct.geometry(PAGE) is geom
        assert mct.geometry(2 * PAGE).lwm_pages == (0, 1, 2)
        mct.lwm.append(_candidate(8 * PAGE))
        assert mct.geometry(PAGE) is geom  # stale until invalidated
        mct.invalidate_geometry()
        assert mct.geometry(PAGE).lwm_pages == (0, 2, 4, 8)


class TestModelMappingFile:
    def _file(self):
        mcts = []
        for i in range(4):
            mct = _mct([0, PAGE])
            mct.layer_index = i
            mct.est_latency_s = 0.001 * (i + 1)
            mcts.append(mct)
        return ModelMappingFile(
            model_name="toy", usage_levels=(0, PAGE),
            mcts=mcts, blocks=[(0, 2), (2, 4)],
        )

    def test_mct_for(self):
        mf = self._file()
        assert mf.mct_for(2).layer_index == 2
        with pytest.raises(MappingError):
            mf.mct_for(10)

    def test_block_of(self):
        mf = self._file()
        assert mf.block_of(0) == (0, 2)
        assert mf.block_of(3) == (2, 4)

    def test_scaled_latencies(self):
        mf = self._file()
        raw = mf.scaled_latencies(1.0)
        assert raw == (0.001, 0.002, 0.003, 0.004)
        assert mf.scaled_latencies(1.0) is raw
        assert mf.scaled_latencies(2.0) == pytest.approx(
            (0.002, 0.004, 0.006, 0.008))

    def test_layer_geometries_are_the_mcts_geometries(self):
        mf = self._file()
        geoms = mf.layer_geometries(PAGE)
        assert mf.layer_geometries(PAGE) is geoms
        assert all(g is m.geometry(PAGE) for g, m in zip(geoms, mf.mcts))

    def test_block_tables(self):
        mf = self._file()
        assert mf.block_head_flags() == (True, False, True, False)
        assert mf.block_latencies() == pytest.approx(
            (0.003, 0.003, 0.007, 0.007))

    def test_layer_outside_every_block(self):
        mf = self._file()
        mf.blocks = [(0, 2)]
        assert mf.block_of(3) is None
        assert mf.block_head_flags() == (True, False, False, False)
        assert mf.block_latencies()[2:] == (0.003, 0.004)

    def test_block_of_beyond_the_table(self):
        mf = self._file()
        mf.blocks = [(0, 2), (2, 6)]
        assert mf.block_of(5) == (2, 6)
        assert mf.block_of(6) is None
        assert mf.block_of(-1) is None

    def test_invalidate_caches_after_editing_blocks(self):
        mf = self._file()
        assert mf.block_latencies()[3] == pytest.approx(0.007)
        mf.blocks = [(0, 4)]
        mf.invalidate_caches()
        assert mf.block_head_flags() == (True, False, False, False)
        assert mf.block_latencies()[3] == pytest.approx(0.010)

    def test_total_dram_bytes_picks_fitting_candidates(self):
        mf = self._file()
        # At level 0 only the zero-cache candidates fit.
        assert mf.total_dram_bytes(0) == pytest.approx(4 * 100.0)
