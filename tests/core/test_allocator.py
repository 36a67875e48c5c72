"""Tests for Algorithm 1 (dynamic cache allocation)."""

import math

import pytest

from repro.config import KiB
from repro.core.allocator import (
    LOOKAHEAD_FRACTION,
    DynamicCacheAllocator,
)
from repro.core.mct import (
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)
from repro.errors import SimulationError

PAGE = 32 * KiB


def _candidate(cache_bytes, dram=100.0, kind="LWM"):
    return MappingCandidate(
        kind=kind, usage_limit_bytes=cache_bytes, cache_bytes=cache_bytes,
        dram_bytes=dram, compute_cycles=10,
    )


def _mapping_file(num_layers=4, lwm_sizes=(0, PAGE, 4 * PAGE),
                  lbm_pages=6, blocks=None, est=0.001):
    mcts = []
    for i in range(num_layers):
        mct = MappingCandidateTable(layer_index=i, layer_name=f"l{i}")
        mct.lwm = [
            _candidate(size, dram=1000.0 - size / PAGE)
            for size in lwm_sizes
        ]
        if lbm_pages:
            mct.lbm = _candidate(lbm_pages * PAGE, dram=10.0, kind="LBM")
        mct.est_latency_s = est
        mcts.append(mct)
    return ModelMappingFile(
        model_name="toy", usage_levels=tuple(lwm_sizes), mcts=mcts,
        blocks=blocks if blocks is not None else [(0, num_layers)],
    )


@pytest.fixture
def allocator():
    return DynamicCacheAllocator(page_bytes=PAGE, total_pages=32)


class TestTaskLifecycle:
    def test_register_unregister(self, allocator):
        allocator.register_task("A", _mapping_file())
        assert "A" in allocator.tasks
        allocator.unregister_task("A")
        assert "A" not in allocator.tasks

    def test_double_register_raises(self, allocator):
        allocator.register_task("A", _mapping_file())
        with pytest.raises(SimulationError):
            allocator.register_task("A", _mapping_file())

    def test_unknown_task_raises(self, allocator):
        with pytest.raises(SimulationError, match="ghost"):
            allocator.task("ghost")
        with pytest.raises(SimulationError, match="ghost"):
            allocator.finish_task("ghost", 0.0)


class TestPredAvailPages:
    def test_all_idle_initially(self, allocator):
        a = allocator.register_task("A", _mapping_file())
        assert allocator.pred_avail_pages(1.0, a) == 32

    def test_counts_cotenant_frees(self, allocator):
        a = allocator.register_task("A", _mapping_file())
        state_b = allocator.register_task("B", _mapping_file())
        state_b.palloc = 10
        state_b.pnext = 2
        state_b.tnext = 0.5
        # B is predicted to free 8 pages before t=1.0.
        assert allocator.pred_avail_pages(1.0, a) == (32 - 10) + 8

    def test_ignores_frees_beyond_horizon(self, allocator):
        a = allocator.register_task("A", _mapping_file())
        state_b = allocator.register_task("B", _mapping_file())
        state_b.palloc = 10
        state_b.pnext = 2
        state_b.tnext = 5.0
        assert allocator.pred_avail_pages(1.0, a) == 32 - 10

    def test_excludes_current_task(self, allocator):
        state = allocator.register_task("A", _mapping_file())
        state.palloc = 10
        state.pnext = 0
        state.tnext = 0.0
        # A's own pages are not "predicted frees" for itself.
        assert allocator.pred_avail_pages(1.0, state) == 32 - 10


class TestSelect:
    def test_lbm_preferred_at_block_head_when_pages_available(
            self, allocator):
        a = allocator.register_task("A", _mapping_file())
        decision = allocator.select(a, 0, now=0.0)
        assert decision.candidate.kind == "LBM"
        assert decision.enables_lbm
        assert decision.timeout_s == pytest.approx(
            4 * 0.001 * LOOKAHEAD_FRACTION
        )

    def test_enabled_lbm_sticks_with_infinite_timeout(self, allocator):
        a = allocator.register_task("A", _mapping_file())
        decision = allocator.select(a, 0, now=0.0)
        allocator.commit(a, decision, 0)
        decision2 = allocator.select(a, 1, now=0.001)
        assert decision2.candidate.kind == "LBM"
        assert math.isinf(decision2.timeout_s)

    def test_lbm_skipped_when_prediction_too_small(self, allocator):
        # LBM needs 40 pages but the pool has 32.
        mf = _mapping_file(lbm_pages=40)
        a = allocator.register_task("A", mf)
        decision = allocator.select(a, 0, now=0.0)
        assert decision.candidate.kind == "LWM"

    def test_largest_fitting_lwm_selected(self, allocator):
        mf = _mapping_file(lbm_pages=0)
        a = allocator.register_task("A", mf)
        decision = allocator.select(a, 1, now=0.0)
        # mid-block layer, no LBM: largest LWM (4 pages) fits 32.
        assert decision.pages_needed == 4

    def test_lwm_bounded_by_prediction(self, allocator):
        mf = _mapping_file(lbm_pages=0)
        a = allocator.register_task("A", mf)
        hog = allocator.register_task("B", _mapping_file(lbm_pages=0))
        hog.palloc = 30
        hog.pnext = 30
        hog.tnext = math.inf
        decision = allocator.select(a, 1, now=0.0)
        # Only 2 pages free forever -> the 1-page candidate wins.
        assert decision.pages_needed == 1


class TestDowngrade:
    def test_walks_to_smaller(self, allocator):
        mf = _mapping_file(lbm_pages=0)
        a = allocator.register_task("A", mf)
        decision = allocator.select(a, 1, now=0.0)
        smaller = allocator.downgrade(a, 1, decision)
        assert smaller.pages_needed < decision.pages_needed

    def test_zero_page_has_no_smaller(self, allocator):
        mf = _mapping_file(lwm_sizes=(0,), lbm_pages=0)
        a = allocator.register_task("A", mf)
        decision = allocator.select(a, 1, now=0.0)
        assert allocator.downgrade(a, 1, decision) is None

    def test_lbm_downgrades_to_lwm(self, allocator):
        a = allocator.register_task("A", _mapping_file())
        decision = allocator.select(a, 0, now=0.0)
        assert decision.candidate.kind == "LBM"
        downgraded = allocator.downgrade(a, 0, decision)
        assert downgraded.candidate.kind == "LWM"


class TestEndLayerPredictions:
    def test_updates_tnext_and_pnext(self, allocator):
        a = allocator.register_task("A", _mapping_file(lbm_pages=0))
        decision = allocator.select(a, 0, now=0.0)
        allocator.commit(a, decision, 0)
        allocator.end_layer(a, 0, now=0.002)
        state = allocator.task("A")
        assert state.tnext == pytest.approx(0.002 + 0.001)
        assert state.pnext <= state.palloc

    def test_last_layer_frees_everything(self, allocator):
        mf = _mapping_file(num_layers=2, lbm_pages=0)
        a = allocator.register_task("A", mf)
        decision = allocator.select(a, 1, now=0.0)
        allocator.commit(a, decision, 1)
        allocator.end_layer(a, 1, now=0.001)
        assert allocator.task("A").pnext == 0

    def test_lbm_block_expires_at_tail(self, allocator):
        mf = _mapping_file(num_layers=4, blocks=[(0, 2), (2, 4)])
        a = allocator.register_task("A", mf)
        decision = allocator.select(a, 0, now=0.0)
        allocator.commit(a, decision, 0)
        assert allocator.task("A").lbm_block == (0, 2)
        allocator.end_layer(a, 0, now=0.001)
        allocator.end_layer(a, 1, now=0.002)
        assert allocator.task("A").lbm_block is None

    def test_finish_task_resets(self, allocator):
        a = allocator.register_task("A", _mapping_file())
        decision = allocator.select(a, 0, now=0.0)
        allocator.commit(a, decision, 0)
        allocator.finish_task("A", now=1.0)
        state = allocator.task("A")
        assert state.palloc == 0
        assert state.lbm_block is None

    def test_invariant_checker(self, allocator):
        allocator.register_task("A", _mapping_file())
        allocator.task("A").palloc = 100
        with pytest.raises(SimulationError):
            allocator.check_invariants()
