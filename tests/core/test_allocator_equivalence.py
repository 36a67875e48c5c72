"""Equivalence proofs for the incremental allocator core.

The PR 3 refactor rebuilt Algorithm 1 around precomputed MCT geometry,
flat SoA predictor arrays and memoized decisions.  These tests drive the
new :class:`~repro.core.allocator.DynamicCacheAllocator` and the frozen
pre-refactor transcription (:mod:`tests.core.reference_algorithm1`)
through identical traces and assert *identical* outputs: decisions
(candidate identity, page counts, timeouts, LBM flags), grant order, and
the ``Tnext``/``Pnext``/``Palloc`` arrays after every step.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KiB
from repro.core.allocator import DynamicCacheAllocator
from repro.core.mct import (
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)

from reference_algorithm1 import ReferenceAllocator

PAGE = 32 * KiB
TOTAL_PAGES = 24


def _candidate(cache_bytes, dram=100.0, kind="LWM"):
    return MappingCandidate(
        kind=kind, usage_limit_bytes=cache_bytes, cache_bytes=cache_bytes,
        dram_bytes=dram, compute_cycles=10,
    )


def _mapping_file(num_layers, lwm_page_counts, lbm_pages, blocks=None,
                  est=0.001):
    mcts = []
    for i in range(num_layers):
        mct = MappingCandidateTable(layer_index=i, layer_name=f"l{i}")
        mct.lwm = [
            _candidate(pages * PAGE, dram=1000.0 - pages)
            for pages in lwm_page_counts
        ]
        if lbm_pages:
            mct.lbm = _candidate(lbm_pages * PAGE, dram=10.0, kind="LBM")
        mct.est_latency_s = est * (1 + 0.1 * i)
        mcts.append(mct)
    return ModelMappingFile(
        model_name="toy",
        usage_levels=tuple(p * PAGE for p in lwm_page_counts),
        mcts=mcts,
        blocks=blocks if blocks is not None else [(0, num_layers)],
    )


def _decisions_equal(new, ref):
    """Decision equivalence: same candidate object, pages, timeout and
    LBM flag (timeouts are compared exactly — they must be the same
    float arithmetic)."""
    if new is None or ref is None:
        return new is None and ref is None
    return (
        new.candidate is ref.candidate
        and new.pages_needed == ref.pages_needed
        and (new.timeout_s == ref.timeout_s
             or (math.isinf(new.timeout_s) and math.isinf(ref.timeout_s)))
        and new.enables_lbm == ref.enables_lbm
    )


def _states_equal(alloc, ref, task_ids):
    for task in task_ids:
        s_new = alloc.task(task)
        s_ref = ref.task(task)
        if (s_new.palloc, s_new.pnext, s_new.lbm_block) != \
                (s_ref.palloc, s_ref.pnext, s_ref.lbm_block):
            return False
        if s_new.tnext != s_ref.tnext and not (
            math.isinf(s_new.tnext) and math.isinf(s_ref.tnext)
        ):
            return False
    return True


#: One allocator step: (task index, layer index, op code).
_ops = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(["begin", "begin", "begin", "retry", "end",
                         "finish"]),
    ),
    min_size=1,
    max_size=80,
)


class TestAlgorithm1Equivalence:
    @given(
        ops=_ops,
        lbm_pages=st.integers(0, 12),
        lwm_counts=st.lists(
            st.integers(0, 10), min_size=1, max_size=5
        ).map(lambda xs: tuple(sorted(set([0] + xs)))),
        split_blocks=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_traces_produce_identical_algorithm1_outputs(
        self, ops, lbm_pages, lwm_counts, split_blocks
    ):
        """Random multi-tenant admit/begin/retry/end/finish traces give
        byte-identical decisions, grants and predictor arrays."""
        blocks = [(0, 2), (2, 4)] if split_blocks else [(0, 4)]
        mf = _mapping_file(4, lwm_counts, lbm_pages, blocks=blocks)
        # The two allocators share the mapping file: candidate identity
        # comparisons below are therefore exact object comparisons.
        alloc = DynamicCacheAllocator(page_bytes=PAGE,
                                      total_pages=TOTAL_PAGES)
        ref = ReferenceAllocator(page_bytes=PAGE,
                                 total_pages=TOTAL_PAGES)
        registered = []
        last_decision = {}
        now = 0.0
        for task_idx, layer, op in ops:
            task = f"T{task_idx}"
            if task not in registered:
                alloc.register_task(task, mf)
                ref.register_task(task, mf)
                registered.append(task)
            state = alloc.task(task)
            if op == "begin":
                d_new = alloc.select(state, layer, now)
                d_ref = ref.select(task, layer, now)
                assert _decisions_equal(d_new, d_ref)
                last_decision[task] = (d_new, d_ref, layer)
                # Emulate the engine's grant check on both sides.
                delta = d_new.pages_needed - state.palloc
                if delta <= alloc.idle_pages():
                    alloc.commit(state, d_new, layer)
                    ref.commit(task, d_ref, layer)
            elif op == "retry":
                entry = last_decision.get(task)
                if entry is not None:
                    d_new, d_ref, d_layer = entry
                    s_new = alloc.downgrade(state, d_layer, d_new)
                    s_ref = ref.downgrade(task, d_layer, d_ref)
                    assert _decisions_equal(s_new, s_ref)
                    if s_new is not None:
                        last_decision[task] = (s_new, s_ref, d_layer)
            elif op == "end":
                alloc.end_layer(state, layer, now)
                ref.end_layer(task, layer, now)
            else:
                alloc.finish_task(task, now)
                ref.finish_task(task, now)
            assert alloc.idle_pages() == ref.idle_pages()
            for other in registered:
                assert alloc.pred_avail_pages(
                    now + 0.002, alloc.task(other)
                ) == ref.pred_avail_pages(now + 0.002, other)
            assert _states_equal(alloc, ref, registered)
            alloc.check_invariants()
            now += 0.0004


class TestSelectionRegression:
    """Hand-built MCT cases pinning the exact selection semantics the
    sorted-array refactor must reproduce (satellite: the quadratic
    ``select`` inner loop is gone, its output is not)."""

    def _setup(self, lwm_counts, lbm_pages=0, blocks=None):
        mf = _mapping_file(2, lwm_counts, lbm_pages, blocks=blocks)
        alloc = DynamicCacheAllocator(page_bytes=PAGE, total_pages=24)
        return alloc, alloc.register_task("A", mf), mf

    def test_largest_fitting_candidate_wins(self):
        alloc, a, mf = self._setup((0, 1, 2, 8))
        decision = alloc.select(a, 1, now=0.0)
        assert decision.pages_needed == 8
        assert decision.candidate is mf.mcts[1].lwm[3]

    def test_prediction_bound_limits_selection(self):
        alloc, a, mf = self._setup((0, 1, 2, 8))
        hog = alloc.register_task("B", mf)
        hog.palloc = 21
        hog.pnext = 21
        hog.tnext = math.inf
        decision = alloc.select(a, 1, now=0.0)
        # Only 3 pages predicted available: the 2-page candidate wins.
        assert decision.pages_needed == 2
        assert decision.candidate is mf.mcts[1].lwm[2]

    def test_tied_page_counts_select_first_candidate(self):
        """Candidates with equal page need: the original scan kept the
        first one (strict ``best_pages < pages`` update)."""
        mf = _mapping_file(2, (0,), 0)
        for mct in mf.mcts:
            # Two distinct candidates, both needing exactly one page.
            mct.lwm = [
                _candidate(0),
                _candidate(10, dram=500.0),
                _candidate(PAGE, dram=400.0),
            ]
            mct.invalidate_geometry()
        mf.invalidate_caches()
        alloc = DynamicCacheAllocator(page_bytes=PAGE, total_pages=24)
        a = alloc.register_task("A", mf)
        decision = alloc.select(a, 1, now=0.0)
        assert decision.pages_needed == 1
        assert decision.candidate is mf.mcts[1].lwm[1]

    def test_downgrade_ties_pick_last_smaller_candidate(self):
        """The timeout downgrade keeps the *last* candidate below the
        target."""
        mf = _mapping_file(2, (0,), 0)
        for mct in mf.mcts:
            mct.lwm = [
                _candidate(0),
                _candidate(10, dram=500.0),
                _candidate(PAGE, dram=400.0),
                _candidate(4 * PAGE, dram=300.0),
            ]
            mct.invalidate_geometry()
        mf.invalidate_caches()
        alloc = DynamicCacheAllocator(page_bytes=PAGE, total_pages=24)
        a = alloc.register_task("A", mf)
        decision = alloc.select(a, 1, now=0.0)
        assert decision.pages_needed == 4
        smaller = alloc.downgrade(a, 1, decision)
        # Both 1-page candidates are below 4; the last one wins.
        assert smaller.candidate is mf.mcts[1].lwm[2]

    def test_zero_prediction_falls_back_to_first_candidate(self):
        alloc, a, mf = self._setup((0, 2, 8))
        hog = alloc.register_task("B", mf)
        hog.palloc = 24
        hog.pnext = 24
        hog.tnext = math.inf
        decision = alloc.select(a, 1, now=0.0)
        assert decision.candidate is mf.mcts[1].lwm[0]
        assert decision.pages_needed == 0

    def test_single_candidate_layers_skip_prediction(self):
        """Single-level MCTs select without consulting co-tenants (the
        fast path must not change the outcome)."""
        mf = _mapping_file(2, (0,), 0)
        alloc = DynamicCacheAllocator(page_bytes=PAGE, total_pages=24)
        a = alloc.register_task("A", mf)
        decision = alloc.select(a, 0, now=0.0)
        assert decision.candidate is mf.mcts[0].lwm[0]
        assert decision.timeout_s == pytest.approx(
            mf.mcts[0].est_latency_s * 0.2
        )

    def test_unsorted_lwm_keeps_first_candidate_fallback(self):
        """On a (hand-built, unvalidated) unsorted LWM list whose first
        candidate exceeds the budget, the original scan keeps ``lwm[0]``
        even though smaller candidates would fit — the bisect path must
        reproduce that, not pick the largest fitting candidate."""
        mf = _mapping_file(2, (0,), 0)
        for mct in mf.mcts:
            mct.lwm = [
                _candidate(5 * PAGE, dram=500.0),
                _candidate(3 * PAGE, dram=400.0),
            ]
            mct.invalidate_geometry()
        mf.invalidate_caches()
        alloc = DynamicCacheAllocator(page_bytes=PAGE, total_pages=24)
        ref = ReferenceAllocator(page_bytes=PAGE, total_pages=24)
        a = alloc.register_task("A", mf)
        ref.register_task("A", mf)
        # Constrain the prediction to 4 pages via a hogging co-tenant.
        for allocator in (alloc, ref):
            hog = allocator.register_task("B", mf)
            hog.palloc = 20
            hog.pnext = 20
            hog.tnext = math.inf
        d_new = alloc.select(a, 1, now=0.0)
        d_ref = ref.select("A", 1, now=0.0)
        assert _decisions_equal(d_new, d_ref)
        assert d_new.candidate is mf.mcts[1].lwm[0]

    def test_block_head_timeout_uses_block_latency(self):
        alloc, a, mf = self._setup((0, 1), lbm_pages=4, blocks=[(0, 2)])
        decision = alloc.select(a, 0, now=0.0)
        assert decision.candidate.kind == "LBM"
        assert decision.enables_lbm
        block_est = mf.mcts[0].est_latency_s + mf.mcts[1].est_latency_s
        assert decision.timeout_s == block_est * 0.2
