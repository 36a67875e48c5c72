"""Tests for the heuristic-solver-hybrid layer mapper (Section III-C)."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_solver import dram_traffic_bytes
from repro.config import KiB, MiB, NPUConfig, SoCConfig
from repro.core.mapper.dram_model import (
    TilingChoice,
    pinned_cache_bytes,
    refetch_factors,
    scratchpad_bytes,
)
from repro.core.mapper.heuristics import HeuristicRules
from repro.core.mapper.layer_mapper import DEFAULT_USAGE_LEVELS, LayerMapper
from repro.core.mapper.loopnest import GEMMShape, tile_candidates, trip_count
from repro.core.mapper.solver import SubspaceSolver
from repro.models.layers import conv2d, matmul
from repro.models.zoo import build_model


class TestLoopnest:
    def test_trip_count_ceil(self):
        assert trip_count(100, 32) == 4

    def test_tile_candidates_aligned(self):
        tiles = tile_candidates(100, 32)
        assert 100 in tiles
        for tile in tiles:
            assert tile == 100 or tile % 32 == 0

    def test_small_dim_single_candidate(self):
        assert tile_candidates(16, 32) == [16]

    def test_gemm_shape_of_conv_uses_actual_footprints(self):
        layer = conv2d("c", 56, 56, 64, 128, kernel=3)
        shape = GEMMShape.of(layer)
        # im2col would inflate the input by 9x; the shape must carry the
        # true activation footprint.
        assert shape.input_elems == 56 * 56 * 64
        assert shape.weight_elems == layer.weight_elems

    def test_gemm_shape_of_attention_moves_operand_to_weight_stream(self):
        from repro.models.layers import attention_matmul

        layer = attention_matmul("a", 128, 64, 12)
        shape = GEMMShape.of(layer)
        assert shape.weight_elems == 12 * 64 * 128
        assert shape.input_elems + shape.weight_elems == layer.input_elems


class TestDramModel:
    def test_refetch_innermost_m_saves_weights(self):
        shape = GEMMShape(m=1024, n=512, k=512)
        choice = TilingChoice(tm=128, tn=128, tk=128, innermost="m")
        factors = refetch_factors(shape, choice)
        assert factors["weight"] == 1
        assert factors["input"] == trip_count(512, 128)

    def test_output_partial_sum_traffic(self):
        # Multiple output tiles evict each other between k iterations.
        shape = GEMMShape(m=256, n=256, k=512)
        choice = TilingChoice(tm=128, tn=256, tk=128, innermost="m")
        factors = refetch_factors(shape, choice)
        assert factors["output"] == 2 * 4 - 1

    def test_single_output_tile_never_spills(self):
        # One output tile accumulates in scratchpad across the whole
        # reduction regardless of loop order (validated by reference_isa).
        shape = GEMMShape(m=256, n=256, k=512)
        choice = TilingChoice(tm=256, tn=256, tk=128, innermost="m")
        assert refetch_factors(shape, choice)["output"] == 1

    def test_single_k_tile_writes_once(self):
        shape = GEMMShape(m=256, n=256, k=128)
        choice = TilingChoice(tm=64, tn=64, tk=128, innermost="n")
        assert refetch_factors(shape, choice)["output"] == 1

    def test_pinning_reduces_traffic_to_compulsory(self):
        shape = GEMMShape(m=1024, n=512, k=512)
        choice = TilingChoice(tm=128, tn=128, tk=128, innermost="k",
                              pinned=frozenset({"input"}))
        streaming = TilingChoice(tm=128, tn=128, tk=128, innermost="k")
        assert dram_traffic_bytes(shape, choice) < \
            dram_traffic_bytes(shape, streaming)

    def test_lbm_input_is_free(self):
        shape = GEMMShape(m=256, n=256, k=256)
        lbm = TilingChoice(tm=256, tn=256, tk=256, innermost="m",
                           lbm_input=True)
        plain = TilingChoice(tm=256, tn=256, tk=256, innermost="m")
        saved = dram_traffic_bytes(shape, plain) - \
            dram_traffic_bytes(shape, lbm)
        assert saved == shape.input_elems

    def test_pinned_cache_bytes(self):
        shape = GEMMShape(m=64, n=64, k=64)
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m",
                              pinned=frozenset({"weight", "output"}))
        assert pinned_cache_bytes(shape, choice) == \
            shape.weight_elems + shape.output_elems

    def test_scratchpad_double_buffering(self):
        # Input and weight tiles twice, the output tile once.
        assert scratchpad_bytes(16, 32, 64) == \
            2 * (16 * 64 + 64 * 32) + 16 * 32
        assert scratchpad_bytes(16, 32, 64, dtype_bytes=2) == \
            2 * scratchpad_bytes(16, 32, 64)


class TestHeuristics:
    def test_tile_space_respects_scratchpad(self):
        rules = HeuristicRules(npu=NPUConfig())
        shape = GEMMShape(m=4096, n=4096, k=4096)
        for tm, tn, tk in rules.tile_space(shape):
            assert scratchpad_bytes(tm, tn, tk) <= 256 * KiB

    def test_tile_space_prunes(self):
        rules = HeuristicRules(npu=NPUConfig())
        shape = GEMMShape(m=4096, n=4096, k=4096)
        list(rules.tile_space(shape))
        stats = rules.stats
        assert stats["tile_space_kept"] < stats["tile_space_total"]

    def test_dominated_pins_dropped(self):
        rules = HeuristicRules(npu=NPUConfig())
        subspaces = rules.subspaces()
        for s in subspaces:
            if s.innermost == "m":
                assert "weight" not in s.pinned


class TestSolver:
    def test_more_cache_never_hurts(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 512, 2048, 1024))
        prev = float("inf")
        for level in DEFAULT_USAGE_LEVELS:
            solved = solver.solve(shape, level)
            assert solved.dram_bytes <= prev + 1e-9
            prev = solved.dram_bytes

    def test_solution_respects_budget(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 512, 2048, 1024))
        for level in DEFAULT_USAGE_LEVELS:
            assert solver.solve(shape, level).cache_bytes <= level

    def test_zero_budget_streams_everything(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 256, 256, 256))
        solved = solver.solve(shape, 0)
        assert solved.cache_bytes == 0
        assert not solved.choice.pinned

    def test_traffic_never_below_compulsory(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 512, 512, 512))
        solved = solver.solve(shape, 4 * MiB)
        compulsory = (
            shape.input_elems + shape.weight_elems + shape.output_elems
        )
        assert solved.dram_bytes >= compulsory

    @given(
        m=st.integers(32, 2048),
        n=st.integers(32, 2048),
        k=st.integers(32, 2048),
    )
    @settings(max_examples=25, deadline=None)
    def test_solver_feasible_on_arbitrary_gemms(self, m, n, k):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape(m=m, n=n, k=k)
        solved = solver.solve(shape, 512 * KiB)
        assert solved.dram_bytes > 0
        assert solved.scratchpad_bytes <= 256 * KiB


class TestLayerMapper:
    @pytest.fixture(scope="class")
    def mapper(self):
        return LayerMapper(SoCConfig())

    @pytest.fixture(scope="class")
    def resnet_file(self, mapper):
        return mapper.map_model(build_model("RS."))

    def test_one_mct_per_layer(self, resnet_file):
        assert len(resnet_file.mcts) == len(build_model("RS.").layers)

    def test_every_mct_validates(self, resnet_file):
        for mct in resnet_file.mcts:
            mct.validate(32 * KiB)

    def test_every_layer_has_zero_fallback(self, resnet_file):
        for mct in resnet_file.mcts:
            assert mct.lwm[0].cache_bytes == 0

    def test_candidates_monotone_in_dram(self, resnet_file):
        """Larger candidates never cost more DRAM traffic."""
        for mct in resnet_file.mcts:
            drams = [c.dram_bytes for c in mct.lwm]
            assert drams == sorted(drams, reverse=True)

    def test_est_latency_positive(self, resnet_file):
        for mct in resnet_file.mcts:
            assert mct.est_latency_s > 0

    def test_blocks_cover_model(self, resnet_file):
        covered = []
        for start, end in resnet_file.blocks:
            covered.extend(range(start, end))
        assert covered == list(range(len(resnet_file.mcts)))

    def test_mapping_is_memoized(self, mapper):
        first = mapper.map_model(build_model("MB."))
        second = mapper.map_model(build_model("MB."))
        assert first is second

    def test_lbm_reduces_model_traffic(self, mapper):
        """LBM must beat the best LWM on intermediate-heavy MobileNet."""
        mf = mapper.map_model(build_model("MB."))
        lwm_total = mf.total_dram_bytes(4 * MiB)
        lbm_total = sum(
            mct.lbm.dram_bytes if mct.lbm else
            min(c.dram_bytes for c in mct.lwm)
            for mct in mf.mcts
        )
        assert lbm_total < lwm_total

    def test_mapping_stats(self, mapper):
        stats = mapper.mapping_stats(build_model("MB."))
        assert stats["layers"] == len(build_model("MB.").layers)
        assert 0.0 <= stats["traffic_reduction"] <= 1.0
