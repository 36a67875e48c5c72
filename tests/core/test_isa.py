"""Tests for the reference NPU instruction generator — and the
cross-validation of the closed-form refetch model against that executable
loop-nest spec."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from reference_isa import (
    NPUOp,
    Source,
    generate_layer_program,
    lbm_extra_dram_elems,
    program_stats,
)
from repro.core.mapper.dram_model import TilingChoice
from repro.core.mapper.loopnest import GEMMShape

TENSORS = ("weight", "input", "output")


def _shape(m=256, n=128, k=64) -> GEMMShape:
    return GEMMShape(m=m, n=n, k=k)


class TestProgramStructure:
    def test_exec_macs_cover_gemm(self):
        shape = _shape()
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m")
        stats = program_stats(shape, choice)
        assert stats.macs == shape.m * shape.n * shape.k

    def test_single_tile_program(self):
        shape = GEMMShape(m=32, n=32, k=32)
        choice = TilingChoice(tm=32, tn=32, tk=32, innermost="m")
        instrs = list(generate_layer_program(shape, choice))
        ops = [i.op for i in instrs]
        assert ops == [NPUOp.LOAD_TILE, NPUOp.LOAD_TILE, NPUOp.EXEC_TILE,
                       NPUOp.STORE_TILE]

    def test_streamed_tensors_use_dram(self):
        shape = _shape()
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m")
        for instr in generate_layer_program(shape, choice):
            if instr.op is NPUOp.LOAD_TILE:
                assert instr.source is Source.DRAM

    def test_pinned_weight_hits_cache_after_first_touch(self):
        shape = _shape()
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="k",
                              pinned=frozenset({"weight"}))
        seen = set()
        for instr in generate_layer_program(shape, choice):
            if instr.op is NPUOp.LOAD_TILE and instr.tensor == "weight":
                if instr.tile in seen:
                    assert instr.source is Source.CACHE
                else:
                    assert instr.source is Source.DRAM
                    seen.add(instr.tile)

    def test_lbm_input_always_cache(self):
        shape = _shape()
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m",
                              lbm_input=True)
        for instr in generate_layer_program(shape, choice):
            if instr.op is NPUOp.LOAD_TILE and instr.tensor == "input":
                assert instr.source is Source.CACHE

    def test_partial_sums_spill_and_reload(self):
        # k not innermost with multiple k tiles: outputs must spill.
        shape = GEMMShape(m=64, n=64, k=128)
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="n")
        # force an order where the output tile is left and revisited
        shape2 = GEMMShape(m=128, n=64, k=128)
        choice2 = TilingChoice(tm=64, tn=64, tk=64, innermost="m")
        ops = [i.op for i in generate_layer_program(shape2, choice2)]
        assert NPUOp.SPILL_TILE in ops
        assert NPUOp.RELOAD_TILE in ops


class TestClosedFormCrossValidation:
    """The generator derives traffic from loop iteration; the analytic
    model uses closed-form refetch factors.  They must agree."""

    #: Every (loop order, pinned-tensor set) pair.
    CASES = [
        (innermost, frozenset(pinned))
        for innermost in ("m", "n", "k")
        for r in range(4)
        for pinned in itertools.combinations(TENSORS, r)
    ]

    @pytest.mark.parametrize(
        "lbm_input,lbm_output",
        list(itertools.product((False, True), repeat=2)),
        ids=lambda flag: "lbm" if flag else "dram",
    )
    @pytest.mark.parametrize(
        "innermost,pinned", CASES,
        ids=lambda v: v if isinstance(v, str)
        else "+".join(sorted(v)) or "none",
    )
    def test_divisible_tiling_matches_exactly(self, innermost, pinned,
                                              lbm_input, lbm_output):
        """The walk and the closed form count the same DRAM elements on
        a divisible tiling with several tiles per dimension."""
        shape = GEMMShape(m=256, n=128, k=192)
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost=innermost,
                              pinned=pinned, lbm_input=lbm_input,
                              lbm_output=lbm_output)
        stats = program_stats(shape, choice)
        expected = lbm_extra_dram_elems(shape, choice)
        assert stats.dram_elems == expected

    def test_lbm_flags_match(self):
        shape = GEMMShape(m=128, n=128, k=64)
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m",
                              lbm_input=True, lbm_output=True)
        stats = program_stats(shape, choice)
        assert stats.dram_elems == lbm_extra_dram_elems(shape, choice)

    @given(
        mt=st.integers(1, 4),
        nt=st.integers(1, 4),
        kt=st.integers(1, 4),
        innermost=st.sampled_from(["m", "n", "k"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_divisible_tilings(self, mt, nt, kt, innermost):
        tile = 32
        shape = GEMMShape(m=mt * tile, n=nt * tile, k=kt * tile)
        choice = TilingChoice(tm=tile, tn=tile, tk=tile,
                              innermost=innermost)
        stats = program_stats(shape, choice)
        assert stats.dram_elems == lbm_extra_dram_elems(shape, choice)

    def test_indivisible_tiling_close(self):
        # Partial edge tiles: generator moves the true footprint, closed
        # form multiplies whole-tensor bytes; they agree within a tile.
        shape = GEMMShape(m=100, n=70, k=50)
        choice = TilingChoice(tm=32, tn=32, tk=32, innermost="m")
        stats = program_stats(shape, choice)
        expected = lbm_extra_dram_elems(shape, choice)
        assert stats.dram_elems == pytest.approx(expected, rel=0.1)


class TestGroupedGEMMs:
    def test_groups_multiply_traffic(self):
        single = GEMMShape(m=64, n=64, k=64)
        grouped = GEMMShape(m=64, n=64, k=64, groups=4)
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m")
        assert program_stats(grouped, choice).dram_elems == \
            4 * program_stats(single, choice).dram_elems

    def test_groups_multiply_macs(self):
        grouped = GEMMShape(m=64, n=64, k=64, groups=3)
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m")
        assert program_stats(grouped, choice).macs == 3 * 64 ** 3
