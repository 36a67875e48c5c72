"""Tests for the systolic-array timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NPUConfig
from repro.models.layers import conv2d, dwconv2d, elementwise
from repro.npu.systolic import SystolicModel


@pytest.fixture(scope="module")
def model():
    return SystolicModel(NPUConfig())


class TestGEMMCycles:
    def test_single_tile(self, model):
        # One 32x32 weight tile, 32 activations: 32 + 62 cycles.
        assert model.gemm_cycles(32, 32, 32) == 32 + 62

    def test_passes_scale_with_nk(self, model):
        base = model.gemm_cycles(128, 32, 32)
        double_n = model.gemm_cycles(128, 64, 32)
        double_k = model.gemm_cycles(128, 32, 64)
        assert double_n == 2 * base
        assert double_k == 2 * base

    def test_m_amortizes_fill(self, model):
        short = model.gemm_cycles(32, 32, 32)
        long = model.gemm_cycles(3200, 32, 32)
        # Long streams amortize the fill/drain overhead.
        assert long / 100 < short

    @given(
        m=st.integers(1, 4096),
        n=st.integers(1, 4096),
        k=st.integers(1, 4096),
    )
    @settings(max_examples=50)
    def test_cycles_bounded_by_macs(self, m, n, k):
        model = SystolicModel(NPUConfig())
        cycles = model.gemm_cycles(m, n, k)
        # Never better than peak: macs/cycle <= 1024.
        assert m * n * k <= cycles * 1024


class TestLayerCycles:
    def test_vector_layers_use_simd(self, model):
        layer = elementwise("e", 3200)
        assert model.layer_cycles(layer) == 100

    def test_dwconv_pays_efficiency_penalty(self, model):
        dense = conv2d("c", 28, 28, 32, 32, kernel=3)
        dw = dwconv2d("d", 28, 28, 32, kernel=3)
        # Depth-wise achieves far fewer MACs/cycle than dense conv.
        def utilization(layer):
            return layer.macs / (model.layer_cycles(layer)
                                 * model.npu.macs_per_cycle)

        assert utilization(dw) < utilization(dense)

    def test_attention_groups_multiply(self, model):
        from repro.models.layers import attention_matmul

        single = attention_matmul("a", 128, 64, heads=1)
        multi = attention_matmul("a", 128, 64, heads=12)
        assert model.layer_cycles(multi) == 12 * model.layer_cycles(single)

    def test_minimum_one_cycle(self, model):
        layer = elementwise("tiny", 1)
        assert model.layer_cycles(layer) >= 1


def model_cycles(model, graph) -> int:
    """Total single-core cycles of a model's layers."""
    return sum(model.layer_cycles(layer) for layer in graph.layers)


class TestPaperScaleSanity:
    """Single-core compute times must be commensurate with QoS targets."""

    def test_resnet_under_qos(self, model, resnet):
        time_s = model_cycles(model, resnet) / 1e9
        assert time_s < resnet.qos_target_ms * 1e-3

    def test_mobilenet_fast(self, model, mobilenet):
        time_s = model_cycles(model, mobilenet) / 1e9
        assert time_s < 2.8e-3
