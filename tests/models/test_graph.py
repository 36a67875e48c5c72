"""Tests for model graphs, skip edges and layer-block segmentation."""

import pytest
from hypothesis import given, strategies as st

from repro.config import KiB, MiB
from repro.errors import ModelGraphError
from repro.models.graph import (
    LayerBlock,
    ModelGraph,
    SkipEdge,
    segment_into_blocks,
)
from repro.models.layers import elementwise, matmul
from repro.models.zoo import BENCHMARK_MODELS, build_model


def _chain(n_layers: int, elems: int = 1000) -> ModelGraph:
    layers = [
        matmul(f"l{i}", elems, 8, 8) for i in range(n_layers)
    ]
    return ModelGraph(name="chain", abbr="CH.", layers=tuple(layers))


class TestModelGraph:
    def test_rejects_empty(self):
        with pytest.raises(ModelGraphError):
            ModelGraph(name="x", abbr="X.", layers=())

    def test_rejects_duplicate_layer_names(self):
        layers = (matmul("a", 4, 4, 4), matmul("a", 4, 4, 4))
        with pytest.raises(ModelGraphError):
            ModelGraph(name="x", abbr="X.", layers=layers)

    def test_rejects_backward_skip(self):
        with pytest.raises(ModelGraphError):
            SkipEdge(producer=5, consumer=3)

    def test_rejects_out_of_range_skip(self):
        layers = (matmul("a", 4, 4, 4), matmul("b", 4, 4, 4))
        with pytest.raises(ModelGraphError):
            ModelGraph(name="x", abbr="X.", layers=layers,
                       skip_edges=(SkipEdge(0, 5),))

    def test_totals(self):
        graph = _chain(3, elems=10)
        assert graph.total_macs == 3 * 10 * 8 * 8
        assert graph.num_layers == 3

    def test_compulsory_traffic(self):
        graph = _chain(2, elems=10)
        expected = (
            graph.total_weight_elems
            + graph.layers[0].input_elems
            + graph.layers[-1].output_elems
        )
        assert graph.compulsory_traffic_elems() == expected

    def test_last_use_direct(self):
        graph = _chain(3)
        assert graph.last_use(0) == 1

    def test_last_use_with_skip(self):
        layers = tuple(matmul(f"l{i}", 16, 8, 8) for i in range(4))
        graph = ModelGraph(
            name="x", abbr="X.", layers=layers,
            skip_edges=(SkipEdge(0, 3),),
        )
        assert graph.last_use(0) == 3
        assert graph.skip_consumers(0) == [3]


class TestBlockSegmentation:
    def test_whole_model_one_block_when_budget_large(self):
        graph = _chain(5, elems=100)
        blocks = segment_into_blocks(graph, max_intermediate_bytes=MiB)
        assert len(blocks) == 1
        assert blocks[0].start == 0
        assert blocks[0].end == 5

    def test_blocks_cover_all_layers_once(self):
        graph = _chain(10, elems=5000)
        blocks = segment_into_blocks(graph, max_intermediate_bytes=6000)
        covered = []
        for block in blocks:
            covered.extend(range(block.start, block.end))
        assert covered == list(range(10))

    def test_budget_respected_for_multi_layer_blocks(self):
        graph = _chain(10, elems=5000)
        budget = 9000
        blocks = segment_into_blocks(graph, max_intermediate_bytes=budget)
        for block in blocks:
            if block.num_layers > 1:
                assert block.intermediate_elems <= budget

    def test_rejects_zero_budget(self):
        with pytest.raises(ModelGraphError):
            segment_into_blocks(_chain(2), 0)

    def test_skip_edges_extend_live_set(self):
        # layer0's output stays live until the add at layer 3, so the block
        # peak must include it while layers 1-2 run.
        layers = (
            matmul("l0", 1000, 8, 8),
            matmul("l1", 1000, 8, 8),
            matmul("l2", 1000, 8, 8),
            elementwise("add", 1000 * 8, operands=2),
        )
        graph = ModelGraph(
            name="res", abbr="R.", layers=layers,
            skip_edges=(SkipEdge(0, 3),),
        )
        blocks = segment_into_blocks(graph, max_intermediate_bytes=10**9)
        # peak live: during layer 2 we hold l0 out (8000), l1 out (8000)
        # and l2's own output (8000).
        assert blocks[0].intermediate_elems >= 3 * 8000

    @given(n_layers=st.integers(2, 12),
           budget=st.integers(2000, 50000))
    def test_segmentation_is_partition(self, n_layers, budget):
        graph = _chain(n_layers, elems=1500)
        blocks = segment_into_blocks(graph, budget)
        assert blocks[0].start == 0
        assert blocks[-1].end == n_layers
        for prev, cur in zip(blocks, blocks[1:]):
            assert prev.end == cur.start


def reference_segment_into_blocks(graph, max_intermediate_bytes,
                                  dtype_bytes=1):
    """Block segmentation as of version 1.7.0, verbatim: the equivalence
    oracle for :func:`segment_into_blocks`, which computes each layer's
    last use once per graph instead of once per layer pair, and each
    block's peak in one pass instead of once per layer."""
    blocks = []
    start = 0
    n = len(graph.layers)
    for i in range(n):
        peak = _reference_block_peak(graph, start, i + 1, dtype_bytes)
        block_len = i - start + 1
        if peak > max_intermediate_bytes and block_len > 1:
            prev_peak = _reference_block_peak(graph, start, i, dtype_bytes)
            blocks.append(LayerBlock(start, i, prev_peak // dtype_bytes))
            start = i
    blocks.append(
        LayerBlock(start, n, _reference_block_peak(graph, start, n,
                                                   dtype_bytes)
                   // dtype_bytes)
    )
    return blocks


def _reference_block_peak(graph, start, end, dtype_bytes):
    peak = 0
    for i in range(start, end):
        live = graph.layers[i].output_elems if i < end - 1 else 0
        for j in range(start, i):
            if graph.last_use(j) >= i and graph.layers[j].output_elems:
                live += graph.layers[j].output_elems
        peak = max(peak, live * dtype_bytes)
    return peak


@st.composite
def skip_graphs(draw):
    """Chains of matmul and element-wise layers of random output sizes,
    with random forward skip edges (repeats allowed, as residual adds
    re-read one producer)."""
    n_layers = draw(st.integers(1, 14))
    layers = []
    for i in range(n_layers):
        elems = draw(st.integers(1, 4000))
        if draw(st.booleans()):
            layers.append(matmul(f"l{i}", elems, draw(st.integers(1, 4)),
                                 8))
        else:
            layers.append(elementwise(f"l{i}", elems))
    edges = []
    for _ in range(draw(st.integers(0, 6)) if n_layers > 1 else 0):
        producer = draw(st.integers(0, n_layers - 2))
        consumer = draw(st.integers(producer + 1, n_layers - 1))
        edges.append(SkipEdge(producer, consumer))
    return ModelGraph(
        name="random", abbr="RN.", layers=tuple(layers),
        skip_edges=tuple(edges),
    )


class TestSegmentationMatchesReference:
    @given(graph=skip_graphs(), budget=st.integers(1, 40000),
           dtype_bytes=st.sampled_from((1, 2)))
    def test_random_graph(self, graph, budget, dtype_bytes):
        assert segment_into_blocks(graph, budget, dtype_bytes) == \
            reference_segment_into_blocks(graph, budget, dtype_bytes)

    @pytest.mark.parametrize("key", BENCHMARK_MODELS)
    def test_zoo_model(self, key):
        # Budgets from one block per layer to one block per model.
        graph = build_model(key)
        for budget in (32 * KiB, 256 * KiB, MiB, 4 * MiB):
            assert segment_into_blocks(graph, budget) == \
                reference_segment_into_blocks(graph, budget), budget
        assert segment_into_blocks(graph, 256 * KiB, dtype_bytes=2) == \
            reference_segment_into_blocks(graph, 256 * KiB, dtype_bytes=2)


class TestBenchmarkGraphs:
    def test_all_models_build(self, suite):
        assert len(suite) == 8

    def test_abbreviations_match_table1(self, suite):
        assert [g.abbr for g in suite] == [
            "RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP.",
        ]

    def test_qos_targets_match_table1(self, suite):
        targets = {g.abbr: g.qos_target_ms for g in suite}
        assert targets == {
            "RS.": 6.7, "MB.": 2.8, "EF.": 2.8, "VT.": 40.0,
            "BE.": 40.0, "GN.": 6.7, "WV.": 16.7, "PP.": 100.0,
        }

    def test_resnet50_parameter_count(self, resnet):
        # ~25.5 M parameters is the published ResNet50 size.
        assert resnet.total_weight_elems == pytest.approx(25.5e6, rel=0.02)

    def test_mobilenet_parameter_count(self, mobilenet):
        assert mobilenet.total_weight_elems == pytest.approx(3.5e6,
                                                             rel=0.05)

    def test_bert_parameter_count(self, bert):
        # Encoder-only parameters (no embedding table): ~85 M.
        assert bert.total_weight_elems == pytest.approx(85e6, rel=0.02)

    def test_resnet_macs(self, resnet):
        assert resnet.total_macs == pytest.approx(4.1e9, rel=0.05)

    def test_residual_models_have_skips(self, suite):
        for graph in suite:
            if graph.abbr in ("RS.", "MB.", "EF.", "VT.", "BE."):
                assert graph.skip_edges, f"{graph.abbr} lost its skips"

    def test_model_types_match_table1(self, suite):
        types = {g.abbr: g.model_type for g in suite}
        assert types["RS."] == "Conv"
        assert types["MB."] == "DwConv"
        assert types["GN."] == "LSTM"
        assert types["BE."] == "Trans"
