"""Tests for the ablation harnesses."""

import pytest

from repro.experiments.ablation import (
    AblationRow,
    format_ablation,
    format_multicast,
    multicast_traffic_savings,
    run_lbm_budget_ablation,
    run_way_partition_ablation,
)

pytestmark = [pytest.mark.slow, pytest.mark.experiment]


class TestMulticastSavings:
    def test_all_models_covered(self):
        savings = multicast_traffic_savings()
        assert len(savings) == 8

    def test_savings_positive(self):
        for row in multicast_traffic_savings(num_cores=2).values():
            assert row["saved_fraction"] > 0
            assert row["multicast_mb"] < row["replicated_mb"]

    def test_format_multicast(self):
        text = format_multicast(num_cores=4)
        assert "at 4 cores" in text
        assert len(text.splitlines()) == 2 + 8

    def test_more_cores_bigger_savings(self):
        two = multicast_traffic_savings(num_cores=2)
        four = multicast_traffic_savings(num_cores=4)
        for key in two:
            assert four[key]["saved_fraction"] > two[key]["saved_fraction"]


class TestSweeps:
    def test_way_partition_rows(self):
        rows = run_way_partition_ablation(npu_way_options=(8, 16),
                                          scale=0.1)
        assert [r.value for r in rows] == ["8/16", "16/16"]
        assert all(r.avg_latency_ms > 0 for r in rows)

    def test_lbm_budget_rows(self):
        """Budget changes block shapes: under contention, smaller blocks
        need fewer pages and can enable LBM *more* often — the sweep must
        respond to the knob either way."""
        rows = run_lbm_budget_ablation(fractions=(0.05, 0.5), scale=0.1)
        assert all(r.lbm_layers > 0 for r in rows)
        assert rows[0].lbm_layers != rows[1].lbm_layers

    def test_format(self):
        rows = [
            AblationRow(knob="x", value="a", avg_latency_ms=1.0,
                        avg_dram_mb=2.0, lbm_layers=3),
        ]
        text = format_ablation(rows, "demo")
        assert "demo" in text and "a" in text
