"""Tests for metrics collection and QoS metrics."""

import pytest

from repro.errors import SimulationError
from repro.models.zoo import build_model
from repro.sim.metrics import MetricsCollector
from repro.sim.qos import fairness, sla_rate, system_throughput
from repro.sim.task import TaskInstance


def _finished(stream: str, serial: int, latency: float, dram: float = 1e6,
              qos_s: float = 1.0, model: str = "MB.") -> TaskInstance:
    inst = TaskInstance(
        instance_id=f"{stream}#{serial}",
        stream_id=stream,
        graph=build_model(model),
        arrival_time=0.0,
        qos_target_s=qos_s,
    )
    inst.start_time = 0.0
    inst.finish_time = latency
    inst.dram_bytes_total = dram
    return inst


class TestCollector:
    def test_record_requires_finish(self):
        collector = MetricsCollector()
        inst = TaskInstance(
            instance_id="x#0", stream_id="x", graph=build_model("MB."),
            arrival_time=0.0,
        )
        with pytest.raises(SimulationError):
            collector.record(inst)

    def test_micro_averages(self):
        collector = MetricsCollector()
        collector.record(_finished("MB.@0", 0, latency=0.002))
        collector.record(_finished("MB.@0", 1, latency=0.004))
        assert collector.avg_latency_s() == pytest.approx(0.003)

    def test_macro_average_weights_models_equally(self):
        collector = MetricsCollector()
        # 10 fast MB inferences and 1 slow RS inference.
        for i in range(10):
            collector.record(_finished("MB.@0", i, latency=0.001))
        collector.record(
            _finished("RS.@1", 0, latency=0.101, model="RS.")
        )
        micro = collector.avg_latency_s()
        macro = collector.macro_avg_latency_s()
        assert macro == pytest.approx((0.001 + 0.101) / 2)
        assert macro > micro

    def test_metric_summary_groups_records_once(self, monkeypatch):
        from repro.sim.engine import SimulationResult

        collector = MetricsCollector()
        collector.record(_finished("MB.@0", 0, latency=0.001))
        collector.record(
            _finished("RS.@1", 0, latency=0.101, model="RS.")
        )
        calls = []
        by_model = MetricsCollector.by_model

        def counting(self):
            calls.append(self)
            return by_model(self)

        monkeypatch.setattr(MetricsCollector, "by_model", counting)
        summary = SimulationResult(scheduler_name="x", sim_time_s=1.0,
                                   metrics=collector).metric_summary()
        assert len(calls) == 1
        assert summary["avg_latency_ms"] == \
            collector.macro_avg_latency_s() * 1e3
        assert summary["avg_dram_mb"] == \
            collector.macro_avg_dram_bytes() / 1e6

    def test_by_model_sla(self):
        collector = MetricsCollector()
        collector.record(_finished("MB.@0", 0, latency=0.5, qos_s=1.0))
        collector.record(_finished("MB.@0", 1, latency=2.0, qos_s=1.0))
        summary = collector.by_model()["MB."]
        assert summary.sla_rate == pytest.approx(0.5)

    def test_empty_collector_raises(self):
        with pytest.raises(SimulationError):
            MetricsCollector().avg_latency_s()

    def test_queue_delay_and_violations(self):
        collector = MetricsCollector()
        early = _finished("MB.@0", 0, latency=0.5, qos_s=1.0)
        late = _finished("MB.@0", 1, latency=2.0, qos_s=1.0)
        early.start_time, late.start_time = 0.25, 0.75
        collector.record(early)
        collector.record(late)
        assert collector.avg_queue_delay_s() == pytest.approx(0.5)
        assert collector.qos_violation_count() == 1

    def test_macro_averages_pair(self):
        collector = MetricsCollector()
        collector.record(_finished("MB.@0", 0, latency=0.001, dram=1e6))
        collector.record(_finished("MB.@0", 1, latency=0.003, dram=3e6))
        collector.record(
            _finished("RS.@1", 0, latency=0.010, dram=8e6, model="RS.")
        )
        latency, dram = collector.macro_averages()
        assert latency == pytest.approx((0.002 + 0.010) / 2)
        assert dram == pytest.approx((2e6 + 8e6) / 2)
        assert (latency, dram) == (collector.macro_avg_latency_s(),
                                   collector.macro_avg_dram_bytes())

    def test_hit_rate_zero_without_accesses(self):
        collector = MetricsCollector()
        collector.record(_finished("MB.@0", 0, latency=0.001))
        assert collector.overall_hit_rate() == 0.0


class TestQoSMetrics:
    def _collector(self):
        collector = MetricsCollector()
        collector.record(_finished("MB.@0", 0, latency=0.002, qos_s=0.003))
        collector.record(
            _finished("RS.@1", 0, latency=0.010, qos_s=0.005, model="RS.")
        )
        return collector

    def test_sla_rate(self):
        assert sla_rate(self._collector()) == pytest.approx(0.5)

    def test_stp_weighted_speedup(self):
        isolated = {"MB.": 0.002, "RS.": 0.005}
        stp = system_throughput(self._collector(), isolated)
        assert stp == pytest.approx(0.002 / 0.002 + 0.005 / 0.010)

    def test_fairness_min_over_max(self):
        isolated = {"MB.": 0.002, "RS.": 0.005}
        fair = fairness(self._collector(), isolated)
        assert fair == pytest.approx(0.5 / 1.0)

    def test_perfect_fairness_is_one(self):
        collector = MetricsCollector()
        collector.record(_finished("MB.@0", 0, latency=0.004))
        collector.record(_finished("MB.@1", 0, latency=0.004))
        assert fairness(collector, {"MB.": 0.002}) == pytest.approx(1.0)

    def test_missing_isolated_latency_raises(self):
        with pytest.raises(SimulationError):
            system_throughput(self._collector(), {"MB.": 0.002})
