"""Tests for task instances: layer work, accounting and deadlines."""

import math

import pytest

from repro.errors import SimulationError
from repro.models.zoo import build_model
from repro.sim.task import InstanceState, LayerWork, TaskInstance


def _instance(qos_ms=math.inf):
    return TaskInstance(
        instance_id="MB.@0#0",
        stream_id="MB.@0",
        graph=build_model("MB."),
        arrival_time=0.0,
        qos_target_s=qos_ms * 1e-3 if qos_ms != math.inf else math.inf,
    )


class TestLayerWork:
    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            LayerWork(compute_cycles=-1, dram_bytes=0)


class TestLayerProtocol:
    def test_begin_work(self):
        inst = _instance()
        inst.begin_work(LayerWork(compute_cycles=1000, dram_bytes=2000))
        assert inst.state is InstanceState.RUNNING
        assert inst.rem_compute_cycles == 1000
        assert inst.rem_dram_bytes == 2000

    def test_account_layer_accumulates(self):
        inst = _instance()
        inst.begin_work(
            LayerWork(compute_cycles=1, dram_bytes=100, hit_bytes=20,
                      access_bytes=120)
        )
        inst.account_layer()
        assert inst.dram_bytes_total == 100
        assert inst.hit_bytes_total == 20
        assert inst.layers_executed == 1

    def test_account_without_work_raises(self):
        with pytest.raises(SimulationError):
            _instance().account_layer()


class TestLatencyAndDeadline:
    def test_latency_requires_finish(self):
        with pytest.raises(SimulationError):
            _ = _instance().latency

    def test_latency_from_arrival(self):
        inst = _instance()
        inst.finish_time = 0.005
        assert inst.latency == pytest.approx(0.005)

    def test_deadline_check(self):
        inst = _instance(qos_ms=2.8)
        inst.finish_time = 0.002
        assert inst.met_deadline()
        inst.finish_time = 0.004
        assert not inst.met_deadline()
