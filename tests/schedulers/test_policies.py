"""Tests for the scheduling policies (baselines and CaMDN variants)."""

import pytest

from repro.config import SoCConfig
from repro.models.zoo import build_model
from repro.schedulers import make_scheduler
from repro.schedulers.aurora import AuRORAScheduler
from repro.schedulers.camdn_full import CaMDNFullScheduler
from repro.schedulers.camdn_hw import CaMDNHWOnlyScheduler
from repro.schedulers.moca import MoCAScheduler
from repro.schedulers.shared_baseline import SharedCacheBaseline
from repro.sim.task import TaskInstance


def _instance(key="MB.", serial=0, qos_s=float("inf")):
    return TaskInstance(
        instance_id=f"{key}@0#{serial}",
        stream_id=f"{key}@0",
        graph=build_model(key),
        arrival_time=0.0,
        qos_target_s=qos_s,
    )


def _shares(policy, insts, now):
    """The policy's shares for ``insts`` at their current layer work,
    called the way the engine's kernel calls it."""
    return policy.bandwidth_shares(
        insts,
        [inst.rem_compute_cycles for inst in insts],
        [inst.rem_dram_bytes for inst in insts],
        now,
    )


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("baseline", SharedCacheBaseline),
            ("moca", MoCAScheduler),
            ("aurora", AuRORAScheduler),
            ("camdn-hw", CaMDNHWOnlyScheduler),
            ("camdn-full", CaMDNFullScheduler),
        ],
    )
    def test_make_scheduler(self, name, cls):
        assert isinstance(make_scheduler(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("tpu-v5")


class TestBaselineTrafficModel:
    @pytest.fixture
    def policy(self):
        policy = SharedCacheBaseline()
        policy.attach(SoCConfig())
        return policy

    def test_contention_grows_traffic(self, policy):
        inst = _instance()
        policy.on_task_start(inst, 0.0)
        work_solo, _ = policy.begin_layer(inst, 0.0)
        for i in range(1, 8):
            policy.on_task_start(_instance(serial=i), 0.0)
        work_shared, _ = policy.begin_layer(inst, 0.0)
        assert work_shared.dram_bytes > work_solo.dram_bytes
        assert work_shared.hit_bytes < work_solo.hit_bytes

    def test_never_waits(self, policy):
        inst = _instance()
        policy.on_task_start(inst, 0.0)
        work, timeout = policy.begin_layer(inst, 0.0)
        assert work is not None
        assert timeout == 0.0

    def test_dram_efficiency_degrades_with_tenants(self, policy):
        assert policy.dram_efficiency(1) > policy.dram_efficiency(16)

    def test_includes_refetch_traffic(self, policy):
        """Access volume must exceed the layer's compulsory footprint for
        refetch-prone layers."""
        graph = build_model("RS.")
        segments = policy._model_segments(graph)
        total_access = sum(
            seg.bytes_ for layer in segments for seg in layer
        )
        compulsory = sum(l.total_elems for l in graph.layers)
        assert total_access > compulsory


class TestMoCAAndAuRORA:
    def test_moca_shares_follow_demand(self):
        policy = MoCAScheduler()
        policy.attach(SoCConfig())
        heavy = _instance("GN.")
        light = _instance("MB.", serial=1)
        for inst in (heavy, light):
            policy.on_task_start(inst, 0.0)
            work, _ = policy.begin_layer(inst, 0.0)
            inst.begin_work(work)
        heavy_share, light_share = _shares(policy, [heavy, light], 0.0)
        assert heavy_share > light_share

    def test_aurora_boosts_core_count_for_tight_targets(self):
        policy = AuRORAScheduler()
        policy.attach(SoCConfig())
        # GNMT at the QoS-H target (0.8 x 6.7 ms) sits within 70 % of its
        # isolated-latency estimate, so AuRORA fissions it to two cores.
        tight = _instance("GN.", qos_s=0.8 * 6.7e-3)
        assert policy.cores_for(tight, free_cores=4) == 2
        loose = _instance("PP.", qos_s=100e-3)
        assert policy.cores_for(loose, free_cores=4) == 1

    def test_aurora_single_core_when_busy(self):
        policy = AuRORAScheduler()
        policy.attach(SoCConfig())
        tight = _instance("GN.", qos_s=0.8 * 6.7e-3)
        assert policy.cores_for(tight, free_cores=1) == 1

    def test_aurora_efficiency_better_than_unmanaged(self):
        aurora = AuRORAScheduler()
        base = SharedCacheBaseline()
        aurora.attach(SoCConfig())
        base.attach(SoCConfig())
        assert aurora.dram_efficiency(16) > base.dram_efficiency(16)


class TestCaMDNPolicies:
    def _attach(self, policy):
        policy.attach(SoCConfig())
        return policy

    def test_full_layer_protocol(self):
        policy = self._attach(CaMDNFullScheduler())
        inst = _instance("MB.")
        policy.on_task_start(inst, 0.0)
        now = 0.0
        for layer_index in range(len(inst.graph.layers)):
            inst.layer_index = layer_index
            work, timeout = policy.begin_layer(inst, now)
            assert work is not None
            policy.on_layer_end(inst, now)
            now += 1e-4
        policy.on_task_end(inst, now)
        assert policy.system.active_tasks == 0

    def test_no_transparent_lookups(self):
        policy = self._attach(CaMDNFullScheduler())
        inst = _instance("MB.")
        policy.on_task_start(inst, 0.0)
        work, _ = policy.begin_layer(inst, 0.0)
        assert work.access_bytes == 0.0

    def test_multicast_keeps_traffic_flat(self):
        policy = self._attach(CaMDNFullScheduler())
        solo = _instance("RS.")
        policy.on_task_start(solo, 0.0)
        work1, _ = policy.begin_layer(solo, 0.0)
        policy.on_task_end(solo, 0.0)

        dual = _instance("RS.", serial=1)
        dual.cores = 2
        policy.on_task_start(dual, 0.0)
        work2, _ = policy.begin_layer(dual, 0.0)
        assert work2.dram_bytes <= 1.1 * work1.dram_bytes

    def test_usage_levels_keyword_removed(self):
        with pytest.raises(TypeError, match="usage_levels"):
            CaMDNFullScheduler(usage_levels=(0,))

    def test_restore_ignores_former_usage_levels_key(self):
        """A 1.12.0 snapshot's CaMDN state still carries
        ``usage_levels``; restoring it installs the rest."""
        policy = self._attach(CaMDNFullScheduler())
        state = dict(policy.snapshot_state(), usage_levels=None)
        fresh = self._attach(CaMDNFullScheduler())
        fresh.restore_state(state)
        assert fresh.system is policy.system
        assert not hasattr(fresh, "usage_levels")

    def test_hw_only_mode_flag(self):
        policy = self._attach(CaMDNHWOnlyScheduler())
        assert policy.system.mode == "hw_only"

    def test_qos_mode_uses_slack_shares(self):
        policy = self._attach(CaMDNFullScheduler(qos_mode=True))
        late = _instance("GN.", qos_s=1e-6)  # hopelessly behind
        ok = _instance("MB.", serial=1, qos_s=10.0)
        for inst in (late, ok):
            policy.on_task_start(inst, 0.0)
            work, _ = policy.begin_layer(inst, 0.0)
            inst.begin_work(work)
        late_share, ok_share = _shares(policy, [late, ok], 0.01)
        assert late_share > ok_share

    def test_stats_track_lbm(self):
        policy = self._attach(CaMDNFullScheduler())
        inst = _instance("MB.")
        policy.on_task_start(inst, 0.0)
        for layer_index in range(10):
            inst.layer_index = layer_index
            policy.begin_layer(inst, 0.0)
            policy.on_layer_end(inst, 0.0)
        assert policy.stats()["lbm_layers"] > 0
