"""Integration tests for the CaMDNSystem facade."""

import pytest

from repro.config import SoCConfig
from repro.core.camdn import CaMDNSystem
from repro.errors import SimulationError
from repro.models.zoo import build_model


@pytest.fixture(scope="module")
def soc():
    return SoCConfig()


@pytest.fixture
def system(soc):
    return CaMDNSystem(soc, mode="full")


class TestTaskLifecycle:
    def test_admit_produces_mapping(self, system):
        mf = system.admit_task("t0", build_model("MB."))
        assert len(mf.mcts) == len(build_model("MB.").layers)
        assert system.active_tasks == 1

    def test_retire_frees_everything(self, system):
        system.admit_task("t0", build_model("MB."))
        grant = system.begin_layer("t0", 0, now=0.0)
        assert grant.granted
        system.retire_task("t0", now=1.0)
        assert system.active_tasks == 0
        assert system.regions.free_pages == system.soc.cache.num_pages

    def test_unknown_mode_rejected(self, soc):
        with pytest.raises(SimulationError):
            CaMDNSystem(soc, mode="bogus")


class TestLayerProtocol:
    def test_full_inference_walkthrough(self, system):
        graph = build_model("MB.")
        system.admit_task("t0", graph)
        now = 0.0
        for layer_index in range(len(graph.layers)):
            grant = system.begin_layer("t0", layer_index, now)
            while not grant.granted:
                grant = system.retry_layer("t0", layer_index, grant)
            system.check_invariants()
            now += 1e-4
            system.finish_layer("t0", layer_index, now)
        system.retire_task("t0", now)

    def test_grant_resizes_region(self, system):
        system.admit_task("t0", build_model("MB."))
        grant = system.begin_layer("t0", 0, now=0.0)
        assert grant.granted
        region = system.regions.region_of("t0")
        assert region.num_pages == grant.decision.pages_needed

    def test_contended_grants_eventually_succeed(self, system):
        """With many tenants, downgrading must always terminate at the
        zero-page fallback."""
        graph = build_model("MB.")
        for i in range(16):
            system.admit_task(f"t{i}", graph)
        for i in range(16):
            grant = system.begin_layer(f"t{i}", 0, now=0.0)
            retries = 0
            while not grant.granted:
                grant = system.retry_layer(f"t{i}", 0, grant)
                retries += 1
                assert retries < 20
            system.check_invariants()

    def test_page_conservation_under_contention(self, system):
        graph = build_model("EF.")
        for i in range(8):
            system.admit_task(f"t{i}", graph)
        now = 0.0
        for layer_index in range(0, 20):
            for i in range(8):
                grant = system.begin_layer(f"t{i}", layer_index, now)
                while not grant.granted:
                    grant = system.retry_layer(f"t{i}", layer_index, grant)
                system.finish_layer(f"t{i}", layer_index, now)
            now += 1e-4
            system.check_invariants()


class TestHWOnlyMode:
    def test_static_share_respected(self, soc):
        system = CaMDNSystem(soc, mode="hw_only")
        graph = build_model("RS.")
        for i in range(4):
            system.admit_task(f"t{i}", graph)
        share = soc.cache.num_pages // 4
        for i in range(4):
            grant = system.begin_layer(f"t{i}", 0, now=0.0)
            assert grant.granted
            assert grant.decision.pages_needed <= share

    def test_hw_only_never_waits_on_first_grant(self, soc):
        system = CaMDNSystem(soc, mode="hw_only")
        graph = build_model("MB.")
        for i in range(16):
            system.admit_task(f"t{i}", graph)
        for i in range(16):
            grant = system.begin_layer(f"t{i}", 0, now=0.0)
            assert grant.granted


class TestFullVsHWOnly:
    def test_full_uses_more_cache_when_alone(self, soc):
        """A lone tenant under Full should claim at least as much cache as
        under the 1/16-style static policy with many admitted tenants."""
        full = CaMDNSystem(soc, mode="full")
        full.admit_task("solo", build_model("RS."))
        grant = full.begin_layer("solo", 2, now=0.0)
        assert grant.granted

        static = CaMDNSystem(soc, mode="hw_only")
        for i in range(16):
            static.admit_task(f"t{i}", build_model("RS."))
        static_grant = static.begin_layer("t0", 2, now=0.0)
        assert grant.decision.pages_needed >= \
            static_grant.decision.pages_needed


class TestUnknownTasks:
    """The layer protocol serves admitted tasks only: a task id that was
    never admitted, or is already retired, raises a SimulationError that
    names it."""

    def test_never_admitted_task_raises(self, system):
        with pytest.raises(SimulationError, match="ghost"):
            system.begin_layer("ghost", 0, now=0.0)
        with pytest.raises(SimulationError, match="ghost"):
            system.finish_layer("ghost", 0, now=0.0)

    def test_retired_task_raises(self, system):
        system.admit_task("t0", build_model("MB."))
        grant = system.begin_layer("t0", 0, now=0.0)
        system.finish_layer("t0", 0, now=1e-4)
        system.retire_task("t0", now=1e-4)
        with pytest.raises(SimulationError, match="t0"):
            system.begin_layer("t0", 1, now=1e-4)
        with pytest.raises(SimulationError, match="t0"):
            system.retry_layer("t0", 0, grant)
        with pytest.raises(SimulationError, match="t0"):
            system.finish_layer("t0", 1, now=2e-4)

    def test_allocator_only_task_is_not_admitted(self, system):
        """A task registered on the allocator alone has no region, so
        the system does not serve it."""
        mf = system.mapper.map_model(build_model("MB."))
        state = system.allocator.register_task("ghost-region", mf)
        with pytest.raises(SimulationError, match="ghost-region"):
            system.begin_layer("ghost-region", 0, now=0.0)
        assert state.palloc == 0
