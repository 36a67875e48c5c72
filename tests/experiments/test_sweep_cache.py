"""Tests for the persistent sweep-result cache."""

import json

import pytest

from repro.config import MiB, SoCConfig
from repro.experiments.sweep import (
    SweepCell,
    cell_cache_key,
    clear_sweep_cache,
    default_cache_dir,
    last_sweep_stats,
    run_sweep,
)

pytestmark = pytest.mark.experiment

_KEYS = ("MB.", "EF.")
_CELLS = [SweepCell(policy="baseline", model_keys=_KEYS, scale=0.1)]


class TestCacheKey:
    def test_key_is_stable(self):
        soc = SoCConfig()
        cell = SweepCell(policy="moca", model_keys=_KEYS, scale=0.25)
        assert cell_cache_key(cell, soc) == cell_cache_key(cell, soc)

    def test_key_tracks_cell_fields(self):
        soc = SoCConfig()
        a = SweepCell(policy="moca", model_keys=_KEYS, scale=0.25)
        b = SweepCell(policy="moca", model_keys=_KEYS, scale=0.5)
        c = SweepCell(policy="aurora", model_keys=_KEYS, scale=0.25)
        d = SweepCell(policy="moca", model_keys=_KEYS, scale=0.25,
                      cache_bytes=4 * MiB)
        keys = {cell_cache_key(x, soc) for x in (a, b, c, d)}
        assert len(keys) == 4

    def test_key_tracks_soc(self):
        cell = SweepCell(policy="baseline", model_keys=_KEYS)
        assert cell_cache_key(cell, SoCConfig()) != \
            cell_cache_key(cell, SoCConfig().with_cache_bytes(8 * MiB))

    def test_key_tracks_arrival_process(self):
        """Two scenario cells differing only in the arrival process must
        hash to different cache entries (regression for the scenario-era
        schema bump: arrival dynamics are part of the cell identity)."""
        from repro.sim.scenario import (
            ArrivalProcess,
            ScenarioSpec,
            StreamSpec,
        )

        soc = SoCConfig()

        def spec(arrival):
            return ScenarioSpec(
                streams=tuple(
                    StreamSpec(model=key, arrival=arrival)
                    for key in _KEYS
                ),
                duration_s=0.1,
            )

        closed = SweepCell.from_scenario(
            "camdn-full", spec(ArrivalProcess.closed_loop())
        )
        poisson = SweepCell.from_scenario(
            "camdn-full", spec(ArrivalProcess.poisson(rate_hz=100.0))
        )
        reseeded = SweepCell.from_scenario(
            "camdn-full",
            spec(ArrivalProcess.poisson(rate_hz=100.0, seed=7)),
        )
        keys = {cell_cache_key(c, soc)
                for c in (closed, poisson, reseeded)}
        assert len(keys) == 3

    def test_replay_cell_and_source_cell_hash_differently(self):
        """A replay scenario captured from a run and the scenario that
        produced it are distinct cache identities: the replay pins exact
        arrival instants while the source re-derives them, so sharing a
        cache slot would silently serve one for the other."""
        from repro.experiments.common import run_scenario
        from repro.runconfig import RunConfig
        from repro.sim.scenario import (
            ArrivalProcess,
            ScenarioSpec,
            StreamSpec,
        )

        soc = SoCConfig()
        source_spec = ScenarioSpec(
            streams=(
                StreamSpec(model="MB.",
                           arrival=ArrivalProcess.poisson(rate_hz=120.0)),
            ),
            duration_s=0.05,
        )
        result = run_scenario(source_spec, soc, "baseline",
                              config=RunConfig(capture_trace=True))
        replay_spec = result.event_trace.replay_scenario()
        source = SweepCell.from_scenario("baseline", source_spec)
        replay = SweepCell.from_scenario("baseline", replay_spec)
        assert cell_cache_key(source, soc) != cell_cache_key(replay, soc)
        # ... yet the replay reproduces the source run byte-identically.
        replayed = run_scenario(replay_spec, soc, "baseline")
        assert json.dumps(replayed.metric_summary(), sort_keys=True) == \
            json.dumps(result.metric_summary(), sort_keys=True)

    def test_closed_loop_cell_and_scenario_cell_hash_differently(self):
        """A legacy closed-loop cell and the equivalent explicit-scenario
        cell are distinct cache identities (the cell fields differ even
        though the resolved scenarios coincide)."""
        soc = SoCConfig()
        legacy = SweepCell(policy="baseline", model_keys=_KEYS, scale=0.1)
        explicit = SweepCell.from_scenario(
            "baseline", legacy.resolve_scenario()
        )
        assert legacy.resolve_scenario() == explicit.resolve_scenario()
        assert cell_cache_key(legacy, soc) != cell_cache_key(explicit, soc)


class TestPersistentCache:
    def test_warm_rerun_hits_cache_and_is_byte_identical(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        cold = run_sweep(_CELLS, max_workers=1)
        assert last_sweep_stats()["cached_cells"] == 0
        warm = run_sweep(_CELLS, max_workers=1)
        stats = last_sweep_stats()
        assert stats["cached_cells"] == 1
        assert json.dumps(cold[0].metric_summary(), sort_keys=True) == \
            json.dumps(warm[0].metric_summary(), sort_keys=True)
        # The full metrics survive the round trip, not just the summary.
        assert [r.latency_s for r in warm[0].metrics.records] == \
            [r.latency_s for r in cold[0].metrics.records]
        assert warm[0].scheduler_stats == cold[0].scheduler_stats

    def test_no_cache_flag_bypasses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        run_sweep(_CELLS, max_workers=1, use_cache=False)
        assert list(tmp_path.glob("*.json")) == []

    def test_empty_env_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "")
        assert default_cache_dir() is None
        results = run_sweep(_CELLS, max_workers=1)
        assert results[0].metrics.num_inferences > 0

    def test_corrupt_entry_recomputes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        first = run_sweep(_CELLS, max_workers=1)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{not json")
        again = run_sweep(_CELLS, max_workers=1)
        assert last_sweep_stats()["cached_cells"] == 0
        assert again[0].metric_summary() == first[0].metric_summary()

    def test_clear_sweep_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        run_sweep(_CELLS, max_workers=1)
        assert clear_sweep_cache() == 1
        assert list(tmp_path.glob("*.json")) == []
