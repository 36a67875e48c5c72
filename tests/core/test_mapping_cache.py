"""Tests for the on-disk mapping-file cache under LayerMapper."""

import json

import pytest

from repro.config import NPUConfig, SoCConfig
from repro.core.mapper.layer_mapper import (
    LayerMapper,
    mapping_cache_dir,
)
from repro.core.serialize import (
    SCHEMA_VERSION,
    mapping_file_to_dict,
    mapping_file_to_json,
)
from repro.models.zoo import build_model


@pytest.fixture()
def mapcache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", str(tmp_path))
    # Work on a private process memo so this test controls cold/warm.
    monkeypatch.setattr(LayerMapper, "_SHARED_CACHE", {})
    return tmp_path


class TestMappingDiskCache:
    def test_solve_writes_and_reload_is_exact(self, mapcache):
        mapper = LayerMapper(SoCConfig())
        graph = build_model("MB.")
        solved = mapper.map_model(graph)
        (entry,) = mapcache.glob("*.json")
        # Cold process, warm disk: must load the identical mapping.
        LayerMapper._SHARED_CACHE.clear()
        loaded = LayerMapper(SoCConfig()).map_model(graph)
        assert loaded is not solved
        assert json.dumps(mapping_file_to_dict(loaded), sort_keys=True) \
            == json.dumps(mapping_file_to_dict(solved), sort_keys=True)
        assert entry.exists()

    def test_corrupt_entry_resolves_fresh(self, mapcache):
        mapper = LayerMapper(SoCConfig())
        graph = build_model("MB.")
        first = mapper.map_model(graph)
        (entry,) = mapcache.glob("*.json")
        entry.write_text("{broken")
        LayerMapper._SHARED_CACHE.clear()
        again = LayerMapper(SoCConfig()).map_model(graph)
        assert json.dumps(mapping_file_to_dict(again), sort_keys=True) \
            == json.dumps(mapping_file_to_dict(first), sort_keys=True)

    def test_entry_is_the_compact_writer_text(self, mapcache):
        solved = LayerMapper(SoCConfig()).map_model(build_model("MB."))
        (entry,) = mapcache.glob("*.json")
        assert entry.read_text() == mapping_file_to_json(solved)

    def test_schema_1_entry_resolves_and_is_rewritten(self, mapcache,
                                                      caplog):
        """A schema-1 entry (its version tag is all the loader reads)
        takes the corrupt-entry path: logged, unlinked, re-solved, and
        stored again in the current schema."""
        graph = build_model("MB.")
        first = LayerMapper(SoCConfig()).map_model(graph)
        (entry,) = mapcache.glob("*.json")
        entry.write_text(json.dumps({
            "schema_version": 1, "model_name": first.model_name,
            "usage_levels": list(first.usage_levels), "blocks": [],
            "mcts": [],
        }))
        LayerMapper._SHARED_CACHE.clear()
        again = LayerMapper(SoCConfig()).map_model(graph)
        assert again == first
        assert "schema 1" in caplog.text
        assert json.loads(entry.read_text())["schema_version"] == \
            SCHEMA_VERSION

    def test_empty_env_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", "")
        monkeypatch.setattr(LayerMapper, "_SHARED_CACHE", {})
        assert mapping_cache_dir() is None
        LayerMapper(SoCConfig()).map_model(build_model("MB."))
        assert list(tmp_path.glob("*.json")) == []

    def test_key_tracks_mapper_knobs(self, mapcache):
        graph = build_model("MB.")
        LayerMapper(SoCConfig()).map_model(graph)
        LayerMapper(SoCConfig(),
                    lbm_occupancy_fraction=0.5).map_model(graph)
        assert len(list(mapcache.glob("*.json"))) == 2

    def test_half_frequency_soc_gets_its_own_mapping(self, mapcache):
        """The clock sets every MCT's ``est_latency_s`` (Algorithm 1's
        timeouts and ``Tnext``), so a Table II mapping must not serve a
        half-frequency SoC, from memory or from disk."""
        graph = build_model("RS.")
        LayerMapper(SoCConfig()).map_model(graph)
        slow = SoCConfig(npu=NPUConfig(frequency_hz=0.5e9))
        mapped = LayerMapper(slow).map_model(graph)
        solved = LayerMapper(slow)._solve_model(graph)
        assert json.dumps(mapping_file_to_dict(mapped), sort_keys=True) \
            == json.dumps(mapping_file_to_dict(solved), sort_keys=True)
        assert len(list(mapcache.glob("*.json"))) == 2
