"""Tests for mapping-file JSON serialization."""

import json

import pytest

from repro.config import SoCConfig
from repro.core.mapper.layer_mapper import LayerMapper
from repro.core.serialize import (
    SCHEMA_VERSION,
    load_mapping_file,
    mapping_file_from_dict,
    mapping_file_to_dict,
    save_mapping_file,
)
from repro.errors import MappingError
from repro.models.zoo import build_model


@pytest.fixture(scope="module")
def mapping_file():
    return LayerMapper(SoCConfig()).map_model(build_model("MB."))


class TestRoundTrip:
    def test_dict_round_trip(self, mapping_file):
        restored = mapping_file_from_dict(
            mapping_file_to_dict(mapping_file)
        )
        assert restored.model_name == mapping_file.model_name
        assert restored.usage_levels == mapping_file.usage_levels
        assert restored.blocks == mapping_file.blocks
        assert len(restored.mcts) == len(mapping_file.mcts)

    def test_candidates_preserved(self, mapping_file):
        restored = mapping_file_from_dict(
            mapping_file_to_dict(mapping_file)
        )
        for original, loaded in zip(mapping_file.mcts, restored.mcts):
            assert original.layer_name == loaded.layer_name
            assert original.est_latency_s == loaded.est_latency_s
            assert len(original.lwm) == len(loaded.lwm)
            for a, b in zip(original.lwm, loaded.lwm):
                assert a == b
            assert (original.lbm is None) == (loaded.lbm is None)
            if original.lbm is not None:
                assert original.lbm == loaded.lbm

    def test_file_round_trip(self, mapping_file, tmp_path):
        path = save_mapping_file(mapping_file, tmp_path / "mb.json")
        restored = load_mapping_file(path)
        assert restored.mcts[0].lwm[0] == mapping_file.mcts[0].lwm[0]

    def test_restored_file_validates(self, mapping_file, tmp_path):
        path = save_mapping_file(mapping_file, tmp_path / "mb.json")
        restored = load_mapping_file(path)
        for mct in restored.mcts:
            mct.validate(SoCConfig().cache.page_bytes)

    def test_json_is_plain_data(self, mapping_file, tmp_path):
        path = save_mapping_file(mapping_file, tmp_path / "mb.json")
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["model_name"] == "MobileNet-v2"


class TestErrors:
    def test_wrong_schema_rejected(self, mapping_file):
        data = mapping_file_to_dict(mapping_file)
        data["schema_version"] = 999
        with pytest.raises(MappingError):
            mapping_file_from_dict(data)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(MappingError):
            load_mapping_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MappingError):
            load_mapping_file(tmp_path / "missing.json")


class TestSoCConfigRoundTrip:
    def test_round_trip_default(self):
        from repro.core.serialize import (
            soc_config_from_dict,
            soc_config_to_dict,
        )

        soc = SoCConfig()
        assert soc_config_from_dict(soc_config_to_dict(soc)) == soc

    def test_round_trip_through_json(self):
        from repro.config import MiB
        from repro.core.serialize import (
            soc_config_from_dict,
            soc_config_to_dict,
        )

        soc = SoCConfig().with_cache_bytes(8 * MiB)
        blob = json.dumps(soc_config_to_dict(soc), sort_keys=True)
        assert soc_config_from_dict(json.loads(blob)) == soc


class TestSimulationResultRoundTrip:
    def test_metrics_survive_exactly(self):
        from repro import ScenarioSpec, run
        from repro.core.serialize import (
            simulation_result_from_dict,
            simulation_result_to_dict,
        )

        result = run(ScenarioSpec.closed_loop(("MB.",), inferences=1,
                                              warmup_inferences=1))
        blob = json.dumps(simulation_result_to_dict(result))
        restored = simulation_result_from_dict(json.loads(blob))
        assert restored.metric_summary() == result.metric_summary()
        assert restored.summary() == result.summary()
        assert [r.latency_s for r in restored.metrics.records] == \
            [r.latency_s for r in result.metrics.records]

    def test_wrong_result_schema_rejected(self):
        from repro.core.serialize import simulation_result_from_dict

        with pytest.raises(MappingError):
            simulation_result_from_dict({"result_schema_version": 999})


class TestStableContentHash:
    def test_order_insensitive(self):
        from repro.core.serialize import stable_content_hash

        assert stable_content_hash({"a": 1, "b": [1.5, 2.5]}) == \
            stable_content_hash({"b": [1.5, 2.5], "a": 1})

    def test_value_sensitive(self):
        from repro.core.serialize import stable_content_hash

        assert stable_content_hash({"a": 1.0}) != \
            stable_content_hash({"a": 1.0000000000000002})
