"""Tests for mapping-file JSON serialization."""

import dataclasses
import errno
import json
import os
import re
from pathlib import Path

import pytest

from repro.config import MiB, SoCConfig
from repro.core.mapper.layer_mapper import LayerMapper
from repro.core.mct import CacheMapEntry, LoopLevel
from repro.core.serialize import (
    SCHEMA_VERSION,
    atomic_write_text,
    load_mapping_file,
    mapping_file_from_dict,
    mapping_file_to_dict,
    mapping_file_to_json,
    save_mapping_file,
    write_text_atomic,
)
from repro.errors import MappingError
from repro.models.zoo import build_model, load_benchmark_suite


@pytest.fixture(scope="module")
def mapping_file():
    return LayerMapper(SoCConfig()).map_model(build_model("MB."))


def v1_document(mapping_file) -> dict:
    """``mapping_file`` in the retired schema 1: one JSON object per
    MCT, candidate, loop level and cache-map row."""
    def candidate(c):
        return dataclasses.asdict(c) if c is not None else None

    return {
        "schema_version": 1,
        "model_name": mapping_file.model_name,
        "usage_levels": list(mapping_file.usage_levels),
        "blocks": [list(block) for block in mapping_file.blocks],
        "mcts": [
            {
                "layer_index": mct.layer_index,
                "layer_name": mct.layer_name,
                "est_latency_s": mct.est_latency_s,
                "lwm": [candidate(c) for c in mct.lwm],
                "lbm": candidate(mct.lbm),
            }
            for mct in mapping_file.mcts
        ],
    }


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


class TestSchema2:
    @pytest.mark.parametrize("cache_mb", [4, 16, 64])
    def test_table1_files_load_equal_to_the_solved_ones(self, tmp_path,
                                                        cache_mb):
        """Every Table I model: the loaded file ``==`` the solved one,
        so every float (each MCT's ``est_latency_s``, each candidate's
        ``dram_bytes``) round-trips exactly."""
        soc = SoCConfig().with_cache_bytes(cache_mb * MiB)
        for graph in load_benchmark_suite():
            solved = LayerMapper(soc)._solve_model(graph)
            loaded = load_mapping_file(
                save_mapping_file(solved, tmp_path / "m.json"))
            assert loaded == solved, graph.name
            assert [m.est_latency_s for m in loaded.mcts] == \
                [m.est_latency_s for m in solved.mcts]
            assert [c.dram_bytes for m in loaded.mcts for c in m.lwm] == \
                [c.dram_bytes for m in solved.mcts for c in m.lwm]

    def test_each_distinct_row_is_built_once(self, mapping_file):
        data = mapping_file_to_dict(mapping_file)
        restored = mapping_file_from_dict(data)
        candidates = [c for mct in restored.mcts
                      for c in (*mct.lwm, mct.lbm) if c is not None]
        loops = {id(l) for c in candidates for l in c.loop_table}
        maps = {id(e) for c in candidates for e in c.cache_map}
        assert len(loops) == len(data["loops"]) == len(
            {l for c in candidates for l in c.loop_table})
        assert len(maps) == len(data["maps"]) == len(
            {e for c in candidates for e in c.cache_map})
        assert all(type(l) is LoopLevel for c in candidates
                   for l in c.loop_table)
        assert all(type(e) is CacheMapEntry for c in candidates
                   for e in c.cache_map)

    def test_file_is_compact_json(self, mapping_file, tmp_path):
        path = save_mapping_file(mapping_file, tmp_path / "mb.json")
        text = path.read_text()
        assert text == mapping_file_to_json(mapping_file)
        assert "\n" not in text and ", " not in text and ": " not in text


def _set(path, value):
    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return mutate


def _pop(*path):
    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data.pop(last)
    return mutate


#: mcts[0] is MobileNet-v2's first convolution: a candidate row with a
#: full loop table and cache map.
_CAND = ("mcts", 0, 3, 0)

#: Structural damage to a valid schema-2 document, one case each.
MALFORMED = {
    "missing loops": _pop("loops"),
    "missing maps": _pop("maps"),
    "missing mcts": _pop("mcts"),
    "missing blocks": _pop("blocks"),
    "missing model_name": _pop("model_name"),
    "missing usage_levels": _pop("usage_levels"),
    "loop id past the table": lambda d: _set(
        _CAND + (5, 0), len(d["loops"]))(d),
    "negative loop id": _set(_CAND + (5, 0), -1),
    "map id past the table": lambda d: _set(
        _CAND + (6, 0), len(d["maps"]))(d),
    "negative map id": _set(_CAND + (6, 0), -1),
    "non-integer row id": _set(_CAND + (5, 0), "0"),
    "short loop row": _pop("loops", 0, 2),
    "long map row": lambda d: d["maps"][0].append(0),
    "short candidate row": _pop(*_CAND, 6),
    "long candidate row": lambda d: d["mcts"][0][3][0].append(0),
    "short mct row": _pop("mcts", 0, 4),
    "mct rows not a list": _set(("mcts",), 5),
    "long block row": lambda d: d["blocks"].append([0, 1, 2]),
    "unknown loop dim": _set(("loops", 0, 0), "z"),
}


class TestErrors:
    def test_v1_file_names_both_versions(self, mapping_file, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1_document(mapping_file), indent=1))
        with pytest.raises(MappingError,
                           match=rf"schema 1 \(expected {SCHEMA_VERSION}\)"):
            load_mapping_file(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_v2_file_names_the_file(self, mapping_file,
                                              tmp_path, case):
        data = mapping_file_to_dict(mapping_file)
        MALFORMED[case](data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(MappingError, match=re.escape(str(path))):
            load_mapping_file(path)

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


class TestSourceDigest:
    """The salt of every on-disk cache key covers the C batch stepper: an
    edit to it rebuilds the native module, so results computed by the
    old module must not be served."""

    def test_changed_c_file_changes_the_digest(self, tmp_path):
        from repro.core.serialize import source_tree_digest

        (tmp_path / "sim").mkdir()
        (tmp_path / "engine.py").write_text("x = 1\n")
        stepper = tmp_path / "sim" / "_batchstep.c"
        stepper.write_text("int step(void) { return 1; }\n")
        before = source_tree_digest(tmp_path)
        assert source_tree_digest(tmp_path) == before
        stepper.write_text("int step(void) { return 2; }\n")
        assert source_tree_digest(tmp_path) != before

    def test_other_files_do_not_count(self, tmp_path):
        from repro.core.serialize import source_tree_digest

        (tmp_path / "engine.py").write_text("x = 1\n")
        before = source_tree_digest(tmp_path)
        (tmp_path / "_batchstep.so").write_bytes(b"\x7fELF")
        (tmp_path / "notes.txt").write_text("scratch\n")
        assert source_tree_digest(tmp_path) == before

    def test_package_salt_is_the_package_tree_digest(self):
        from repro.core import serialize

        package_root = Path(serialize.__file__).resolve().parent.parent
        assert (package_root / "sim" / "_batchstep.c").exists()
        assert serialize.source_content_salt() == \
            serialize.source_tree_digest(package_root)


class TestAtomicWriters:
    """One durable writer, temp file + fsync + rename: it raises when
    the write fails, and the cache writer built on it swallows the
    error; neither leaves its temp file behind."""

    @pytest.fixture
    def full_disk(self, monkeypatch):
        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)

    def test_failed_write_raises_and_keeps_the_old_file(self, tmp_path,
                                                        full_disk):
        target = tmp_path / "entry.json"
        target.write_text("old")
        with pytest.raises(OSError, match="No space"):
            write_text_atomic(target, "new")
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_cache_writer_swallows_the_failure(self, tmp_path, full_disk):
        atomic_write_text(tmp_path / "entry.json", "new")
        assert list(tmp_path.iterdir()) == []
