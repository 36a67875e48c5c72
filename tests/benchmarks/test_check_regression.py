"""Unit tests for the manifest-driven benchmark regression checker."""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).parent.parent.parent
    / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location(
    "check_regression", _MODULE_PATH
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _engine_doc(rates, events=1000):
    return {
        "meta": {"streams": 8},
        "policies": {
            name: {"kernel": {"events_per_s": rate, "events": events,
                              "wall_s": events / rate}}
            for name, rate in rates.items()
        },
    }


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


@pytest.fixture()
def bench_dirs(tmp_path):
    current = tmp_path / "current"
    baseline = tmp_path / "baseline"
    current.mkdir()
    baseline.mkdir()
    return current, baseline


class TestToleranceResolution:
    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.5")
        assert check_regression.resolve_tolerance(0.1) == 0.1

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.65")
        assert check_regression.resolve_tolerance(None) == 0.65

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_TOLERANCE", raising=False)
        assert check_regression.resolve_tolerance(None) == \
            check_regression.DEFAULT_TOLERANCE

    def test_malformed_env_exits(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "half")
        with pytest.raises(SystemExit):
            check_regression.resolve_tolerance(None)


class TestCheckBench:
    def test_within_tolerance_passes(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"camdn-full": 90.0}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"camdn-full": 100.0}))
        failures = check_regression.check_bench(
            "engine", 0.30, current_dir=current, baseline_dir=baseline
        )
        assert failures == []

    def test_rate_exactly_at_floor_passes(self, bench_dirs):
        current, baseline = bench_dirs
        base = 123_456.0
        tolerance = 0.30
        floor = (1.0 - tolerance) * base
        _write(current / "BENCH_engine.json",
               _engine_doc({"camdn-full": floor}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"camdn-full": base}))
        failures = check_regression.check_bench(
            "engine", tolerance,
            current_dir=current, baseline_dir=baseline,
        )
        assert failures == []

    def test_rate_below_floor_fails(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"camdn-full": 69.9}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"camdn-full": 100.0}))
        failures = check_regression.check_bench(
            "engine", 0.30, current_dir=current, baseline_dir=baseline
        )
        assert len(failures) == 1
        assert "camdn-full" in failures[0]

    def test_deeper_tolerance_admits_same_drop(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"camdn-full": 55.0}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"camdn-full": 100.0}))
        assert check_regression.check_bench(
            "engine", 0.50, current_dir=current, baseline_dir=baseline
        ) == []
        assert check_regression.check_bench(
            "engine", 0.30, current_dir=current, baseline_dir=baseline
        ) != []

    def test_row_missing_from_current_fails(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json", _engine_doc({}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"moca": 100.0}))
        failures = check_regression.check_bench(
            "engine", 0.30, current_dir=current, baseline_dir=baseline
        )
        assert failures == ["engine/moca: missing from current run"]

    def test_event_count_change_fails_fast_row(self, bench_dirs):
        # A row that simulated different work (here: fewer events, at
        # a higher rate) fails even though its rate clears the floor.
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"synthetic-dynamic": 150.0}, events=994))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"synthetic-dynamic": 100.0}, events=1000))
        failures = check_regression.check_bench(
            "engine", 0.30, current_dir=current, baseline_dir=baseline
        )
        assert failures == [
            "engine/synthetic-dynamic: simulated 994 events, "
            "baseline 1000"
        ]

    def test_candidate_count_change_fails_mapper_row(self, bench_dirs):
        # A mapper row that built other candidates mapped other work,
        # whatever its rate.
        current, baseline = bench_dirs
        for directory, name, candidates, rate in (
            (current, "BENCH_mapper.json", 1213, 5000.0),
            (baseline, "BENCH_mapper.baseline.json", 1214, 3000.0),
        ):
            _write(directory / name, {"caches": {
                "16MiB": {"layers": 587, "candidates": candidates,
                          "layers_per_s": rate, "wall_s": 587 / rate},
            }})
        failures = check_regression.check_bench(
            "mapper", 0.30, current_dir=current, baseline_dir=baseline
        )
        assert failures == [
            "mapper/16MiB: built 1213 candidates, baseline 1214"
        ]

    def test_rows_without_event_counts_check_rate_only(self, bench_dirs):
        current, baseline = bench_dirs
        for directory, name, ops in (
            (current, "BENCH_allocator.json", 7),
            (baseline, "BENCH_allocator.baseline.json", 9),
        ):
            _write(directory / name, {"scenarios": {
                "full-2": {"ops": ops, "ops_per_s": 100.0, "wall_s": 1.0},
            }})
        assert check_regression.check_bench(
            "allocator", 0.30, current_dir=current, baseline_dir=baseline
        ) == []

    def test_extra_current_rows_are_ignored(self, bench_dirs):
        # A new policy without a committed baseline row must not fail
        # the gate (the baseline is refreshed in the same PR normally).
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"moca": 100.0, "brand-new": 1.0}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"moca": 100.0}))
        assert check_regression.check_bench(
            "engine", 0.30, current_dir=current, baseline_dir=baseline
        ) == []


class TestBadInputs:
    def test_absent_current_output_exits(self, bench_dirs):
        current, baseline = bench_dirs
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"moca": 100.0}))
        with pytest.raises(SystemExit, match="current file missing"):
            check_regression.check_bench(
                "engine", 0.30,
                current_dir=current, baseline_dir=baseline,
            )

    def test_absent_baseline_exits(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"moca": 100.0}))
        with pytest.raises(SystemExit, match="baseline file missing"):
            check_regression.check_bench(
                "engine", 0.30,
                current_dir=current, baseline_dir=baseline,
            )

    def test_malformed_baseline_json_exits(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"moca": 100.0}))
        (baseline / "BENCH_engine.baseline.json").write_text("{nope")
        with pytest.raises(SystemExit, match="malformed"):
            check_regression.check_bench(
                "engine", 0.30,
                current_dir=current, baseline_dir=baseline,
            )

    def test_missing_section_exits(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json", {"meta": {}})
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"moca": 100.0}))
        with pytest.raises(SystemExit, match="section"):
            check_regression.check_bench(
                "engine", 0.30,
                current_dir=current, baseline_dir=baseline,
            )

    def test_unknown_bench_name_exits(self, bench_dirs):
        current, baseline = bench_dirs
        with pytest.raises(SystemExit, match="unknown bench"):
            check_regression.check_bench(
                "frobnicator", 0.30,
                current_dir=current, baseline_dir=baseline,
            )

    def test_malformed_rate_entry_fails_row(self, bench_dirs):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               {"policies": {"moca": {"kernel": {}}}})
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"moca": 100.0}))
        failures = check_regression.check_bench(
            "engine", 0.30, current_dir=current, baseline_dir=baseline
        )
        assert failures == ["engine/moca: malformed rate entry"]


class TestMain:
    def test_manifest_covers_all_benches(self):
        assert set(check_regression.MANIFEST) == \
            {"engine", "scenario", "allocator", "fleet", "mapper"}
        for spec in check_regression.MANIFEST.values():
            baseline = (
                Path(check_regression.BASELINE_DIR) / spec.baseline
            )
            assert baseline.exists(), baseline

    def test_main_green_run(self, bench_dirs, capsys):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"moca": 100.0}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"moca": 100.0}))
        code = check_regression.main([
            "engine",
            "--current-dir", str(current),
            "--baseline-dir", str(baseline),
            "--tolerance", "0.3",
        ])
        assert code == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_main_regression_is_nonzero(self, bench_dirs, capsys):
        current, baseline = bench_dirs
        _write(current / "BENCH_engine.json",
               _engine_doc({"moca": 10.0}))
        _write(baseline / "BENCH_engine.baseline.json",
               _engine_doc({"moca": 100.0}))
        code = check_regression.main([
            "engine",
            "--current-dir", str(current),
            "--baseline-dir", str(baseline),
            "--tolerance", "0.3",
        ])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out
