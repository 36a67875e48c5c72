"""Unit tests for the trajectory collector's ROADMAP row emitter."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).parent.parent.parent
    / "benchmarks" / "collect_trajectory.py"
)
# The collector imports its sibling check_regression the way the CLI
# does (benchmarks/ on sys.path); mirror that for the standalone load.
sys.path.insert(0, str(_MODULE_PATH.parent))
try:
    _spec = importlib.util.spec_from_file_location(
        "collect_trajectory", _MODULE_PATH
    )
    collect_trajectory = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(collect_trajectory)
finally:
    sys.path.remove(str(_MODULE_PATH.parent))


def _doc():
    return {
        "meta": {
            "captured_utc": "2026-08-07T02:00:00+00:00",
            "commit": "0123456789abcdef",
        },
        "benches": {
            "engine": {
                "policies": {
                    "camdn-full": {"kernel": {"events_per_s": 132_611.0}},
                    "aurora": {"kernel": {"events_per_s": 228_957.0}},
                },
            },
            "scenario": {
                "policies": {
                    "camdn-qos/churn-heavy": {
                        "kernel": {"events_per_s": 172_818.0}
                    },
                },
            },
        },
    }


class TestRoadmapRow:
    def test_row_shape_and_content(self):
        row = collect_trajectory.roadmap_row(_doc(), label="PR 9")
        # One table row: milestone | wall-time placeholder | notes.
        assert row.startswith("| PR 9 (2026-08-07, 012345678) |")
        assert row.count("|") == 4
        assert "(tier-1 wall: fill in)" in row
        assert "engine: aurora 229k, camdn-full 133k ev/s" in row
        assert "scenario: camdn-qos/churn-heavy 173k ev/s" in row

    def test_policies_sorted_for_stable_diffs(self):
        row = collect_trajectory.roadmap_row(_doc())
        assert row.index("aurora") < row.index("camdn-full")

    def test_empty_doc_degrades(self):
        row = collect_trajectory.roadmap_row({"meta": {}, "benches": {}})
        assert "no bench outputs in doc" in row

    def test_row_from_cli_round_trips(self, tmp_path, capsys):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text(json.dumps(_doc()))
        assert collect_trajectory.main(
            ["--row-from", str(path), "--roadmap-label", "PR 9"]
        ) == 0
        out = capsys.readouterr().out.strip()
        assert out == collect_trajectory.roadmap_row(_doc(), label="PR 9")


def _report(workload="figs-fleet", metrics=None):
    """The text of a ``perfbench/run.py`` report: header line, report
    lines, then the JSON metrics line."""
    if metrics is None:
        metrics = {
            "setup_s": {"value": 0.1712, "unit": "s"},
            "peak_rss_mb": {"value": 49.5, "unit": "MiB"},
            "run_s": {"value": 5.39123, "unit": "s"},
            "rerun_s": {"value": 0.64049, "unit": "s"},
        }
    return "\n".join([
        f"perfbench {workload} seed=2025 seconds=56 trace=0 size=full",
        "ops: attempted 6, failed 0 (3 iterations: 3 pass-1 and 3 "
        "pass-2 ops)",
        "end-to-end metrics (untraced; ...):",
        json.dumps({"correct": True, "attempted": 6, "failed": 0,
                    "metrics": metrics}),
        "",
    ])


class TestPerfbenchReports:
    def test_notes_read_workload_and_end_to_end_times(self):
        assert collect_trajectory.perfbench_notes(_report()) == \
            "perfbench figs-fleet: run_s 5.391 s, rerun_s 0.640 s"

    def test_traced_report_has_no_end_to_end_times(self):
        traced = _report(metrics={"campaign.s": {"value": 2.8,
                                                 "unit": "s"}})
        with pytest.raises(ValueError, match="run_s"):
            collect_trajectory.perfbench_notes(traced)

    def test_other_text_is_rejected(self):
        with pytest.raises(ValueError, match="not a perfbench"):
            collect_trajectory.perfbench_notes("hello\n{}\n")

    def test_row_from_cli_adds_each_report(self, tmp_path, capsys):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text(json.dumps(_doc()))
        fleet = tmp_path / "figs-fleet.txt"
        fleet.write_text(_report())
        cold = tmp_path / "cold-start.txt"
        cold.write_text(_report("cold-start"))
        assert collect_trajectory.main(
            ["--row-from", str(path), "--roadmap-label", "nightly",
             "--perfbench", str(fleet), "--perfbench", str(cold)]
        ) == 0
        row = capsys.readouterr().out.strip()
        assert row.count("|") == 4
        assert row.endswith(
            "scenario: camdn-qos/churn-heavy 173k ev/s; "
            "perfbench figs-fleet: run_s 5.391 s, rerun_s 0.640 s; "
            "perfbench cold-start: run_s 5.391 s, rerun_s 0.640 s |")
