"""Combine the bench campaign outputs into one trajectory document.

The nightly workflow runs every benchmark of the regression manifest
(engine, scenario, allocator, fleet, mapper) and uploads a single
``BENCH_trajectory.json`` so the perf table in ROADMAP.md has a
longitudinal data source: each artifact is one dated point with the
commit it measured.

Besides the JSON artifact, the collector prints a ready-to-paste
markdown row for the "Perf trajectory" table in ROADMAP.md
(``--roadmap-label`` names the milestone column): refreshing the table
from a nightly artifact is copy one line, not transcribe nine numbers.
``--row-from FILE`` re-emits the row from an existing trajectory
artifact without rerunning anything.  ``--perfbench REPORT``
(repeatable) adds the end-to-end ``run_s`` and ``rerun_s`` of a saved
``perfbench/run.py`` report to the row: the workload comes from the
report's first line, the metrics from its last (JSON) line.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_scenario.py
    PYTHONPATH=src python benchmarks/bench_allocator.py
    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_mapper.py
    python benchmarks/collect_trajectory.py --out BENCH_trajectory.json
    python benchmarks/collect_trajectory.py --row-from BENCH_trajectory.json
    python3 perfbench/run.py --workload figs-fleet > figs-fleet.txt
    python benchmarks/collect_trajectory.py \
        --row-from BENCH_trajectory.json --perfbench figs-fleet.txt
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import subprocess
import sys
from pathlib import Path

from check_regression import MANIFEST


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            cwd=Path(__file__).parent,
        ).stdout.strip()
    except Exception:
        return "unknown"


#: End-to-end perfbench metrics the ROADMAP row quotes.
PERFBENCH_METRICS = ("run_s", "rerun_s")


def perfbench_notes(report: str) -> str:
    """``perfbench <workload>: run_s <v> s, rerun_s <v> s`` from the text
    of one ``perfbench/run.py`` report.

    Raises:
        ValueError: the text is not a perfbench report, or its last
            line carries no end-to-end metric (a ``--trace 1`` report
            prints per-layer metrics only).
    """
    lines = [line for line in report.splitlines() if line.strip()]
    header = lines[0].split() if lines else []
    if len(header) < 2 or header[0] != "perfbench":
        raise ValueError("not a perfbench/run.py report: first line "
                         f"{lines[0] if lines else ''!r}")
    metrics = json.loads(lines[-1]).get("metrics", {})
    parts = [
        f"{name} {metrics[name]['value']:.3f} {metrics[name]['unit']}"
        for name in PERFBENCH_METRICS if name in metrics
    ]
    if not parts:
        raise ValueError(f"perfbench {header[1]} report has no "
                         f"{'/'.join(PERFBENCH_METRICS)}")
    return f"perfbench {header[1]}: " + ", ".join(parts)


def roadmap_row(doc: dict, label: str = "next",
                perfbench: tuple = ()) -> str:
    """One ROADMAP "Perf trajectory" markdown row from a trajectory doc.

    Columns match the committed table: milestone (label, capture date,
    short commit), tier-1 wall time (left to fill in — the bench
    campaign doesn't run the test suite), and per-row engine/scenario
    throughput notes, followed by ``perfbench`` (the
    :func:`perfbench_notes` of saved reports).
    """
    meta = doc.get("meta", {})
    date = str(meta.get("captured_utc", ""))[:10]
    commit = str(meta.get("commit", "unknown"))[:9]
    parts = []
    for bench in ("engine", "scenario"):
        policies = doc.get("benches", {}).get(bench, {}) \
            .get("policies", {})
        rows = ", ".join(
            f"{name} {policies[name]['kernel']['events_per_s'] / 1e3:.0f}k"
            for name in sorted(policies)
        )
        if rows:
            parts.append(f"{bench}: {rows} ev/s")
    if not parts:
        parts.append("no bench outputs in doc")
    notes = "; ".join(parts + list(perfbench))
    milestone = f"{label} ({date}, {commit})" if date else \
        f"{label} ({commit})"
    return f"| {milestone} | (tier-1 wall: fill in) | {notes} |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_trajectory.json")
    parser.add_argument(
        "--current-dir", default=".",
        help="directory holding the fresh BENCH_*.json outputs",
    )
    parser.add_argument(
        "--roadmap-label", default="next",
        help="milestone label for the printed ROADMAP table row",
    )
    parser.add_argument(
        "--row-from", metavar="FILE", default=None,
        help="print the ROADMAP row for an existing trajectory "
             "artifact and exit (no fresh outputs needed)",
    )
    parser.add_argument(
        "--perfbench", metavar="REPORT", action="append", default=[],
        help="a saved perfbench/run.py report whose run_s and rerun_s "
             "join the ROADMAP row (repeatable)",
    )
    args = parser.parse_args(argv)
    perfbench = tuple(perfbench_notes(Path(path).read_text())
                      for path in args.perfbench)

    if args.row_from is not None:
        doc = json.loads(Path(args.row_from).read_text())
        print(roadmap_row(doc, label=args.roadmap_label,
                          perfbench=perfbench))
        return 0

    current_dir = Path(args.current_dir)
    doc = {
        "meta": {
            "captured_utc": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "commit": _git_head(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "benches": {},
    }
    missing = []
    for name, spec in MANIFEST.items():
        path = current_dir / spec.current
        if not path.exists():
            missing.append(f"{name}: {path}")
            continue
        doc["benches"][name] = json.loads(path.read_text())
    if missing:
        print("missing bench outputs:", file=sys.stderr)
        for entry in missing:
            print(f"  - {entry}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"wrote {args.out} ({len(doc['benches'])} benches)")
    print("ROADMAP perf-table row:")
    print(roadmap_row(doc, label=args.roadmap_label, perfbench=perfbench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
