"""CI guard: fail when a benchmark regressed vs. its committed baseline.

One manifest-driven checker replaces the former per-bench
``check_{engine,scenario,allocator}_regression.py`` triplet.  Each
manifest entry names the fresh output file a bench writes, the committed
baseline it is compared against, and where the throughput number lives
in the JSON; a row fails when its rate drops more than the tolerance
(default 30 %) below the baseline.  A row that records how much work it
did (the engine events a simulation row stepped, ``kernel.events``, or
the candidates a mapper row built, ``candidates``) also fails when that
count differs from the baseline's: a rate over different work compares
nothing, and a faster row that silently did less would pass the rate
check.

Absolute rates vary across runner hardware, so the committed baselines
should be refreshed when the fleet changes; tune with ``--tolerance`` or
the ``REPRO_BENCH_TOLERANCE`` environment variable (fraction, e.g.
``0.5`` to allow a 50 % drop on slow shared runners — CI sets a deeper
tolerance on pull requests than on ``main``).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py
    python benchmarks/check_regression.py engine

    # or check several benches:
    python benchmarks/check_regression.py engine scenario allocator mapper
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

BASELINE_DIR = Path(__file__).parent

DEFAULT_TOLERANCE = 0.30


class BenchSpec(NamedTuple):
    """Where one benchmark's numbers live.

    ``section`` is the top-level JSON key holding the row mapping;
    ``rate_path`` walks from a row to its throughput float; ``unit`` is
    cosmetic.  ``count_path`` walks from a row to its work count (a row
    without one checks its rate only), and ``count_format`` words a
    count in the failure message.
    """

    current: str
    baseline: str
    section: str
    rate_path: Tuple[str, ...]
    unit: str
    count_path: Tuple[str, ...] = ("kernel", "events")
    count_format: str = "simulated {} events"


MANIFEST: Dict[str, BenchSpec] = {
    "engine": BenchSpec(
        current="BENCH_engine.json",
        baseline="BENCH_engine.baseline.json",
        section="policies",
        rate_path=("kernel", "events_per_s"),
        unit="ev/s",
    ),
    "scenario": BenchSpec(
        current="BENCH_scenario.json",
        baseline="BENCH_scenario.baseline.json",
        section="policies",
        rate_path=("kernel", "events_per_s"),
        unit="ev/s",
    ),
    "allocator": BenchSpec(
        current="BENCH_allocator.json",
        baseline="BENCH_allocator.baseline.json",
        section="scenarios",
        rate_path=("ops_per_s",),
        unit="ops/s",
    ),
    "fleet": BenchSpec(
        current="BENCH_fleet.json",
        baseline="BENCH_fleet.baseline.json",
        section="fleets",
        rate_path=("kernel", "events_per_s"),
        unit="ev/s",
    ),
    "mapper": BenchSpec(
        current="BENCH_mapper.json",
        baseline="BENCH_mapper.baseline.json",
        section="caches",
        rate_path=("layers_per_s",),
        unit="layers/s",
        count_path=("candidates",),
        count_format="built {} candidates",
    ),
}


def resolve_tolerance(arg: float | None) -> float:
    """CLI flag beats the environment beats the default."""
    if arg is not None:
        return arg
    env = os.environ.get("REPRO_BENCH_TOLERANCE")
    if env is None:
        return DEFAULT_TOLERANCE
    try:
        return float(env)
    except ValueError:
        raise SystemExit(
            f"REPRO_BENCH_TOLERANCE={env!r} is not a number"
        ) from None


def _rate(entry: dict, path: Tuple[str, ...]) -> float:
    value = entry
    for key in path:
        value = value[key]
    return float(value)


def _count(entry: dict, path: Tuple[str, ...]):
    """The row's work count, or None when it records none."""
    value = entry
    for key in path:
        value = value.get(key) if isinstance(value, dict) else None
    return value


def _load(path: Path, role: str) -> dict:
    if not path.exists():
        raise SystemExit(f"{role} file missing: {path}")
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SystemExit(f"{role} file malformed: {path}: {exc}") from None


def check_bench(name: str, tolerance: float,
                current_dir: Path = Path("."),
                baseline_dir: Path = BASELINE_DIR) -> List[str]:
    """Compare one bench's fresh output to its baseline.

    Returns the list of failure descriptions (empty: within tolerance).
    A missing or malformed file, or an unknown bench name, exits with an
    error — silently passing on absent output would make the gate
    vacuous.
    """
    try:
        spec = MANIFEST[name]
    except KeyError:
        raise SystemExit(
            f"unknown bench {name!r}; known: {sorted(MANIFEST)}"
        ) from None
    current_doc = _load(current_dir / spec.current, f"{name} current")
    baseline_doc = _load(baseline_dir / spec.baseline,
                         f"{name} baseline")
    try:
        current = current_doc[spec.section]
        baseline = baseline_doc[spec.section]
    except (KeyError, TypeError):
        raise SystemExit(
            f"{name}: missing {spec.section!r} section in bench JSON"
        ) from None

    failures: List[str] = []
    width = max((len(k) for k in baseline), default=10) + 2
    for row, base_entry in sorted(baseline.items()):
        cur_entry = current.get(row)
        if cur_entry is None:
            failures.append(f"{name}/{row}: missing from current run")
            continue
        try:
            base_rate = _rate(base_entry, spec.rate_path)
            cur_rate = _rate(cur_entry, spec.rate_path)
        except (KeyError, TypeError, ValueError):
            failures.append(f"{name}/{row}: malformed rate entry")
            continue
        floor = (1.0 - tolerance) * base_rate
        base_count = _count(base_entry, spec.count_path)
        cur_count = _count(cur_entry, spec.count_path)
        count_differs = base_count is not None and cur_count != base_count
        status = "ok" if cur_rate >= floor else "REGRESSED"
        if count_differs:
            status = "COUNT DIFFERS"
        print(
            f"{row:<{width}} baseline {base_rate:>12,.0f} {spec.unit}   "
            f"current {cur_rate:>12,.0f} {spec.unit}   floor "
            f"{floor:>12,.0f}   {status}"
        )
        if cur_rate < floor:
            failures.append(
                f"{name}/{row}: {cur_rate:,.0f} {spec.unit} < floor "
                f"{floor:,.0f} (baseline {base_rate:,.0f})"
            )
        if count_differs:
            failures.append(
                f"{name}/{row}: {spec.count_format.format(cur_count)}, "
                f"baseline {base_count}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "benches", nargs="*", default=list(MANIFEST),
        help=f"benches to check (default: all of {sorted(MANIFEST)})",
    )
    parser.add_argument(
        "--current-dir", default=".",
        help="directory holding the fresh BENCH_*.json outputs",
    )
    parser.add_argument(
        "--baseline-dir", default=str(BASELINE_DIR),
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed fractional rate drop (default: "
             f"$REPRO_BENCH_TOLERANCE or {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)
    tolerance = resolve_tolerance(args.tolerance)

    failures: List[str] = []
    for name in args.benches or list(MANIFEST):
        print(f"== {name} (tolerance {tolerance:.0%}) ==")
        failures.extend(
            check_bench(name, tolerance,
                        current_dir=Path(args.current_dir),
                        baseline_dir=Path(args.baseline_dir))
        )
        print()
    if failures:
        print("benchmark regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark throughput within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
