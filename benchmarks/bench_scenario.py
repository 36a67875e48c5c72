"""Scenario-engine benchmark: events/sec under dynamic tenancy.

Measures the engine's throughput on the scenario axes the closed-loop
microbenchmark (``bench_engine.py``) cannot exercise: churn-heavy
tenant join/leave waves and open-loop seeded-Poisson arrivals, each
under the unmanaged baseline, CaMDN(Full), AuRORA and the CaMDN-QoS
integration (the last two ride the fused slack-weighted kernel, so
churn also exercises the engine's slack SoA add/remove path).  The
timeline machinery
(admission queue, preemptive departures, backlog dispatch) rides the
per-event hot path, so a regression here means dynamic scenarios got
slower even if the closed-loop bench stayed flat.

Every configuration is run twice and asserted byte-identical before any
number is reported (scenario runs are deterministic by construction,
seeded Poisson included).

Emits ``BENCH_scenario.json`` in the same shape as the engine bench::

    {
      "meta": {...},
      "policies": {
        "<policy>/<scenario>": {
          "kernel": {"events": N, "wall_s": t, "events_per_s": r}
        }, ...
      }
    }

Usage::

    PYTHONPATH=src python benchmarks/bench_scenario.py [--out BENCH_scenario.json]
    python benchmarks/check_regression.py scenario  # CI guard (>30% drop)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict

from repro.experiments.common import run_scenario
from repro.sim.scenario import get_scenario

#: (policy, registry scenario) grid; the 0.5 scale keeps one measured
#: run under a second per cell while preserving every churn event.
SCENARIOS = ("churn-heavy", "poisson-eight")
POLICIES = ("baseline", "camdn-full", "aurora", "camdn-qos")
SCALE = 0.5


def bench_cell(policy: str, scenario_name: str,
               repeats: int = 3) -> Dict:
    """Best-of-N scenario runs; asserts run-to-run byte-identity."""
    spec = get_scenario(scenario_name).scaled(SCALE)
    best = None
    result = None
    summaries = set()
    for _ in range(max(repeats, 2)):
        start = time.perf_counter()
        result = run_scenario(spec, policy=policy)
        wall = time.perf_counter() - start
        summaries.add(
            json.dumps(result.metric_summary(), sort_keys=True)
        )
        if best is None or wall < best:
            best = wall
    if len(summaries) != 1:
        raise AssertionError(
            f"{policy}/{scenario_name}: repeated scenario runs diverge"
        )
    return {
        "kernel": {
            "events": result.events_processed,
            "wall_s": best,
            "events_per_s": result.events_processed / best,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scenario.json",
                        help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per configuration (best is kept)")
    args = parser.parse_args(argv)

    report = {
        "meta": {
            "scale": SCALE,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "policies": {},
    }
    for scenario_name in SCENARIOS:
        for policy in POLICIES:
            name = f"{policy}/{scenario_name}"
            entry = bench_cell(policy, scenario_name,
                               repeats=args.repeats)
            report["policies"][name] = entry
            print(
                f"{name:<26} "
                f"{entry['kernel']['events_per_s']:>12,.0f} ev/s  "
                f"({entry['kernel']['events']:,} events)"
            )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
