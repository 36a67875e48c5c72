"""CaMDN allocator microbenchmark: Algorithm 1 ops/sec, engine-free.

Drives :class:`repro.core.camdn.CaMDNSystem` directly through its layer
protocol (``begin_layer`` -> ``retry_layer`` on denial ->
``finish_layer`` across every layer of every tenant, retiring and
re-admitting tasks between inferences) with no simulation engine around
it.  This is the protocol the CaMDN schedulers run for every layer the
native batch loop does not take, so the measured cost is exactly the
paper's Algorithm 1 machinery on that path: candidate selection,
predicted-availability scans, page grants, and region/CPT resizes.

One *op* is one ``begin_layer`` + ``finish_layer`` pair.  Scenarios are
2/4/8-tenant mixes of the Table I models in both system modes (``full``
and ``hw_only``).

Emits ``BENCH_allocator.json``::

    {
      "meta": {...},
      "scenarios": {
        "full-8": {"ops": N, "wall_s": t, "ops_per_s": r},
        ...
      }
    }

Usage::

    PYTHONPATH=src python benchmarks/bench_allocator.py [--out ...]
    python benchmarks/check_regression.py allocator  # CI guard
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, Tuple

from repro.config import SoCConfig
from repro.core.camdn import CaMDNSystem
from repro.models.zoo import build_model

#: Tenant mixes (model abbreviations repeat the Table I order).
TENANT_MIXES: Dict[int, Tuple[str, ...]] = {
    2: ("RS.", "MB."),
    4: ("RS.", "MB.", "EF.", "VT."),
    8: ("RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP."),
}

#: Inferences per tenant per measured run.
INFERENCES = 6

MODES = ("full", "hw_only")


def run_scenario(mode: str, num_tenants: int) -> Tuple[int, float]:
    """One measured run; returns (ops, wall_s)."""
    soc = SoCConfig()
    system = CaMDNSystem(soc, mode=mode)
    graphs = [build_model(key) for key in TENANT_MIXES[num_tenants]]
    layer_counts = [len(g.layers) for g in graphs]

    # Admit one task per tenant; mapping files come from the shared memo
    # (warmed by the caller), so the measured window is pure Algorithm 1.
    ops = 0
    start = time.perf_counter()
    for inference in range(INFERENCES):
        for t, graph in enumerate(graphs):
            system.admit_task(f"T{t}", graph)
        # Tenants advance round-robin one layer at a time, mimicking the
        # interleaving the engine produces, including retries after
        # ungranted layers (the timeout/downgrade path).
        cursor = [0] * len(graphs)
        now = inference * 1.0
        live = len(graphs)
        while live:
            for t, graph in enumerate(graphs):
                layer = cursor[t]
                if layer >= layer_counts[t]:
                    continue
                task_id = f"T{t}"
                grant = system.begin_layer(task_id, layer, now)
                ops += 1
                while not grant.granted:
                    grant = system.retry_layer(task_id, layer, grant)
                system.finish_layer(task_id, layer, now)
                now += 1e-5
                cursor[t] += 1
                if cursor[t] >= layer_counts[t]:
                    live -= 1
        for t in range(len(graphs)):
            system.retire_task(f"T{t}", now)
    wall = time.perf_counter() - start
    return ops, wall


def bench_scenario(mode: str, num_tenants: int,
                   repeats: int) -> Dict[str, float]:
    run_scenario(mode, num_tenants)  # warm mapping memo + geometry
    best = None
    ops = 0
    for _ in range(repeats):
        ops, wall = run_scenario(mode, num_tenants)
        if best is None or wall < best:
            best = wall
    return {
        "ops": ops,
        "wall_s": best,
        "ops_per_s": ops / best,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_allocator.json",
                        help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per scenario (best is kept)")
    args = parser.parse_args(argv)

    report = {
        "meta": {
            "inferences": INFERENCES,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scenarios": {},
    }
    for mode in MODES:
        for tenants in sorted(TENANT_MIXES):
            name = f"{mode}-{tenants}"
            entry = bench_scenario(mode, tenants, args.repeats)
            report["scenarios"][name] = entry
            print(
                f"{name:<10} {entry['ops']:>7} ops in "
                f"{entry['wall_s']:.4f}s   {entry['ops_per_s']:>12,.0f}"
                f" ops/s"
            )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
