"""Cold-mapping benchmark: layers mapped per second with no memo warm.

Every new SoC or cache size pays the offline mapping phase of Section
III-C before its first result: the loop-nest solver, LBM block planning
and MCT packaging of every layer.  This bench maps the eight Table I
models at each cache size of Figure 8 (4, 8, 16, 32 and 64 MiB) from
cold: each timed run starts from ``clear_prepared_caches()``, which
empties the solver's footprint tables and the mapping-file memo, and
the on-disk mapping cache is off (``REPRO_MAPPING_CACHE_DIR=``).

Each cache size is one row: layers mapped per second (the best of
:data:`REPEATS` cold runs) and the number of mapping candidates (LWM and
LBM) the eight mapping files hold.  The count is a pure function of the
code, so a row whose count differs from the baseline fails the
regression check, as an engine row does on a different event count.

Emits ``BENCH_mapper.json``::

    {
      "meta": {...},
      "caches": {
        "16MiB": {"layers": N, "candidates": C, "wall_s": t,
                  "layers_per_s": r},
        ...
      }
    }

Usage::

    PYTHONPATH=src python benchmarks/bench_mapper.py [--out ...]
    python benchmarks/check_regression.py mapper  # CI guard
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, Sequence, Tuple

from repro import clear_prepared_caches
from repro.config import MiB, SoCConfig
from repro.core.mapper.layer_mapper import MAPPING_CACHE_DIR_ENV, LayerMapper
from repro.models.graph import ModelGraph
from repro.models.zoo import load_benchmark_suite

#: Cache sizes of Figure 8, one row each.
CACHE_MB = (4, 8, 16, 32, 64)

#: Cold runs per cache size; the fastest is kept.
REPEATS = 3


def map_suite(suite: Sequence[ModelGraph],
              cache_mb: int) -> Tuple[int, int, float]:
    """One cold mapping of ``suite``; returns (layers, candidates,
    wall_s)."""
    clear_prepared_caches()
    mapper = LayerMapper(SoCConfig().with_cache_bytes(cache_mb * MiB))
    start = time.perf_counter()
    files = [mapper.map_model(graph) for graph in suite]
    wall = time.perf_counter() - start
    layers = sum(len(mapping.mcts) for mapping in files)
    candidates = sum(len(mct.lwm) + (mct.lbm is not None)
                     for mapping in files for mct in mapping.mcts)
    return layers, candidates, wall


def bench_cache(suite: Sequence[ModelGraph],
                cache_mb: int) -> Dict[str, float]:
    best = None
    counts = set()
    for _ in range(REPEATS):
        layers, candidates, wall = map_suite(suite, cache_mb)
        counts.add((layers, candidates))
        if best is None or wall < best:
            best = wall
    if len(counts) != 1:
        raise SystemExit(f"{cache_mb} MiB: mapping differs between runs: "
                         f"{sorted(counts)}")
    (layers, candidates), = counts
    return {
        "layers": layers,
        "candidates": candidates,
        "wall_s": best,
        "layers_per_s": layers / best,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_mapper.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    os.environ[MAPPING_CACHE_DIR_ENV] = ""
    suite = load_benchmark_suite()
    report = {
        "meta": {
            "models": [graph.abbr for graph in suite],
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "caches": {},
    }
    for cache_mb in CACHE_MB:
        name = f"{cache_mb}MiB"
        entry = bench_cache(suite, cache_mb)
        report["caches"][name] = entry
        print(
            f"{name:<6} {entry['layers']:>5} layers "
            f"{entry['candidates']:>5} candidates in "
            f"{entry['wall_s']:.4f}s   {entry['layers_per_s']:>10,.0f}"
            f" layers/s"
        )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
