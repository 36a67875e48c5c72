"""Engine microbenchmark: events/sec of the kernel event loop.

A scheduler-light measurement of the event loop itself: a synthetic
8-stream workload of fixed-cost layers is driven through the engine under
two synthetic policies (a static-rate equal split and a dynamic-rate
demand split) plus the five paper policies, then two QoS rows
(``moca-qos``, ``camdn-qos``) that rerun MoCA and CaMDN(Full) with
finite deadlines so the slack-weighted/throttled fused kernels are on
the measured path.  Each timed run of a configuration happens in its
own freshly spawned interpreter, after one untimed warm-up run there,
so no row inherits one process's speed; the best time is kept.  Every
run's summary metrics are asserted byte-identical before any number is
reported (the committed reference suite pins absolute values; this
guards determinism across runs and processes).

Emits ``BENCH_engine.json``::

    {
      "meta": {...},
      "policies": {
        "<name>": {
          "kernel": {"events": N, "wall_s": t, "events_per_s": r}
        }, ...
      }
    }

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--out BENCH_engine.json]
    python benchmarks/check_regression.py engine  # CI guard (>30% drop)
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import sys
import time
from typing import Dict, Optional

from repro.config import SoCConfig
from repro.core.prepared import prepare_workload
from repro.models.graph import ModelGraph
from repro.models.layers import LayerKind, LayerSpec
from repro.numeric import left_sum
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulerPolicy
from repro.sim import native
from repro.sim.engine import MultiTenantEngine
from repro.sim.task import LayerWork
from repro.sim.scenario import ScenarioSpec
from repro.sim.workload import ScenarioWorkload

#: Streams in the synthetic workload (all NPU cores half busy).
NUM_STREAMS = 8

#: Layers per synthetic inference; work per layer alternates between
#: compute- and memory-bound so both fluid streams gate completions.
SYNTH_LAYERS = 64

#: Inferences per stream per measured run.
SYNTH_INFERENCES = 40

#: Real-policy measured window (seconds of simulated time).
REAL_DURATION_S = 0.08

REAL_KEYS = ("RS.", "MB.", "EF.", "VT.") * 2

REAL_POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")

#: QoS rows: same workload with finite deadlines (``QOS_SCALE`` ×
#: per-model targets), mapped to the scheduler that exercises each fused
#: slack kernel — MoCA's throttle (``slack_throttled``) only activates
#: with finite deadlines, and ``camdn-qos`` is the Figure 9 integration
#: (``slack_weighted``).
QOS_POLICIES = {"moca-qos": "moca", "camdn-qos": "camdn-qos"}
QOS_SCALE = 1.0


def synthetic_graph(layers: int = SYNTH_LAYERS) -> ModelGraph:
    """A uniform dense-layer model (no zoo, no mapper dependence)."""
    spec = [
        LayerSpec(
            name=f"dense{i}",
            kind=LayerKind.MATMUL,
            m=64, n=64, k=64,
            weight_elems=4096,
            input_elems=4096,
            output_elems=4096,
            macs=64 * 64 * 64,
        )
        for i in range(layers)
    ]
    return ModelGraph(name="SyntheticBench", abbr="SY.", layers=spec)


class StaticSynthetic(SchedulerPolicy):
    """Fixed per-layer work, equal static shares (installed rates).

    Per-stream work is scaled by the stream index so completions
    desynchronize — otherwise all streams finish every layer at the same
    event and the benchmark measures batch completion handling instead
    of the event loop.
    """

    name = "synthetic-static"
    dynamic_rates = False

    def __init__(self) -> None:
        super().__init__()
        self._works = {}

    def _stream_works(self, stream_id: str):
        pair = self._works.get(stream_id)
        if pair is None:
            idx = int(stream_id.rsplit("@", 1)[1])
            f = 1.0 + 0.07 * idx
            pair = (
                LayerWork(compute_cycles=40_000.0 * f,
                          dram_bytes=2_000.0 * f),
                LayerWork(compute_cycles=2_000.0 * f,
                          dram_bytes=80_000.0 * f),
            )
            self._works[stream_id] = pair
        return pair

    def begin_layer(self, instance, now):
        even, odd = self._stream_works(instance.stream_id)
        return (even if instance.layer_index % 2 == 0 else odd), 0.0


class DynamicSynthetic(StaticSynthetic):
    """Same work, demand-proportional shares recomputed every event."""

    name = "synthetic-dynamic"
    dynamic_rates = True

    def bandwidth_shares(self, insts, rem_compute, rem_dram, now):
        demands = [max(d, 1.0) for d in rem_dram]
        total = left_sum(demands)
        return [d / total for d in demands]


def _build_workload(graph: Optional[ModelGraph],
                    qos_scale: float = float("inf")) -> ScenarioWorkload:
    if graph is None:
        spec = ScenarioSpec.closed_loop(REAL_KEYS,
                                        duration_s=REAL_DURATION_S,
                                        warmup_s=0.0, qos_scale=qos_scale)
        return ScenarioWorkload(spec)
    # Build over a zoo placeholder key, then swap in the synthetic graph
    # (the workload builds each stream's graph from the zoo).
    spec = ScenarioSpec.closed_loop(["MB."] * NUM_STREAMS,
                                    inferences=SYNTH_INFERENCES)
    workload = ScenarioWorkload(spec)
    for stream_id in workload.streams:
        workload._graphs[stream_id] = graph
        workload._rt[stream_id].graph = graph
    return workload


def _run_once(policy_name: str, graph: Optional[ModelGraph],
              use_native: Optional[bool] = None):
    soc = SoCConfig()
    qos_scale = float("inf")
    if policy_name == "synthetic-static":
        scheduler = StaticSynthetic()
    elif policy_name == "synthetic-dynamic":
        scheduler = DynamicSynthetic()
    else:
        sched_name = QOS_POLICIES.get(policy_name, policy_name)
        if policy_name in QOS_POLICIES:
            qos_scale = QOS_SCALE
        prepare_workload(sched_name, REAL_KEYS, soc)
        scheduler = make_scheduler(sched_name)
    engine = MultiTenantEngine(
        soc, scheduler, _build_workload(graph, qos_scale=qos_scale),
        use_native=use_native,
    )
    return engine.run()


def _fresh_process_run(policy_name: str, use_native: Optional[bool]):
    """One measurement in a freshly spawned interpreter: an untimed
    warm-up run, then a timed one.  Returns the timed wall seconds and
    both runs' ``(events, metric summary)`` pairs."""
    graph = synthetic_graph() if policy_name.startswith("synthetic") \
        else None
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        result = _run_once(policy_name, graph, use_native=use_native)
        wall = time.perf_counter() - start
        runs.append((result.events_processed,
                     json.dumps(result.metric_summary(), sort_keys=True)))
    return wall, runs


def bench_policy(policy_name: str, repeats: int = 3,
                 use_native: Optional[bool] = None) -> Dict:
    """Best of N timed runs, each in its own spawned interpreter;
    asserts byte-identity across every run."""
    spawn = multiprocessing.get_context("spawn")
    best = None
    outcomes = set()
    for _ in range(max(repeats, 2)):
        with spawn.Pool(1) as pool:
            wall, runs = pool.apply(_fresh_process_run,
                                    (policy_name, use_native))
        outcomes.update(runs)
        if best is None or wall < best:
            best = wall
    if len(outcomes) != 1:
        raise AssertionError(
            f"{policy_name}: repeated engine runs diverge"
        )
    ((events, _),) = outcomes
    return {
        "kernel": {
            "events": events,
            "wall_s": best,
            "events_per_s": events / best,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per configuration, each in a "
                             "fresh process (best is kept)")
    parser.add_argument("--no-native", action="store_true",
                        help="run without native code: the Python "
                             "split step and completion chain (A/B "
                             "against the native batch loop)")
    args = parser.parse_args(argv)

    use_native = False if args.no_native else None
    if args.no_native:
        native_note = "disabled by --no-native"
    else:
        native.fused_step()          # build once, before the children load it
        native_note = native.native_status()
    policies = ("synthetic-static", "synthetic-dynamic") \
        + REAL_POLICIES + tuple(QOS_POLICIES)
    report = {
        "meta": {
            "streams": NUM_STREAMS,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "native": native_note,
        },
        "policies": {},
    }
    for name in policies:
        entry = bench_policy(name, repeats=args.repeats,
                             use_native=use_native)
        report["policies"][name] = entry
        print(
            f"{name:<18} kernel {entry['kernel']['events_per_s']:>12,.0f}"
            f" ev/s  ({entry['kernel']['events']:,} events)"
        )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
