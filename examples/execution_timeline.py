#!/usr/bin/env python3
"""Visualize a multi-tenant execution timeline with the trace recorder.

Attaches a :class:`~repro.sim.trace.TraceRecorder` to a run through
``RunConfig(trace=...)``, runs a short contended CaMDN workload and prints
an ASCII Gantt chart ('#' = executing a layer, '.' = waiting for cache
pages) plus per-stream busy/wait accounting — handy for spotting
allocation stalls.

Usage::

    python examples/execution_timeline.py [--policy camdn-full]
"""

from __future__ import annotations

import argparse

from repro import RunConfig, ScenarioSpec, run
from repro.sim.trace import TraceRecorder

TENANTS = ["RS.", "MB.", "EF.", "BE."] * 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--policy", default="camdn-full",
        choices=["baseline", "moca", "aurora", "camdn-hw", "camdn-full"],
    )
    args = parser.parse_args()

    trace = TraceRecorder()
    result = run(ScenarioSpec.closed_loop(TENANTS, inferences=2),
                 policy=args.policy, config=RunConfig(trace=trace))

    print(f"policy={args.policy}, {len(TENANTS)} streams, "
          f"{result.metrics.num_inferences} inferences, "
          f"{result.sim_time_s * 1e3:.2f} ms simulated\n")
    print(trace.timeline_text(width=70, max_rows=20))
    print()
    streams = sorted({s.instance_id for s in trace.spans})
    print(f"{'instance':<16}{'busy ms':>9}{'wait ms':>9}")
    for instance_id in streams[:10]:
        busy = trace.busy_time_s(instance_id) * 1e3
        wait = trace.wait_time_s(instance_id) * 1e3
        print(f"{instance_id:<16}{busy:>9.2f}{wait:>9.2f}")
    total_wait = trace.wait_time_s() * 1e3
    print(f"\ntotal page-wait time across tenants: {total_wait:.2f} ms")


if __name__ == "__main__":
    main()
