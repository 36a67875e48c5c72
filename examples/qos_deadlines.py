#!/usr/bin/env python3
"""QoS study: deadline satisfaction under three scheduler generations.

Runs the paper's Figure 9 setup at a reduced scale: eight tenants with the
Table I latency targets at a chosen QoS level, under MoCA (bandwidth
partitioning), AuRORA (bandwidth + NPU co-allocation) and CaMDN (cache
scheduling on top of AuRORA's allocators), reporting SLA satisfaction,
system throughput (STP) and fairness.

Usage::

    python examples/qos_deadlines.py [--level H|M|L]
"""

from __future__ import annotations

import argparse

from repro import (
    RunConfig,
    ScenarioSpec,
    SoCConfig,
    isolated_latencies,
    run,
)
from repro.models.zoo import BENCHMARK_MODELS
from repro.sim.qos import fairness, sla_rate, system_throughput

LEVELS = {"H": 0.8, "M": 1.0, "L": 1.2}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--level", choices=sorted(LEVELS), default="M",
                        help="QoS level: H=0.8x, M=1.0x, L=1.2x targets")
    args = parser.parse_args()
    qos_scale = LEVELS[args.level]

    soc = SoCConfig()
    tenants = list(BENCHMARK_MODELS)
    print(
        f"QoS-{args.level} ({qos_scale}x Table I targets), "
        f"{len(tenants)} tenants\n"
    )
    print("Measuring single-tenant latencies for STP/fairness baselines...")
    isolated = isolated_latencies(tenants, soc)

    spec = ScenarioSpec.closed_loop(tenants, duration_s=0.15,
                                    warmup_s=0.03, qos_scale=qos_scale)
    # The QoS integration applies to the CaMDN policies only.
    config = RunConfig(qos_mode=True)
    header = f"{'policy':<14}{'SLA':>8}{'STP':>8}{'fairness':>10}"
    print()
    print(header)
    print("-" * len(header))
    for policy in ("moca", "aurora", "camdn-full"):
        result = run(spec, soc=soc, policy=policy, config=config)
        print(
            f"{policy:<14}"
            f"{sla_rate(result.metrics):>8.1%}"
            f"{system_throughput(result.metrics, isolated):>8.2f}"
            f"{fairness(result.metrics, isolated):>10.3f}"
        )

    print(
        "\nThe paper reports CaMDN improving SLA 5.9x, STP 2.5x and "
        "fairness 3.0x on average over these baselines."
    )


if __name__ == "__main__":
    main()
