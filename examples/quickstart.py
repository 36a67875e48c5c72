#!/usr/bin/env python3
"""Quickstart: a contended SoC, CaMDN versus AuRORA.

Keeps all 16 NPUs of the paper's Table II SoC busy (ResNet50,
MobileNet-v2 and BERT-base streams) under the AuRORA baseline and under
the full CaMDN architecture-scheduling co-design, then prints per-model
latency and DRAM traffic side by side.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ScenarioSpec, run

MODELS = ["RS.", "MB.", "BE."]

#: 15 streams (5 of each model) keep nearly every NPU busy, creating the
#: shared-cache contention CaMDN targets.
TENANTS = MODELS * 5


def main() -> None:
    print(f"Co-located tenants: {len(TENANTS)} streams over "
          f"{', '.join(MODELS)}")
    print("Simulating 0.2 s of steady-state execution per policy...\n")

    spec = ScenarioSpec.closed_loop(TENANTS, duration_s=0.2, warmup_s=0.04)
    results = {
        policy: run(spec, policy=policy)
        for policy in ("aurora", "camdn-full")
    }

    header = (
        f"{'model':<8}{'AuRORA ms':>12}{'CaMDN ms':>12}{'speedup':>9}"
        f"{'AuRORA MB':>12}{'CaMDN MB':>11}"
    )
    print(header)
    print("-" * len(header))
    aurora = results["aurora"].metrics.by_model()
    camdn = results["camdn-full"].metrics.by_model()
    for model in MODELS:
        a, c = aurora[model], camdn[model]
        print(
            f"{model:<8}{a.avg_latency_ms:>12.2f}{c.avg_latency_ms:>12.2f}"
            f"{a.avg_latency_s / c.avg_latency_s:>9.2f}"
            f"{a.avg_dram_mb:>12.1f}{c.avg_dram_mb:>11.1f}"
        )

    a_sum = results["aurora"].summary()
    c_sum = results["camdn-full"].summary()
    print(
        f"\nsuite average: "
        f"{a_sum['avg_latency_ms']:.2f} ms -> "
        f"{c_sum['avg_latency_ms']:.2f} ms "
        f"({a_sum['avg_latency_ms'] / c_sum['avg_latency_ms']:.2f}x), "
        f"DRAM {a_sum['avg_dram_mb']:.1f} MB -> "
        f"{c_sum['avg_dram_mb']:.1f} MB per inference"
    )
    stats = results["camdn-full"].scheduler_stats
    print(
        f"CaMDN ran {stats['lbm_layers']:.0f} layers in LBM mode with "
        f"{stats['timeouts']:.0f} allocation timeouts."
    )


if __name__ == "__main__":
    main()
