#!/usr/bin/env python3
"""Dynamic tenancy: tenants joining and leaving mid-run.

Builds a churn scenario — four resident closed-loop tenants plus three
late-joining, early-leaving tenants — and runs it under every policy,
watching how CaMDN reclaims a departing tenant's cache pages and
re-grants them to the survivors.  A probe subclass of the CaMDN(Full)
scheduler logs the allocator's free-page pool at every tenant admission
and retirement, making the reallocation visible.

Usage::

    python examples/dynamic_tenancy.py
"""

from __future__ import annotations

from repro import ArrivalProcess, ScenarioSpec, StreamSpec, run
from repro.schedulers.camdn_full import CaMDNFullScheduler

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")

#: Residents run the whole window; churners join late and leave early,
#: and one of them offers open-loop Poisson traffic instead of a closed
#: loop — both axes the pre-scenario workload layer could not express.
SCENARIO = ScenarioSpec(
    streams=(
        StreamSpec(model="RS.", qos_scale=1.0),
        StreamSpec(model="MB.", qos_scale=1.0),
        StreamSpec(model="EF.", qos_scale=1.0),
        StreamSpec(model="VT.", qos_scale=1.0),
        StreamSpec(model="BE.", qos_scale=1.0,
                   join_s=0.05, leave_s=0.22),
        StreamSpec(model="GN.", qos_scale=1.0,
                   join_s=0.10, leave_s=0.28),
        StreamSpec(model="WV.", qos_scale=1.0,
                   join_s=0.15,
                   arrival=ArrivalProcess.poisson(rate_hz=120.0)),
    ),
    duration_s=0.35,
    warmup_s=0.05,
)


class PageProbe(CaMDNFullScheduler):
    """CaMDN(Full) with a tenancy log of the allocator's page pool."""

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def _free_pages(self) -> int:
        return self.system.regions.free_pages

    def on_tenant_admit(self, stream_id, graph, now):
        super().on_tenant_admit(stream_id, graph, now)
        self.log.append(
            f"  t={now * 1e3:7.2f} ms  + {stream_id:<6} joins "
            f"({self._free_pages()} pages free)"
        )

    def on_tenant_retire(self, stream_id, now):
        super().on_tenant_retire(stream_id, now)
        self.log.append(
            f"  t={now * 1e3:7.2f} ms  - {stream_id:<6} leaves "
            f"({self._free_pages()} pages free)"
        )


def main() -> None:
    print(f"Scenario: {SCENARIO.num_streams} tenants, "
          f"{SCENARIO.duration_s * 1e3:.0f} ms window, QoS-M deadlines")
    for i, stream in enumerate(SCENARIO.streams):
        lifecycle = (
            f"joins {stream.join_s * 1e3:.0f} ms"
            + (f", leaves {stream.leave_s * 1e3:.0f} ms"
               if stream.leave_s is not None else ", stays")
        )
        print(f"  {stream.model}@{i}: {stream.arrival.kind:<11} "
              f"{lifecycle}")

    print("\nTenancy timeline under CaMDN(Full):")
    probe = PageProbe()
    probed = run(SCENARIO, policy=probe)
    for line in probe.log:
        print(line)

    header = (
        f"\n{'policy':<12}{'inferences':>11}{'avg ms':>8}{'p99 ms':>8}"
        f"{'QoS viol':>9}{'queue ms':>9}{'cancelled':>10}"
    )
    print(header)
    print("-" * (len(header) - 1))
    for policy in POLICIES:
        result = (
            probed if policy == "camdn-full"
            else run(SCENARIO, policy=policy)
        )
        summary = result.summary()
        print(
            f"{policy:<12}{summary['inferences']:>11.0f}"
            f"{summary['avg_latency_ms']:>8.2f}"
            f"{summary['p99_latency_ms']:>8.2f}"
            f"{summary['qos_violations']:>9.0f}"
            f"{summary['avg_queue_delay_ms']:>9.3f}"
            f"{summary['cancelled_inferences']:>10.0f}"
        )
    print(
        "\nDeparting tenants' pages return to the pool the moment they "
        "leave,\nand Algorithm 1 re-grants them to the surviving "
        "tenants' regions."
    )


if __name__ == "__main__":
    main()
