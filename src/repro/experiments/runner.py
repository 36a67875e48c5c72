"""Experiment runner CLI.

Usage::

    python -m repro.experiments.runner fig2 [--scale 0.5] [--jobs 4]
    python -m repro.experiments.runner all --no-cache
    python -m repro.experiments.runner --scenario poisson-eight \\
        --policy camdn-full --capture-trace run.trace.json
    python -m repro.experiments.runner --scenario steady-quad \\
        --faults degraded-soc --capture-trace faulted.trace.json
    python -m repro.experiments.runner --replay-trace run.trace.json
    python -m repro.experiments.runner --campaign run.journal \\
        --campaign-scenarios poisson-eight,churn-eight --deadline-s 120
    python -m repro.experiments.runner --resume run.journal
    python -m repro.experiments.runner --fleet fleet.json \\
        --campaign fleet.journal --jobs 8
    python -m repro.experiments.runner --resume fleet.journal
    python -m repro.experiments.runner fleet-capacity --scale 0.25

``--fleet FILE`` simulates a device population (see
:mod:`repro.fleet`): FILE is a JSON :class:`~repro.fleet.spec.FleetSpec`
that expands deterministically into per-device cells, runs them through
the sweep/campaign machinery, and prints one ``{"fleet": ...}`` JSON
line of population percentiles (p50/p95/p99 latency, QoS-violation
rate) — byte-identical under any ``--jobs`` and across resume cycles.
With ``--campaign JOURNAL`` the fleet is journaled and crash-safe;
``--resume JOURNAL`` detects the fleet sidecar automatically and picks
the population back up.

``--campaign FILE`` runs a scenario × policy cell grid under a
crash-safe journal (see
:class:`~repro.experiments.sweep.CampaignJournal`): the journal records
the grid and each cell's result commits atomically and durably as it
lands, so a campaign killed at any instant — SIGKILL included — restarts
with ``--resume FILE``, skipping committed cells and re-running the
rest, and produces a result grid byte-identical to an uninterrupted run.
``--deadline-s`` arms a per-cell wall-clock watchdog (a hung cell is
killed and retried with jittered backoff).

The runner exits nonzero when any sweep or campaign cell fails after
retries; ``--keep-going`` restores the old always-zero behaviour for
pipelines that prefer to inspect the printed failure report instead.

``--jobs`` fans the experiment's independent simulation cells out over a
process pool (see :mod:`repro.experiments.sweep`); the default picks one
worker per CPU.  Sweep cells are served from the persistent on-disk
result cache when an identical cell was simulated before; ``--no-cache``
forces fresh simulation (CI uses this so the engine is always
exercised).  Experiments without a cell grid (fig3, table3, ablation)
ignore both flags; ``ablation`` runs the way-partition and LBM-budget
sweeps of :mod:`repro.experiments.ablation` at ``--scale``, plus the
multicast table.

``--scenario NAME --capture-trace FILE`` runs one registered scenario
under ``--policy`` (default ``camdn-full``) and writes the versioned,
content-hashed event trace (see :mod:`repro.sim.trace`); ``--faults
NAME`` injects a registered fault schedule (``--list-faults``) into
that run;
``--replay-trace FILE`` re-feeds a captured trace as a scenario —
under the same policy and SoC the replay reproduces the captured run's
``metric_summary()`` byte-identically.

``--profile FILE`` wraps the run in :mod:`cProfile` and dumps the
stats to ``FILE`` (pstats format; load with ``python -m pstats FILE``
or ``snakeviz``), so the next hot-path hunt starts from data instead
of guesses.  It applies to every run mode — experiments,
``--scenario`` captures, ``--replay-trace`` and ``--campaign`` — and
always profiles *through* ``run_scenario`` in-process: profiling
forces ``--jobs 1`` (the serial sweep path, so engine and allocator
frames land in this process instead of scattering across pool
workers) and ``--no-cache`` (cache hits would profile JSON loading
instead of the engine).

After each experiment the runner prints an engine-observability line:
cells simulated vs. served from cache, events processed, and the
events/sec throughput of the fresh simulations.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Callable, Dict, Optional

from ..sim.faults import fault_schedule_registry
from ..sim.scenario import scenario_registry
from .ablation import (
    format_ablation,
    format_multicast,
    run_lbm_budget_ablation,
    run_way_partition_ablation,
)
from .fig2_motivation import format_fig2, run_fig2
from .fig3_reuse import format_fig3, run_fig3
from .fig7_speedup import format_fig7, run_fig7
from .fig8_scaling import format_fig8, run_fig8
from .fig9_qos import format_fig9, run_fig9
from .fig_churn import format_churn, run_churn
from .fig_fleet import format_fleet_capacity, run_fleet_capacity
from .fig_resilience import format_resilience, run_resilience
from .sweep import (
    last_sweep_failures,
    last_sweep_stats,
    reset_sweep_stats,
)
from .table3_area import format_table3, run_table3


def _fig2(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return format_fig2(run_fig2(scale=scale, jobs=jobs,
                                use_cache=use_cache))


def _fig3(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return format_fig3(run_fig3())


def _fig7(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return format_fig7(run_fig7(scale=scale, jobs=jobs,
                                use_cache=use_cache))


def _fig8(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return format_fig8(run_fig8(scale=scale, jobs=jobs,
                                use_cache=use_cache))


def _fig9(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return format_fig9(run_fig9(scale=scale, jobs=jobs,
                                use_cache=use_cache))


def _table3(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return format_table3(run_table3())


def _churn(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return format_churn(run_churn(scale=scale, jobs=jobs,
                                  use_cache=use_cache))


def _resilience(scale: float, jobs: Optional[int],
                use_cache: bool) -> str:
    return format_resilience(run_resilience(scale=scale, jobs=jobs,
                                            use_cache=use_cache))


def _fleet_capacity(scale: float, jobs: Optional[int],
                    use_cache: bool) -> str:
    return format_fleet_capacity(
        run_fleet_capacity(scale=scale, jobs=jobs, use_cache=use_cache)
    )


def _ablation(scale: float, jobs: Optional[int], use_cache: bool) -> str:
    return "\n\n".join([
        format_ablation(run_way_partition_ablation(scale=scale),
                        "NPU way-partition share"),
        format_ablation(run_lbm_budget_ablation(scale=scale),
                        "LBM occupancy budget"),
        format_multicast(),
    ])


EXPERIMENTS: Dict[str, Callable[[float, Optional[int], bool], str]] = {
    "ablation": _ablation,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "table3": _table3,
    "churn": _churn,
    "resilience": _resilience,
    "fleet-capacity": _fleet_capacity,
}


def format_scenario_list() -> str:
    """The named-scenario registry as a table."""
    lines = ["Registered scenarios (--list-scenarios):"]
    for name, (spec, description) in sorted(
        scenario_registry().items()
    ):
        window = (
            f"{spec.duration_s * 1e3:.0f} ms window"
            if spec.duration_s is not None else "count mode"
        )
        dynamics = "dynamic" if spec.has_dynamics else "static"
        lines.append(
            f"  {name:<16} {spec.num_streams:>2} streams  {window:<14} "
            f"{dynamics:<8} {description}"
        )
    return "\n".join(lines)


def format_fault_list() -> str:
    """The named fault-schedule registry as a table."""
    lines = ["Registered fault schedules (--list-faults):"]
    for name, (spec, description) in sorted(
        fault_schedule_registry().items()
    ):
        kinds = ",".join(sorted({e.kind for e in spec.events})) or "-"
        lines.append(
            f"  {name:<18} {len(spec.events):>2} events  "
            f"{kinds:<48} {description}"
        )
    return "\n".join(lines)


def _run_capture(scenario_name: str, policy: str, scale: float,
                 trace_path: str,
                 faults: Optional[str] = None) -> int:
    """Run one registered scenario and write its event trace."""
    import json

    from ..runconfig import RunConfig
    from ..sim.faults import get_fault_schedule
    from ..sim.scenario import get_scenario
    from .common import run_scenario

    spec = get_scenario(scenario_name).scaled(scale)
    fault_spec = (
        get_fault_schedule(faults).scaled(scale)
        if faults is not None else None
    )
    result = run_scenario(
        spec, policy=policy,
        config=RunConfig(capture_trace=True, faults=fault_spec),
    )
    trace = result.event_trace
    path = trace.save(trace_path)
    print(json.dumps(result.metric_summary(), sort_keys=True))
    print(
        f"  [captured {len(trace.events)} events "
        f"({trace.count('arrival')} arrivals, "
        f"{trace.count('completion')} completions) -> {path}; "
        f"content hash {trace.content_hash[:12]}]"
    )
    return 0


def _run_replay(trace_path: str, policy: Optional[str]) -> int:
    """Re-run a captured trace as a replay scenario."""
    import json

    from ..sim.trace import EventTrace
    from .common import run_scenario

    trace = EventTrace.load(trace_path)
    replay_policy = policy or trace.policy
    result = run_scenario(trace.replay_scenario(), policy=replay_policy)
    print(json.dumps(result.metric_summary(), sort_keys=True))
    print(
        f"  [replayed {trace_path} ({len(trace.events)} events, "
        f"policy {replay_policy}; captured under {trace.policy})]"
    )
    return 0


#: All scheduler policies a default campaign grid covers.
CAMPAIGN_POLICIES = ("baseline", "moca", "aurora", "camdn-hw",
                     "camdn-full")


def _run_campaign_cli(journal_path: str, resume: bool,
                      scenarios: Optional[str], policies: Optional[str],
                      faults: Optional[str], scale: float,
                      jobs: Optional[int], use_cache: bool,
                      deadline_s: Optional[float]) -> int:
    """Run (or resume) a journaled scenario × policy campaign.

    Prints one JSON line per cell — ``{"cell", "policy", "summary"}``
    in cell order — so two campaign invocations compare byte-for-byte,
    then the engine stats footer.  Returns 1 when any cell failed after
    retries (``--keep-going`` downgrades that in :func:`main`).
    """
    import json

    from ..sim.faults import get_fault_schedule
    from ..sim.scenario import get_scenario, scenario_names
    from .sweep import (
        CampaignJournal,
        SweepCell,
        resume_campaign,
        run_campaign,
    )

    reset_sweep_stats()
    if resume:
        cells, _soc = CampaignJournal(journal_path).header()
        results = resume_campaign(journal_path, max_workers=jobs,
                                  use_cache=use_cache,
                                  deadline_s=deadline_s)
    else:
        scenario_list = (
            scenarios.split(",") if scenarios else scenario_names()
        )
        policy_list = (
            policies.split(",") if policies else list(CAMPAIGN_POLICIES)
        )
        fault_spec = (
            get_fault_schedule(faults) if faults is not None else None
        )
        cells = [
            SweepCell.from_scenario(policy, get_scenario(name),
                                    scale=scale, faults=fault_spec)
            for name in scenario_list
            for policy in policy_list
        ]
        results = run_campaign(cells, journal_path, max_workers=jobs,
                               use_cache=use_cache,
                               deadline_s=deadline_s)
    for i, result in enumerate(results):
        print(json.dumps({
            "cell": i,
            "policy": cells[i].policy,
            "summary": (
                result.metric_summary() if result is not None else None
            ),
        }, sort_keys=True))
    stats_line = _engine_stats_line()
    if stats_line:
        print(stats_line)
    return 1 if last_sweep_failures() else 0


def _run_fleet_cli(spec_path: Optional[str], journal_path: Optional[str],
                   jobs: Optional[int], use_cache: bool,
                   deadline_s: Optional[float]) -> int:
    """Run a fleet described by a JSON spec file, or resume a journaled
    one from its journal + sidecar when ``spec_path`` is ``None``.

    With ``journal_path`` the fleet runs under the crash-safe campaign
    journal (plus the ``.fleet.json`` sidecar) so ``--resume`` can pick
    it up; without, it runs as an ephemeral sharded sweep.  Prints one
    ``{"fleet": <population summary>}`` JSON line — byte-identical
    across worker counts and resume cycles — then the stats footer.
    Returns 1 when any device cell failed after retries or measured no
    inference.
    """
    import json

    from ..fleet.runner import resume_fleet, run_fleet
    from ..fleet.spec import FleetSpec

    reset_sweep_stats()
    if spec_path is None:
        result = resume_fleet(journal_path, max_workers=jobs,
                              use_cache=use_cache, deadline_s=deadline_s)
    else:
        with open(spec_path, encoding="utf-8") as fh:
            spec = FleetSpec.from_dict(json.load(fh))
        result = run_fleet(spec, journal_path=journal_path,
                           max_workers=jobs, use_cache=use_cache,
                           deadline_s=deadline_s)
    print(json.dumps({"fleet": result.fleet_summary()},
                     sort_keys=True))
    stats_line = _engine_stats_line()
    if stats_line:
        print(stats_line)
    return 1 if result.failures else 0


def _engine_stats_line() -> str:
    """Observability footer from the last sweep (empty if no sweep ran)."""
    stats = last_sweep_stats()
    if not stats or not stats.get("cells"):
        return ""
    line = (
        f"  [engine: {stats['cells']:.0f} cells "
        f"({stats['cached_cells']:.0f} cached), "
        f"{stats['events']:,.0f} events"
    )
    if stats["events_per_s"] > 0:
        line += f", {stats['events_per_s']:,.0f} events/s"
    line += "]"
    failures = last_sweep_failures()
    if failures:
        detail = "; ".join(
            f"cell {f['index']} ({f['policy']}): {f['error']}"
            for f in failures
        )
        line += f"\n  [WARNING: {len(failures)} cell(s) failed after " \
                f"retry — {detail}]"
    return line


@contextlib.contextmanager
def _profiled(profiler):
    """Collect samples while the body runs (no-op without a profiler)."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def _dump_profile(profiler, path: str) -> None:
    """Write collected samples as pstats and print the top of the dump."""
    if profiler is None:
        return
    import pstats

    profiler.dump_stats(path)
    top = pstats.Stats(profiler)
    top.sort_stats("cumulative")
    print(f"profile written to {path} "
          f"(load with `python -m pstats {path}`); top 10:")
    top.print_stats(10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate CaMDN paper tables and figures."
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the named-scenario registry and exit",
    )
    parser.add_argument(
        "--list-faults",
        action="store_true",
        help="print the named fault-schedule registry and exit",
    )
    parser.add_argument(
        "--faults",
        metavar="NAME",
        default=None,
        help="registered fault schedule injected into a --scenario run",
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        default=None,
        help="registered scenario to run standalone "
             "(with --capture-trace)",
    )
    parser.add_argument(
        "--policy",
        metavar="NAME",
        default=None,
        help="scheduling policy for --scenario / --replay-trace "
             "(default: camdn-full, or the captured policy on replay)",
    )
    parser.add_argument(
        "--capture-trace",
        metavar="FILE",
        default=None,
        help="write the run's event trace (requires --scenario)",
    )
    parser.add_argument(
        "--replay-trace",
        metavar="FILE",
        default=None,
        help="re-run a captured event trace as a replay scenario",
    )
    parser.add_argument(
        "--campaign",
        metavar="FILE",
        default=None,
        help="run a scenario x policy grid under a crash-safe "
             "journal at FILE (with --fleet: the fleet's journal)",
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="resume a crashed campaign (or fleet — auto-detected "
             "from the .fleet.json sidecar) from its journal, "
             "skipping completed cells",
    )
    parser.add_argument(
        "--fleet",
        metavar="FILE",
        default=None,
        help="simulate a device population described by a JSON fleet "
             "spec; add --campaign JOURNAL to make it resumable",
    )
    parser.add_argument(
        "--campaign-scenarios",
        metavar="LIST",
        default=None,
        help="comma-separated scenario names for --campaign "
             "(default: every registered scenario)",
    )
    parser.add_argument(
        "--campaign-policies",
        metavar="LIST",
        default=None,
        help="comma-separated policy names for --campaign "
             "(default: all five)",
    )
    parser.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-cell wall-clock watchdog for --campaign/--resume; "
             "a cell exceeding it is killed and retried",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="exit 0 even when cells failed after retries "
             "(default: nonzero exit on any failed cell)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="measurement-window scale (smaller = faster, default 1.0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep cells (default: one per CPU)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent sweep-result cache (always simulate)",
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help="cProfile the experiment hot path and dump pstats to FILE "
             "(implies --jobs 1 and --no-cache)",
    )
    args = parser.parse_args(argv)

    if args.list_scenarios:
        print(format_scenario_list())
        return 0
    if args.list_faults:
        print(format_fault_list())
        return 0

    profiler = None
    jobs = args.jobs
    use_cache = not args.no_cache
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        jobs = 1
        use_cache = False

    if args.replay_trace is not None:
        with _profiled(profiler):
            code = _run_replay(args.replay_trace, args.policy)
        _dump_profile(profiler, args.profile)
        return code
    from ..fleet.runner import fleet_sidecar_path

    if args.fleet is not None and args.resume is not None:
        parser.error("--fleet starts a new fleet; use --resume "
                     "FILE alone to pick one back up")
    if args.resume is not None and args.campaign is not None:
        parser.error("--campaign and --resume are mutually exclusive")
    if args.fleet is not None or (
        args.resume is not None
        and fleet_sidecar_path(args.resume).exists()
    ):
        with _profiled(profiler):
            code = _run_fleet_cli(
                args.fleet,
                journal_path=args.campaign or args.resume,
                jobs=jobs,
                use_cache=use_cache,
                deadline_s=args.deadline_s,
            )
        _dump_profile(profiler, args.profile)
        return 0 if args.keep_going else code
    if args.campaign is not None or args.resume is not None:
        with _profiled(profiler):
            code = _run_campaign_cli(
                args.campaign or args.resume,
                resume=args.resume is not None,
                scenarios=args.campaign_scenarios,
                policies=args.campaign_policies,
                faults=args.faults,
                scale=args.scale,
                jobs=jobs,
                use_cache=use_cache,
                deadline_s=args.deadline_s,
            )
        _dump_profile(profiler, args.profile)
        return 0 if args.keep_going else code
    if args.scenario is not None:
        if args.capture_trace is None:
            parser.error("--scenario requires --capture-trace FILE")
        with _profiled(profiler):
            code = _run_capture(
                args.scenario, args.policy or "camdn-full", args.scale,
                args.capture_trace, faults=args.faults,
            )
        _dump_profile(profiler, args.profile)
        return code
    if args.capture_trace is not None:
        parser.error("--capture-trace requires --scenario NAME")
    if args.faults is not None:
        parser.error("--faults requires --scenario NAME or --campaign")
    if args.experiment is None:
        parser.error("an experiment name (or --list-scenarios, "
                     "--scenario, --replay-trace, --campaign) is "
                     "required")

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    any_failed = False
    for name in names:
        start = time.time()
        reset_sweep_stats()
        with _profiled(profiler):
            output = EXPERIMENTS[name](args.scale, jobs, use_cache)
        print(output)
        stats_line = _engine_stats_line()
        if stats_line:
            print(stats_line)
        if last_sweep_failures():
            any_failed = True
        print(f"  [{name} regenerated in {time.time() - start:.1f}s]")
        print()
    _dump_profile(profiler, args.profile)
    # A cell that failed after retries is a failed run: exit nonzero so
    # CI pipelines notice (--keep-going opts back into exit 0).
    if any_failed and not args.keep_going:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
