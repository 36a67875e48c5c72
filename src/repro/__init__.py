"""CaMDN reproduction: cache-efficient multi-tenant DNNs on integrated NPUs.

A production-quality Python reproduction of *CaMDN: Enhancing Cache
Efficiency for Multi-tenant DNNs on Integrated NPUs* (Cai et al., DAC
2025).  The package contains:

* :mod:`repro.core` — CaMDN itself: the NPU-controlled cache architecture
  (page allocator, CPTs, model-exclusive regions), the cache-aware layer
  mapper and the Algorithm 1 dynamic cache allocator.
* :mod:`repro.models` — the eight benchmark DNNs of Table I as
  shape-accurate layer graphs plus a reuse profiler.
* :mod:`repro.npu`, :mod:`repro.cache`, :mod:`repro.memory` — the SoC
  substrates: systolic timing, the transparent-cache traffic model and
  the bandwidth-share policies.
* :mod:`repro.sim` — the fluid multi-tenant discrete-event engine.
* :mod:`repro.schedulers` — MoCA / AuRORA baselines and both CaMDN
  variants.
* :mod:`repro.experiments` — one harness per paper table and figure.

Quickstart::

    import repro
    from repro import ScenarioSpec

    spec = ScenarioSpec.closed_loop(["RS.", "MB.", "BE."], duration_s=0.2)
    result = repro.run(spec, policy="camdn-full")
    print(result.summary())

:func:`run` is the one entry point for a single scenario, closed-loop
(:meth:`ScenarioSpec.closed_loop`, the paper's workload) or otherwise;
:func:`run_fleet` simulates a device population.
"""

from __future__ import annotations

from typing import Optional

from .config import (
    CACHE_LINE_BYTES,
    CACHE_PAGE_BYTES,
    KiB,
    MiB,
    CacheConfig,
    DRAMConfig,
    NPUConfig,
    SoCConfig,
    default_soc,
)
from .core.prepared import (
    PreparedModel,
    PreparedWorkload,
    clear_prepared_caches,
    prepare_model,
    prepare_workload,
    prepared_cache_info,
)
from .errors import ReproError
from .fleet import (
    DeviceClass,
    FleetAccumulator,
    FleetSpec,
    QuantileDigest,
    ScenarioDraw,
)
from .models import build_model, load_benchmark_suite
from .runconfig import RunConfig
from .schedulers import make_scheduler
from .sim import (
    ArrivalProcess,
    EngineSnapshot,
    EventTrace,
    EventTraceRecorder,
    FaultEvent,
    FaultSpec,
    MultiTenantEngine,
    ScenarioSpec,
    ScenarioWorkload,
    SimulationResult,
    StreamSpec,
    fault_schedule_names,
    get_fault_schedule,
    get_scenario,
    register_fault_schedule,
    register_scenario,
    scenario_names,
)

__version__ = "1.17.0"

__all__ = [
    "KiB",
    "MiB",
    "CACHE_LINE_BYTES",
    "CACHE_PAGE_BYTES",
    "NPUConfig",
    "CacheConfig",
    "DRAMConfig",
    "SoCConfig",
    "default_soc",
    "ReproError",
    "build_model",
    "load_benchmark_suite",
    "make_scheduler",
    "ArrivalProcess",
    "StreamSpec",
    "ScenarioSpec",
    "ScenarioWorkload",
    "EventTrace",
    "EventTraceRecorder",
    "FaultEvent",
    "FaultSpec",
    "fault_schedule_names",
    "get_fault_schedule",
    "register_fault_schedule",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "MultiTenantEngine",
    "SimulationResult",
    "EngineSnapshot",
    "PreparedModel",
    "PreparedWorkload",
    "prepare_model",
    "prepare_workload",
    "prepared_cache_info",
    "clear_prepared_caches",
    # Stable public facade (PR 10): one import surface for running
    # scenarios and fleets without reaching into experiment internals.
    "run",
    "run_fleet",
    "resume_fleet",
    "RunConfig",
    "FleetSpec",
    "FleetResult",
    "DeviceClass",
    "ScenarioDraw",
    "FleetAccumulator",
    "QuantileDigest",
    "isolated_latencies",
]


def run(
    scenario: "ScenarioSpec | str",
    soc: Optional[SoCConfig] = None,
    policy: str = "baseline",
    config: Optional[RunConfig] = None,
    scale: float = 1.0,
    **policy_kwargs,
) -> SimulationResult:
    """Run one scenario — the stable facade over the experiment layer.

    Args:
        scenario: a :class:`ScenarioSpec` or a registered scenario name
            (see :func:`scenario_names`).
        soc: hardware configuration (defaults to paper Table II).
        policy: scheduler name (``"baseline"``, ``"moca"``, ``"aurora"``,
            ``"camdn-hw"``, ``"camdn-full"``, ``"camdn-qos"``).
        config: run-control configuration (see :class:`RunConfig`).
        scale: duration/arrival scale applied to the scenario
            (``spec.scaled(scale)``), mirroring the runner's
            ``--scale``.
        **policy_kwargs: forwarded to the scheduler constructor.

    Returns:
        The :class:`SimulationResult` with metrics.
    """
    from .experiments.common import run_scenario

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if scale != 1.0:
        scenario = scenario.scaled(scale)
    return run_scenario(scenario, soc, policy, config=config,
                        **policy_kwargs)


def run_fleet(spec: FleetSpec, **kwargs):
    """Simulate a device population — the stable facade over
    :func:`repro.fleet.runner.run_fleet` (same signature past ``spec``:
    ``soc``, ``journal_path``, ``max_workers``, ``use_cache``,
    ``deadline_s``, ``shard_size``, ``max_bins``).

    Returns:
        The :class:`repro.fleet.runner.FleetResult` with population
        percentiles via ``fleet_summary()``.
    """
    from .fleet.runner import run_fleet as _run_fleet

    return _run_fleet(spec, **kwargs)


def resume_fleet(journal_path, **kwargs):
    """Resume a crashed journaled fleet — facade over
    :func:`repro.fleet.runner.resume_fleet`."""
    from .fleet.runner import resume_fleet as _resume_fleet

    return _resume_fleet(journal_path, **kwargs)


def __getattr__(name: str):
    # These live in lazily-loaded modules (the fleet runner and the
    # experiments layer both import this module for __version__).
    if name == "FleetResult":
        from .fleet.runner import FleetResult

        return FleetResult
    if name == "isolated_latencies":
        from .experiments.common import isolated_latencies

        return isolated_latencies
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
