"""Shared experiment plumbing: the unified ``run_scenario`` pipeline,
scaling knobs and isolated-latency probes.

Every experiment harness — the fig2/7/8/9 sweeps, the ablations, the
churn harness, benchmarks and the public :func:`repro.run` facade —
funnels through :func:`run_scenario`: one place that prepares the
workload bundle, builds the scheduler and drives the engine over a
declarative :class:`~repro.sim.scenario.ScenarioSpec` (the paper's
closed-loop workload is :meth:`~repro.sim.scenario.ScenarioSpec.closed_loop`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from ..config import SoCConfig
from ..core.prepared import prepare_workload
from ..errors import SimulationError, WorkloadError
from ..runconfig import RunConfig
from ..schedulers import make_scheduler
from ..schedulers.base import SchedulerPolicy
from ..sim.engine import MultiTenantEngine, SimulationResult
from ..sim.faults import get_fault_schedule
from ..sim.scenario import ScenarioSpec, get_scenario
from ..sim.trace import EventTraceRecorder
from ..sim.workload import ScenarioWorkload


@dataclass(frozen=True)
class ExperimentScale:
    """Knob trading fidelity for wall-clock time.

    ``scale=1.0`` reproduces the full measurement windows; smaller values
    shrink the simulated steady-state window proportionally (benchmarks use
    ~0.25 so pytest-benchmark iterations stay cheap).

    Attributes:
        scale: window multiplier, in (0, 4].
        base_duration_s: full-scale window end.
        base_warmup_s: full-scale measurement start; must precede the
            window end or the measurement window would be silently empty
            (rejected with :class:`~repro.errors.WorkloadError`).
    """

    scale: float = 1.0
    base_duration_s: float = 0.4
    base_warmup_s: float = 0.08

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 4.0:
            raise ValueError("scale must be in (0, 4]")
        if self.base_duration_s <= 0:
            raise WorkloadError("duration must be positive")
        if not 0 <= self.base_warmup_s < self.base_duration_s:
            raise WorkloadError(
                f"warmup_s ({self.warmup_s}) must precede duration_s "
                f"({self.duration_s}); the measurement window would be "
                f"empty"
            )

    @property
    def duration_s(self) -> float:
        """Steady-state window length."""
        return self.base_duration_s * self.scale

    @property
    def warmup_s(self) -> float:
        return self.base_warmup_s * self.scale


def run_scenario(
    spec: Union[ScenarioSpec, str],
    soc: Optional[SoCConfig] = None,
    policy: Union[str, SchedulerPolicy] = "baseline",
    *,
    config: Optional[RunConfig] = None,
    **policy_kwargs,
) -> SimulationResult:
    """Simulate one scenario under one policy (the single entry point).

    Args:
        spec: a :class:`~repro.sim.scenario.ScenarioSpec`, or the name of
            a registered scenario.
        soc: hardware configuration (defaults to paper Table II).
        policy: scheduler name (``"baseline"``, ``"moca"``, ``"aurora"``,
            ``"camdn-hw"``, ``"camdn-full"``) or a ready-built policy
            instance.
        config: run-control configuration (QoS integration, fault
            injection, trace capture, watchdog budgets, checkpointing
            and snapshots); see :class:`~repro.runconfig.RunConfig`.
            Defaults to ``RunConfig()``.
        **policy_kwargs: forwarded to the scheduler constructor when
            ``policy`` is a name.

    Returns:
        The :class:`~repro.sim.engine.SimulationResult` with metrics.
    """
    if config is None:
        config = RunConfig()
    if isinstance(spec, str):
        spec = get_scenario(spec)
    faults = config.faults
    if isinstance(faults, str):
        faults = get_fault_schedule(faults)
    soc = soc or SoCConfig()
    if isinstance(policy, SchedulerPolicy):
        if config.qos_mode or policy_kwargs:
            raise ValueError(
                "qos_mode / policy kwargs only apply when the policy is "
                "given by name; configure the instance directly instead"
            )
        scheduler = policy
        policy_name = policy.name
    else:
        policy_name = policy
        if config.qos_mode and policy_name.startswith("camdn") \
                and policy_name != "camdn-qos":
            # "camdn-qos" already pins qos_mode=True in the factory;
            # forwarding it again would be a duplicate keyword.
            policy_kwargs["qos_mode"] = True
        scheduler = make_scheduler(policy_name, **policy_kwargs)
    # Warm (or hit) the process-wide prepared-workload cache: repeated
    # runs over the same (policy, models, SoC) reuse solved mappings,
    # layer cycles and access segments instead of re-deriving them
    # inside the engine run.
    prepare_workload(policy_name, spec.model_keys, soc)
    recorder = EventTraceRecorder() if config.capture_trace else None
    workload = ScenarioWorkload(spec, recorder=recorder)
    engine = MultiTenantEngine(soc, scheduler, workload,
                               trace=config.trace,
                               event_recorder=recorder,
                               faults=faults)
    result = engine.run(
        max_events=config.max_events,
        max_wall_s=config.max_wall_s,
        checkpoint_every_s=config.checkpoint_every_s,
        checkpoint_dir=config.checkpoint_dir,
        snapshot_at_events=config.snapshot_at_events,
    )
    if recorder is not None:
        result.event_trace = recorder.finish(spec, policy_name)
    return result


def isolated_latencies(model_keys: Sequence[str],
                       soc: SoCConfig,
                       policy_name: str = "baseline",
                       *, use_cache: bool = True,
                       ) -> Dict[str, float]:
    """Per-model single-tenant latency (``T_isolated`` for STP/fairness).

    Each model runs alone over the half-scale closed-loop window, on
    the Table II SoC with ``soc``'s cache capacity, as one serial sweep
    cell: with ``use_cache`` the persistent sweep cache serves the runs
    to every later process, as it serves the figures' own cells.

    Raises:
        SimulationError: an isolated run failed every attempt.
    """
    from .sweep import SweepCell, last_sweep_failures, run_sweep

    keys = list(dict.fromkeys(model_keys))
    cells = [
        SweepCell(policy=policy_name, model_keys=(key,), scale=0.5,
                  cache_bytes=soc.cache.total_bytes)
        for key in keys
    ]
    results = run_sweep(cells, max_workers=1, use_cache=use_cache)
    if any(result is None for result in results):
        raise SimulationError(
            f"isolated runs failed: {last_sweep_failures()}"
        )
    return {
        key: result.metrics.macro_avg_latency_s()
        for key, result in zip(keys, results)
    }
