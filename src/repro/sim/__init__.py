"""Multi-tenant execution substrate: fluid discrete-event simulation."""

from .task import InstanceState, LayerWork, TaskInstance
from .engine import MultiTenantEngine, SimulationResult
from .faults import (
    FaultEvent,
    FaultRuntime,
    FaultSpec,
    fault_schedule_names,
    fault_schedule_registry,
    get_fault_schedule,
    register_fault_schedule,
)
from .scenario import (
    ArrivalProcess,
    ScenarioSpec,
    StreamSpec,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_registry,
)
from .trace import (
    EventTrace,
    EventTraceRecorder,
    TraceEvent,
    TraceRecorder,
)
from .workload import ScenarioWorkload, random_model_mix
from .snapshot import SNAPSHOT_SCHEMA_VERSION, EngineSnapshot
from .metrics import InstanceRecord, MetricsCollector, ModelSummary
from .qos import fairness, sla_rate, system_throughput

__all__ = [
    "InstanceState",
    "LayerWork",
    "TaskInstance",
    "MultiTenantEngine",
    "SimulationResult",
    "FaultEvent",
    "FaultRuntime",
    "FaultSpec",
    "fault_schedule_names",
    "fault_schedule_registry",
    "get_fault_schedule",
    "register_fault_schedule",
    "ArrivalProcess",
    "StreamSpec",
    "ScenarioSpec",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_registry",
    "EventTrace",
    "EventTraceRecorder",
    "TraceEvent",
    "TraceRecorder",
    "ScenarioWorkload",
    "random_model_mix",
    "SNAPSHOT_SCHEMA_VERSION",
    "EngineSnapshot",
    "InstanceRecord",
    "MetricsCollector",
    "ModelSummary",
    "sla_rate",
    "system_throughput",
    "fairness",
]
