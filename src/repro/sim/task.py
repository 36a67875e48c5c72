"""Task instances: one inference execution flowing through the engine."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from ..errors import SimulationError
from ..models.graph import ModelGraph


class InstanceState(enum.Enum):
    """Lifecycle of one inference instance."""

    QUEUED = "queued"            # waiting for a free NPU core
    WAITING_PAGES = "waiting"    # holds a core, waiting for cache pages
    RUNNING = "running"          # executing its current layer
    DONE = "done"
    CANCELLED = "cancelled"      # aborted by a preemptive tenant departure


@dataclass
class LayerWork:
    """Resource requirements of one layer under the active policy.

    Attributes:
        compute_cycles: NPU cycles on the assigned core group.
        dram_bytes: DRAM traffic the layer will generate.
        hit_bytes: cache-hit bytes (transparent-cache policies only;
            feeds the Figure 2 hit-rate metric).
        access_bytes: cache-lookup bytes (hit-rate denominator).
    """

    compute_cycles: float
    dram_bytes: float
    hit_bytes: float = 0.0
    access_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.compute_cycles < 0 or self.dram_bytes < 0:
            raise SimulationError("negative layer work")


@dataclass(slots=True)
class TaskInstance:
    """One inference of one model stream.

    Attributes:
        instance_id: unique id (``"<stream>#<n>"``).
        stream_id: the closed-loop stream this inference belongs to.
        graph: the model being executed.
        arrival_time: dispatch time (previous inference's finish).
        qos_target_s: per-inference deadline (scaled per QoS level).

    While an instance is RUNNING under the kernel event loop, its fluid
    state (``rem_compute_cycles`` / ``rem_dram_bytes``) is held in the
    engine's structure-of-arrays kernel
    (:class:`~repro.sim.kernel.RunningKernel`); the attributes here are
    synchronized back before any scheduler hook observes the instance and
    when it leaves the running set, so policy code always reads current
    values.  The fluid math itself (draining, event times, completion)
    lives only in the kernel.
    """

    instance_id: str
    stream_id: str
    graph: ModelGraph
    arrival_time: float
    qos_target_s: float = math.inf

    state: InstanceState = InstanceState.QUEUED
    layer_index: int = 0
    work: Optional[LayerWork] = None
    rem_compute_cycles: float = 0.0
    rem_dram_bytes: float = 0.0
    cores: int = 1
    wake_time: float = math.inf

    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    dram_bytes_total: float = 0.0
    hit_bytes_total: float = 0.0
    access_bytes_total: float = 0.0
    layers_executed: int = 0
    #: Policy-private scratch slots (e.g. the CaMDN schedulers keep the
    #: last LayerGrant and the task's resolved allocator context here);
    #: the engine never reads them.
    sched_scratch: Optional[object] = None
    sched_ctx: Optional[object] = None

    @property
    def num_layers(self) -> int:
        return len(self.graph.layers)

    def begin_work(self, work: LayerWork) -> None:
        """Enter RUNNING with the given per-layer requirements."""
        self.work = work
        self.rem_compute_cycles = work.compute_cycles
        self.rem_dram_bytes = work.dram_bytes
        self.state = InstanceState.RUNNING

    def account_layer(self) -> None:
        """Fold the finished layer's traffic into the instance totals."""
        if self.work is None:
            raise SimulationError(
                f"{self.instance_id}: no work to account"
            )
        self.dram_bytes_total += self.work.dram_bytes
        self.hit_bytes_total += self.work.hit_bytes
        self.access_bytes_total += self.work.access_bytes
        self.layers_executed += 1

    @property
    def latency(self) -> float:
        """Dispatch-to-finish latency (includes queueing)."""
        if self.finish_time is None:
            raise SimulationError(f"{self.instance_id} not finished")
        return self.finish_time - self.arrival_time

    def met_deadline(self) -> bool:
        return self.latency <= self.qos_target_s
