"""Scheduler policy interface.

A policy answers four questions for the fluid engine:

1. how many cores an arriving inference gets (``cores_for``);
2. what executing one layer costs (``begin_layer`` — compute cycles and
   DRAM bytes, possibly after waiting for cache pages);
3. how the DRAM bandwidth splits across running tasks
   (``bandwidth_shares``: one share per running instance, in the
   engine's insertion order) and how much of it the DRAM sustains
   (``dram_efficiency``);
4. what bookkeeping happens at layer/inference boundaries
   (``on_layer_end`` / ``on_task_end``).

``begin_layer`` may return ``(None, timeout)`` meaning the task must wait
for cache pages; the engine then calls ``poll_layer`` whenever pages might
have been freed and ``timeout_layer`` when the wait budget expires
(the downgrade path of Figure 6).

A policy may also declare its share rule as a fusable spec
(``rate_kernel``); the engine then computes the same shares inside its
fused steppers (Python and C), which the cross-path tests pin against
``bandwidth_shares``.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SoCConfig
from ..core.prepared import PreparedModel, prepare_model
from ..models.graph import ModelGraph
from ..npu.systolic import SystolicModel
from ..sim.task import LayerWork, TaskInstance

#: Added speedup per extra core when a model spans multiple NPUs
#: (sub-linear, matching AuRORA's reported fission efficiency).
PARALLEL_EFFICIENCY = 0.85


class SchedulerPolicy(abc.ABC):
    """Base class for all scheduling policies."""

    #: Paper-facing policy name (overridden by subclasses).
    name = "abstract"

    #: Whether per-task rates can change *between* engine events.  ``True``
    #: (the safe default) makes the engine recompute bandwidth shares after
    #: every event.  Policies whose shares and DRAM efficiency depend only
    #: on the running-set membership (e.g. the equal-split default) may set
    #: this to ``False``: the engine then keeps cached rates valid across
    #: layer-work changes and only invalidates them on explicit
    #: membership-change notifications, which is what enables the
    #: steady-interval fast-forward.
    dynamic_rates = True

    #: Monotone counter bumped (via :meth:`bump_rate_epoch`) whenever
    #: the *rule* that produces this policy's shares changes shape —
    #: e.g. MoCA's slack throttle waking up when the first
    #: finite-deadline task arrives.  The engine re-consults
    #: :meth:`rate_kernel` on every epoch change, so fused batches span
    #: exactly the events between rule changes.
    rate_epoch = 0

    def __init__(self) -> None:
        self.soc: Optional[SoCConfig] = None
        self.systolic: Optional[SystolicModel] = None
        self._prepared: Dict[str, PreparedModel] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, soc: SoCConfig) -> None:
        """Bind the policy to an SoC before a simulation run."""
        self.soc = soc
        self.systolic = SystolicModel(soc.npu)
        self._prepared = {}

    def snapshot_state(self) -> dict:
        """Picklable mid-run state for engine checkpoints.

        Subclasses extend the returned dict with every piece of state a
        resumed run needs to continue byte-identically.  Pure memos
        (prepared models, layer-work caches) are excluded by contract —
        they rebuild lazily with identical values.  The blob is pickled
        as part of one engine-wide payload, so object identities shared
        with engine state (task instances, scheduler contexts) survive
        the round trip.
        """
        return {"rate_epoch": self.rate_epoch}

    def restore_state(self, state: dict) -> None:
        """Install :meth:`snapshot_state` output after :meth:`attach`.

        The call order is fixed: construct the policy, ``attach`` it to
        the snapshot's SoC (rebuilding the pure run-scoped helpers),
        then ``restore_state`` to overwrite the mutable run state.
        """
        self.rate_epoch = state["rate_epoch"]

    def prepared_for(self, graph: ModelGraph) -> PreparedModel:
        """The graph's prepared artifacts on the attached SoC.

        The process-wide prepared cache is fronted by a per-policy dict
        keyed on the graph name so the hot path costs one string hash
        instead of re-hashing the SoC config on every call.
        """
        prepared = self._prepared.get(graph.name)
        if prepared is None or prepared.graph is not graph:
            prepared = prepare_model(graph, self.soc)
            self._prepared[graph.name] = prepared
        return prepared

    def on_tenant_admit(self, stream_id: str, graph: ModelGraph,
                        now: float) -> None:
        """A tenant (stream) joined the scenario.

        Fired once per stream before its first inference dispatches —
        at engine start for the initial tenant set, and mid-run for
        tenants with a ``join_s`` in dynamic-tenancy scenarios.  The
        default is a no-op; policies use it to warm per-model state
        (prepared artifacts, mapping files) off the inference hot path.
        """

    def on_tenant_retire(self, stream_id: str, now: float) -> None:
        """A tenant left the scenario (scheduled departure or natural
        exhaustion).  Any in-flight inference has already been ended or
        cancelled through the per-task hooks, so per-task resources
        (cache pages, regions) are released before this fires.  The
        default is a no-op."""

    def cores_for(self, instance: TaskInstance, free_cores: int) -> int:
        """Cores granted to an arriving inference (default: one)."""
        return 1

    def on_capacity_change(self, num_cores: int, now: float) -> None:
        """The schedulable NPU core set changed size (fault injection:
        cores went offline or came back).

        The engine has already preempted any instance whose cores
        vanished (through :meth:`on_task_end`, like a departing tenant)
        and invalidates every cached rate, so share-based policies
        degrade gracefully with no action here.  The default is a
        no-op; policies override it to track capacity-dependent state.
        """

    def on_pages_retired(self, count: int, rng_key: str,
                         now: float) -> Tuple[int, ...]:
        """``count`` SPM pages suffered an ECC fault (fault injection).

        ``rng_key`` seeds victim selection — a pure function of the
        fault spec, so every engine path retires the same pages.
        Policies that model the NPU cache (CaMDN) evacuate and
        permanently retire the victims, returning the retired pcpns;
        policies without a cache model ignore the fault (default: no
        pages retired).
        """
        return ()

    def on_task_start(self, instance: TaskInstance, now: float) -> None:
        """An inference acquired its core(s) and is about to map layers."""

    # ------------------------------------------------------------------
    # Layer protocol
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def begin_layer(self, instance: TaskInstance, now: float
                    ) -> Tuple[Optional[LayerWork], float]:
        """Cost of the instance's current layer, or ``(None, timeout)`` to
        wait for cache pages."""

    def poll_layer(self, instance: TaskInstance, now: float
                   ) -> Tuple[Optional[LayerWork], float]:
        """Re-attempt a waiting layer after pages may have been freed
        (no downgrade).  Default: re-run ``begin_layer``."""
        return self.begin_layer(instance, now)

    def timeout_layer(self, instance: TaskInstance, now: float
                      ) -> Tuple[Optional[LayerWork], float]:
        """The wait budget expired; policies with degradable requests
        downgrade here.  Default: retry as a poll."""
        return self.begin_layer(instance, now)

    def on_layer_end(self, instance: TaskInstance, now: float) -> None:
        """The instance finished its current layer."""

    def on_task_end(self, instance: TaskInstance, now: float) -> None:
        """The instance finished its last layer and releases its cores."""

    # ------------------------------------------------------------------
    # Bandwidth
    # ------------------------------------------------------------------

    def dram_efficiency(self, num_running: int) -> float:
        """Fraction of the allocated DRAM bandwidth actually sustained
        while ``num_running`` tasks share the memory system.

        Real DRAM delivers its peak only to row-buffer-friendly streams.
        A transparent cache turns tenant traffic into scattered 64 B demand
        misses whose interleaving across tenants destroys row locality —
        the latency amplification the paper's DRAMsim3 backend exhibits and
        the reason latency reductions in Figure 8 (34-42 %) exceed traffic
        reductions (16-38 %).  Policies override this with their achievable
        efficiency; the default is ideal (1.0).  The engine applies one
        value to the whole running set and memoizes it per width, so the
        result must depend on ``num_running`` alone.
        """
        return 1.0

    def bandwidth_shares(
        self,
        insts: Sequence[TaskInstance],
        rem_compute: Sequence[float],
        rem_dram: Sequence[float],
        now: float,
    ) -> List[float]:
        """Fractional DRAM bandwidth per running instance (sums <= 1).

        The engine passes the running instances in insertion order with
        their remaining layer work (compute cycles, DRAM bytes) read
        from its kernel arrays; the returned list is aligned with
        ``insts``.  Every order-sensitive reduction (demand totals,
        weight normalizations) must accumulate in that order.  This is
        the hand-written reference the fused steppers declared by
        :meth:`rate_kernel` are tested against.

        Default: equal split.
        """
        if not insts:
            return []
        share = 1.0 / len(insts)
        return [share] * len(insts)

    def native_batch_args(self) -> Optional[tuple]:
        """The completion table of one native batch-loop call, or
        ``None`` (the default) to hand every layer completion back to
        the Python chain.

        A policy returns a table only when the C loop can take a
        completion exactly as ``_process_completions`` would: the
        table's first item is a ``repro.sim.native.TABLE_*`` kind, and
        the C handler for that kind transcribes this policy's
        ``on_layer_end`` / ``begin_layer`` (or ``advance_layer``) for
        every completion it does not decline.  The engine fetches the
        table once per call, so it may depend on state that only the
        Python chain changes (task start and end, resizes).
        """
        return None

    def bump_rate_epoch(self) -> None:
        """Advance :attr:`rate_epoch` (the share rule changed shape)."""
        self.rate_epoch += 1

    def rate_kernel(self) -> Optional[tuple]:
        """Declarative description of the share rule, when expressible.

        A policy whose :meth:`bandwidth_shares` currently reduces to a
        closed form the engine can fuse with the kernel step may return
        a spec tuple; ``None`` (the default) keeps the split
        recompute/step path.  Every spec implies ``demand =
        max(rem_dram, 1) / max(rem_compute / freq, 1e-9)`` and the
        policy's :meth:`dram_efficiency`.  Supported specs:

        * ``("demand_prop", floor)`` — demand-proportional shares with
          a starvation floor, per
          :class:`~repro.memory.bwalloc.DemandProportionalPolicy`.
        * ``("slack_weighted", urgency, floor)`` — AuRORA's rule:
          ``weight = max(demand, 1) * exp(-urgency *
          clamp(slack, ±20))`` with ``slack`` from :meth:`slack_of`
          (1.0 for no-deadline instances), normalized per
          :class:`~repro.memory.bwalloc.SlackWeightedPolicy`.
        * ``("slack_throttled", floor)`` — MoCA's finite-deadline rule:
          demands halved when ``slack > 0.5``, then demand-proportional.

        The slack specs make the engine maintain per-instance slack
        inputs (arrival, deadline, est-isolated-latency, layer
        progress) in kernel SoA arrays; :meth:`slack_of` must therefore
        stay a pure function of those inputs and ``now``.

        The returned spec must hold until the policy bumps
        :attr:`rate_epoch`.  The fused implementations are
        bit-identical to :meth:`bandwidth_shares` (the cross-path tests
        compare them), so the spec is purely a speedup contract; it is
        never a substitute for writing :meth:`bandwidth_shares`.
        """
        return None

    # ------------------------------------------------------------------
    # Helpers shared by concrete policies
    # ------------------------------------------------------------------

    def compute_cycles(self, instance: TaskInstance) -> float:
        """Cycles of the current layer on the instance's core group."""
        prepared = self.prepared_for(instance.graph)
        cycles = prepared.layer_cycles[instance.layer_index]
        if instance.cores > 1:
            speedup = 1.0 + PARALLEL_EFFICIENCY * (instance.cores - 1)
            cycles = cycles / speedup
        return float(cycles)

    def est_isolated_latency_s(self, instance: TaskInstance) -> float:
        """Single-tenant latency estimate for slack computations."""
        return self.prepared_for(instance.graph).isolated_latency_s

    def slack_of(self, instance: TaskInstance, now: float,
                 est_total_latency_s: float) -> float:
        """Normalized QoS slack used by slack-aware policies.

        Positive: ahead of the deadline; negative: behind.
        """
        if math.isinf(instance.qos_target_s):
            return 1.0
        progress = (
            instance.layer_index / max(instance.num_layers, 1)
        )
        expected_finish = instance.arrival_time + (
            est_total_latency_s * (1.0 - progress)
        ) + (now - instance.arrival_time)
        slack = instance.arrival_time + instance.qos_target_s \
            - expected_finish
        return slack / instance.qos_target_s

    def stats(self) -> Dict[str, float]:
        """Policy-specific counters for reports (default: none)."""
        return {}
