"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` wraps public functions of the ``repro`` modules (the
layer boundaries) so that every call records one span: name, start,
end and parent span.  Spans stay in memory for the life of the op and
are written out once, when the op ends.  Nothing here lives in the
program under test: the wrappers are installed by the benchmark's own
op process, after every target module has been imported, so modules
that bound a name at import time keep the original.

:func:`layer_metrics` turns one op's spans into the per-layer metrics
(call counts, inclusive seconds and self seconds).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One span: ``[id, parent_id, name, start_s, end_s, attrs]``; ids are
#: list positions and ``-1`` marks a root span.
Span = list

#: Wrapped layer boundaries: ``(module, attribute path, span name)``.
#: A name is patched in the module that looks it up at call time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.mapper.layer_mapper", "LayerMapper.map_model",
     "mapper.map_model"),
    ("repro.core.mapper.solver", "SubspaceSolver.solve", "mapper.solve"),
    ("repro.core.mapper.layer_mapper", "plan_blocks", "mapper.plan_blocks"),
    ("repro.core.mapper.layer_mapper", "build_lbm_candidates",
     "mapper.lbm_candidates"),
    ("repro.core.serialize", "load_mapping_file", "serialize.mapping_load"),
    ("repro.core.serialize", "mapping_file_to_dict",
     "serialize.mapping_encode"),
    ("repro.core.serialize", "atomic_write_text", "serialize.mapping_write"),
    ("repro.experiments.sweep", "cell_cache_key", "sweep.cache_key"),
    ("repro.experiments.sweep", "simulation_result_from_dict",
     "serialize.result_load"),
    ("repro.experiments.sweep", "simulation_result_to_dict",
     "serialize.result_store"),
    ("repro.core.prepared", "prepare_model", "prepared.prepare_model"),
    ("repro.experiments.common", "prepare_workload",
     "prepared.prepare_workload"),
    ("repro.sim.engine", "MultiTenantEngine.run", "engine.run"),
    ("repro.experiments.fig7_speedup", "run_sweep", "sweep.run_sweep"),
    ("repro.experiments.fig8_scaling", "run_sweep", "sweep.run_sweep"),
    ("repro.experiments.fig9_qos", "run_sweep", "sweep.run_sweep"),
    ("repro.experiments.fig9_qos", "isolated_latencies", "figs.isolated"),
    ("repro.fleet.spec", "FleetSpec.expand", "fleet.expand"),
    ("repro.fleet.runner", "run_campaign", "campaign.run"),
    ("repro.fleet.runner", "resume_campaign", "campaign.run"),
    ("repro.fleet.aggregate", "FleetAccumulator.fold_results",
     "fleet.aggregate"),
)


class Tracer:
    """Records nested spans of one single-threaded op."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(result)`` (if
        given) is stored with the span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name,
                    clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if attrs is not None:
                span[5] = attrs(result)
            return result

        return traced

    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS,
                attrs: Optional[Dict[str, Callable]] = None
                ) -> List[str]:
        """Patch every target; returns a reason for each one missing.

        All target modules are imported before the first patch, so a
        module that imports a name from another binds the original.
        """
        attrs = attrs or {}
        modules = {}
        missing = []
        for module_name, _, _ in targets:
            if module_name not in modules:
                try:
                    modules[module_name] = importlib.import_module(
                        module_name)
                except ImportError as exc:
                    modules[module_name] = None
                    missing.append(f"{module_name}: {exc}")
        for module_name, path, name in targets:
            owner = modules[module_name]
            if owner is None:
                continue
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = (vars(owner).get(attr)
                        if owner is not None else None)
            if not callable(original):
                missing.append(f"{module_name}.{path} not found")
                continue
            setattr(owner, attr, self.wrap(original, name, attrs.get(name)))
        return missing


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest strictly, so direct children never overlap
    and the covered time is the sum of their durations.
    """
    result = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[1] >= 0:
            result[span[1]] -= span[4] - span[3]
    return result


def span_summary(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Inclusive time counts only spans without an ancestor of the same
    name, so a recursive call is not counted twice.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[2]
        entry = summary.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        parent = span[1]
        while parent >= 0 and spans[parent][2] != name:
            parent = spans[parent][1]
        if parent < 0:
            entry["s"] += span[4] - span[3]
    return summary


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """The span-derived per-layer metrics of one op."""
    summary = span_summary(spans)

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    return {
        "mapper.map_model.calls": get("mapper.map_model", "calls"),
        "mapper.map_model.self_s": get("mapper.map_model", "self_s"),
        "mapper.map_model.s": get("mapper.map_model", "s"),
        "mapper.solve.calls": get("mapper.solve", "calls"),
        "mapper.solve.s": get("mapper.solve", "s"),
        "mapper.plan_blocks.s": get("mapper.plan_blocks", "s"),
        "mapper.lbm_candidates.s": get("mapper.lbm_candidates", "s"),
        "serialize.mapping_load.calls":
            get("serialize.mapping_load", "calls"),
        "serialize.mapping_load.s": get("serialize.mapping_load", "s"),
        "serialize.mapping_store.calls":
            get("serialize.mapping_write", "calls"),
        "serialize.mapping_store.s":
            get("serialize.mapping_encode", "s")
            + get("serialize.mapping_write", "s"),
        "serialize.result_load.s": get("serialize.result_load", "s"),
        "serialize.result_store.s": get("serialize.result_store", "s"),
        "sweep.cache_key.s": get("sweep.cache_key", "s"),
        "prepared.prepare_model.self_s":
            get("prepared.prepare_model", "self_s")
            + get("prepared.prepare_workload", "self_s"),
        "sweep.s": get("sweep.run_sweep", "s"),
        "figs.isolated_s": get("figs.isolated", "s"),
        "fleet.expand.s": get("fleet.expand", "s"),
        "campaign.s": get("campaign.run", "s"),
        "fleet.aggregate.s": get("fleet.aggregate", "s"),
    }


def engine_runs(spans: Sequence[Span]) -> List[dict]:
    """The in-process engine runs recorded by ``engine.run`` spans."""
    return [span[5] for span in spans
            if span[2] == "engine.run" and span[5] is not None]
