"""Native fused-step equivalence and loader behaviour.

The engine's two step paths — the native C batch loop and the Python
split ``_recompute_rates`` + ``kernel.step`` pair it transcribes — must
be bit-identical across every rate-kernel mode (demand-proportional,
slack-weighted, slack-throttled); the committed reference suite pins
the default path and these tests pin the cross-path agreement,
including MoCA's mid-run rate epoch transitions, QoS tenant churn and
fuzzed fault schedules.
With native code, every policy runs the C batch loop
(``_batchstep.batch_loop``), which also takes the layer completions of
the CaMDN policies and of the transparent-cache policies (baseline,
MoCA, AuRORA); it must leave results, scheduler stats and mid-run
snapshots exactly as the Python completion chain does, stay off
whenever the engine runs without native code, and actually take most
completions: every CaMDN completion it can, memo misses and those while
page waiters are pending included.
"""

import json
import math
import os
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings

from fuzz_faults import dump_falsifying_fault_case, fault_specs
from fuzz_scenarios import (
    count_mode_scenario_specs,
    dump_falsifying_spec,
    scenario_specs,
)
from repro.config import SoCConfig
from repro.core.prepared import clear_prepared_caches
from repro.memory.bwalloc import DemandProportionalPolicy, SlackWeightedPolicy
from repro.schedulers import make_scheduler
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.camdn_common import CaMDNSchedulerBase
from repro.sim import native
from repro.sim.engine import MultiTenantEngine
from repro.sim.faults import get_fault_schedule
from repro.sim.kernel import RunningKernel
from repro.sim.scenario import (
    ArrivalProcess,
    ScenarioSpec,
    StreamSpec,
    get_scenario,
)
from repro.sim.snapshot import _dumps, _loads
from repro.sim.trace import TraceRecorder
from repro.sim.workload import ScenarioWorkload

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full",
            "camdn-qos")

CAMDN_POLICIES = ("camdn-hw", "camdn-full", "camdn-qos")

#: The policies whose completions the batch loop takes from the
#: layer-work memo (``SharedCacheBaseline`` and its subclasses).
TRANSPARENT_POLICIES = ("baseline", "moca", "aurora")

#: Paths of the cold warm-up run of the cross-path cases: the native
#: batch loop, or the pure-Python completion chain.
WARM_PATHS = ("native", "python")

#: The twelve-tenant mix that crowds a 4 MiB cache (``tight-cache``).
TIGHT_KEYS = ("RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP.",
              "RS.", "MB.", "EF.", "VT.")

#: Cross-path cases of the batch loop's completion tables: (scenario,
#: fault schedule, SoC).  ``churn-ecc`` churns tenants and retires
#: pages mid-run, so regions shrink and move outside Algorithm 1
#: between handled completions; ``tight-cache`` crowds twelve tenants
#: onto a 4 MiB cache, so the region resizes the batch loop does itself
#: include grows that empty the free pool, denials one page short,
#: shrinks into a non-empty free list and held-list merges;
#: ``qos-2core`` gives camdn-qos and AuRORA deadlines tight enough for
#: 2-core grants (memo keys with cores=2); ``qos-throttle`` starts
#: every MoCA task at the slack-0.5 throttle threshold, so the shares
#: depend on the layer progress the loop writes back; ``odd-cores``
#: leaves 3 cores, so AuRORA runs one model on 2 cores and on 1 in the
#: same run.
CAMDN_CASES = {
    "closed-loop": (
        ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "BE."),
                                 inferences=4),
        None, SoCConfig(),
    ),
    "churn-ecc": (
        get_scenario("churn-heavy").scaled(0.2),
        get_fault_schedule("ecc-storm"), SoCConfig(),
    ),
    "qos-2core": (
        ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "BE."),
                                 inferences=3, qos_scale=0.5),
        None, SoCConfig(),
    ),
    "qos-throttle": (
        ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "BE."),
                                 inferences=3, qos_scale=2.0),
        None, SoCConfig(),
    ),
    "odd-cores": (
        ScenarioSpec.closed_loop(("RS.", "RS.", "MB."), inferences=3,
                                 qos_scale=0.5),
        None, SoCConfig(num_npu_cores=3),
    ),
    "tight-cache": (
        ScenarioSpec.closed_loop(TIGHT_KEYS, inferences=4),
        None, SoCConfig().with_cache_bytes(4 << 20),
    ),
}

_fuzz_settings = settings(
    max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "10")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large],
)

NATIVE = native.fused_step()

needs_native = pytest.mark.skipif(
    NATIVE is None,
    reason=f"native fused step unavailable: {native.native_status()}",
)


def _metrics_json(result) -> str:
    return json.dumps(result.metric_summary(), sort_keys=True)


def _fused_view(snapshot) -> bytes:
    """Snapshot payload bytes without the kernel state that differs
    by step path by design: the split path's applied rates (the native
    fused modes derive rates inside each step and never store them),
    and the slack inputs only the native slack modes track (see
    :func:`_assert_slack_rebuilds`)."""
    payload = _loads(snapshot.payload)
    kernel = payload["engine"]["kernel"]
    for key in ("rate_c", "rate_d", "slack_on", "sl_arrival", "sl_qos",
                "sl_est", "sl_progress"):
        kernel[key] = None
    return _dumps(payload)


def _assert_slack_rebuilds(snapshot, policy, soc) -> None:
    """The snapshot's slack inputs, which the native loop's slack modes
    keep up to date, are what ``configure_slack`` builds afresh from
    its running instances."""
    kernel = _loads(snapshot.payload)["engine"]["kernel"]
    if not kernel["slack_on"]:
        return
    scheduler = make_scheduler(policy)
    scheduler.attach(soc)
    rebuilt = RunningKernel()
    rebuilt.insts = kernel["insts"]
    rebuilt.configure_slack(True, scheduler.est_isolated_latency_s)
    for key in ("sl_arrival", "sl_qos", "sl_est", "sl_progress"):
        assert kernel[key] == getattr(rebuilt, key), key


def _run(policy_name, *, use_native=None,
         keys=("RS.", "MB.", "EF.", "BE."), qos_scale=float("inf"),
         inferences=2):
    spec = ScenarioSpec.closed_loop(keys, inferences=inferences,
                                    qos_scale=qos_scale)
    engine = MultiTenantEngine(
        SoCConfig(),
        make_scheduler(policy_name),
        ScenarioWorkload(spec),
        use_native=use_native,
    )
    return engine.run()


def _slack_of(arrival, qos, est, progress, now):
    """``SchedulerPolicy.slack_of`` of an instance ``progress`` of the
    way through its layers (one layer, so the progress is exact)."""
    inst = SimpleNamespace(arrival_time=arrival, qos_target_s=qos,
                           layer_index=progress, num_layers=1)
    return SchedulerPolicy.slack_of(None, inst, now, est)


def _split_step(rem_c, rem_d, wait_dt, mode, freq, bw, eff, floor,
                slack_inputs=((), (), (), ()), now=0.0, urgency=0.0):
    """One event of the split pair, the Python reference of the C step
    in a fused ``mode``: the share rule the policies call
    (``DemandProportionalPolicy`` or ``SlackWeightedPolicy.allocate``
    over the policies' demands and ``SchedulerPolicy.slack_of``),
    ``_recompute_rates``'s clamp, then :meth:`RunningKernel.step`.
    Returns the stepped kernel and the step's ``(dt, finished)``."""
    demands = [max(d, 1.0) / max(c / freq, 1e-9)
               for c, d in zip(rem_c, rem_d)]
    slacks = [_slack_of(*inputs, now) for inputs in zip(*slack_inputs)]
    if mode == 1:
        shares = DemandProportionalPolicy(floor).allocate(demands)
    elif mode == 2:
        shares = SlackWeightedPolicy(urgency, floor).allocate(demands,
                                                              slacks)
    else:
        # MoCA's throttle: halve the demand of tenants more than 50 %
        # ahead of their deadline.
        shares = DemandProportionalPolicy(floor).allocate(
            [dm * 0.5 if sl > 0.5 else dm
             for dm, sl in zip(demands, slacks)]
        )
    kernel = RunningKernel()
    kernel.insts = [None] * len(rem_c)
    kernel.rem_c = list(rem_c)
    kernel.rem_d = list(rem_d)
    kernel.set_rates(
        [freq] * len(shares),
        [r if (r := bw * s * eff) > 1e-6 else 1e-6 for s in shares],
    )
    return kernel, kernel.step(wait_dt)


def _assert_steps_agree(res_c, c_rem_c, c_rem_d, kernel, res_py):
    """The C step's result and in-place remaining work are the split
    pair's, bit for bit."""
    assert res_c is not None
    dt_c, fin_c = res_c
    dt_py, fin_py = res_py
    assert repr(dt_c) == repr(dt_py)
    assert (fin_c or []) == fin_py
    assert [x.hex() for x in c_rem_c] == [x.hex() for x in kernel.rem_c]
    assert [x.hex() for x in c_rem_d] == [x.hex() for x in kernel.rem_d]


class TestLoader:
    def test_status_reports_outcome(self):
        status = native.native_status()
        assert status
        if NATIVE is not None:
            assert status.startswith("loaded")

    def test_env_kill_switch(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset_for_tests()
        try:
            assert native.fused_step() is None
            assert "REPRO_NATIVE" in native.native_status()
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
            native.reset_for_tests()
            native.fused_step()

    def test_engine_runs_without_native(self):
        result = _run("camdn-full", use_native=False)
        assert result.metrics.num_inferences == 8

    @needs_native
    def test_corrupt_cached_binary_rebuilds(self, tmp_path):
        """A truncated/garbage cached .so is invalidated and rebuilt
        once instead of degrading to the Python path.

        Runs in subprocesses: the recovery path is a *fresh* process
        finding corrupt bytes on disk — overwriting a shared object
        that is already dlopen'ed into this process would be undefined
        behaviour, not the scenario under test.
        """
        import subprocess
        import sys
        from pathlib import Path

        src = Path(native.__file__).parents[2]
        env = dict(os.environ)
        env["REPRO_NATIVE_CACHE"] = str(tmp_path)
        env["PYTHONPATH"] = str(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        code = (
            "from repro.sim import native; "
            "native.fused_step(); print(native.native_status())"
        )

        def status():
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        assert status().startswith("loaded")
        (so_path,) = tmp_path.glob("*.so")
        so_path.write_bytes(b"this is not a shared object")
        assert status().startswith("loaded")
        # The cache entry was rebuilt into a loadable binary.
        assert so_path.read_bytes()[:4] != b"this"


class TestNativeSwitch:
    """``use_native=False``, ``REPRO_NATIVE=0`` and a resume without
    native code make no native call, and step every event through the
    split pair."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"batch": 0, "step": 0}

        def counting(name, getter):
            def get():
                fn = getter()
                if fn is None:
                    return None

                def wrapper(*args):
                    counts[name] += 1
                    return fn(*args)

                return wrapper

            return get

        for name, attr in (("batch", "batch_loop"),
                           ("step", "fused_step")):
            monkeypatch.setattr(native, attr,
                                counting(name, getattr(native, attr)))
        return counts

    @pytest.fixture(params=("use_native", "REPRO_NATIVE"))
    def no_native(self, request):
        """``_run`` keywords of a run without native code: the engine
        switch, or the environment kill switch (the loader is reset so
        that it reads the variable, and reset again afterwards)."""
        if request.param == "use_native":
            yield {"use_native": False}
            return
        old = os.environ.get("REPRO_NATIVE")
        os.environ["REPRO_NATIVE"] = "0"
        native.reset_for_tests()
        try:
            yield {}
        finally:
            if old is None:
                del os.environ["REPRO_NATIVE"]
            else:
                os.environ["REPRO_NATIVE"] = old
            native.reset_for_tests()
            native.fused_step()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_use_native_false(self, calls, policy):
        _run(policy, use_native=False)
        assert calls == {"batch": 0, "step": 0}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_event_runs_split_pair(self, calls, no_native,
                                         monkeypatch, policy):
        """Each event is one ``RunningKernel.step``; a dynamic-rate
        policy runs ``_recompute_rates`` before every step of a busy
        kernel, and a static-rate one keeps its rates across the layer
        completions that leave the membership alone.  ``churn-ecc``
        also ends steps at tenant joins and leaves and at fault
        instants, with no completion to invalidate the rates."""
        log = []
        fresh = [False]
        recompute = MultiTenantEngine._recompute_rates
        step = RunningKernel.step

        def counting_recompute(engine):
            fresh[0] = True
            return recompute(engine)

        def counting_step(kernel, wait_dt):
            log.append((fresh[0], len(kernel.insts)))
            fresh[0] = False
            return step(kernel, wait_dt)

        monkeypatch.setattr(MultiTenantEngine, "_recompute_rates",
                            counting_recompute)
        monkeypatch.setattr(RunningKernel, "step", counting_step)
        spec, faults, soc = CAMDN_CASES["churn-ecc"]
        engine = MultiTenantEngine(soc, make_scheduler(policy),
                                   ScenarioWorkload(spec), faults=faults,
                                   **no_native)
        result = engine.run()
        assert calls == {"batch": 0, "step": 0}
        assert result.metrics.records
        assert len(log) == result.events_processed
        busy = [recomputed for recomputed, n in log if n]
        assert busy
        if make_scheduler(policy).dynamic_rates:
            assert all(busy)
        else:
            assert not all(busy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_resume_without_native(self, calls, policy):
        spec = ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "BE."),
                                        inferences=2)
        engine = MultiTenantEngine(SoCConfig(),
                                   make_scheduler(policy),
                                   ScenarioWorkload(spec))
        snapshot = engine.run(snapshot_at_events=200).last_snapshot
        calls.update(batch=0, step=0)
        snapshot.resume(use_native=False).resume_run()
        assert calls == {"batch": 0, "step": 0}

    @needs_native
    @pytest.mark.parametrize("policy", POLICIES)
    def test_default_path_is_native(self, calls, monkeypatch, policy):
        # The completion memos are process-wide: start from cold stores
        # so the run has CaMDN memo misses, which the C loop builds
        # through the scheduler's builder in the middle of a batch.
        callers = []
        build = CaMDNSchedulerBase._build_fast_pair

        def counting(self, instance, layer_index, code):
            frame = sys._getframe(1)
            while frame.f_code.co_name == "wrapper":  # calls' counter
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return build(self, instance, layer_index, code)

        monkeypatch.setattr(CaMDNSchedulerBase, "_build_fast_pair",
                            counting)
        clear_prepared_caches()
        _run(policy)
        assert calls["batch"] > 0
        # The engine steps no event through the one-event harness.
        assert calls["step"] == 0
        if policy in CAMDN_POLICIES:
            # Called from C: the nearest Python frame past the batch
            # loop's counter is the batch run.
            assert callers
            assert set(callers) == {"_batch_run"}
        else:
            assert not callers


@needs_native
class TestCompletionFastPath:
    """Most layer completions never reach the Python chain.

    The identity tests stay green when the batch loop silently declines
    everything (a type bail on every completion, a changed table
    layout); these tests do not.  CaMDN declines are last layers and
    denials (the loop builds its memo misses itself and takes the
    completions while waiters are pending); a silent fall-back sends
    every completion.
    """

    @staticmethod
    def _python_completions(scheduler):
        """Count the scheduler's non-final Python completions, each an
        ``on_layer_end`` followed by the next layer's ``begin_layer``,
        and the region-size changes across that ``begin_layer``."""
        counts = {"completions": 0, "resizes": 0}
        end, begin = scheduler.on_layer_end, scheduler.begin_layer
        ended = [None]

        def on_layer_end(inst, now):
            if inst.layer_index + 1 < len(inst.graph.layers):
                counts["completions"] += 1
                ended[0] = inst
            return end(inst, now)

        def begin_layer(inst, now):
            if ended[0] is not inst:
                return begin(inst, now)
            ended[0] = None
            region = inst.sched_ctx[1]
            pages = len(region.pcpns)
            out = begin(inst, now)
            counts["resizes"] += len(region.pcpns) != pages
            return out

        scheduler.on_layer_end = on_layer_end
        scheduler.begin_layer = begin_layer
        return counts

    def test_most_resizes_skip_python(self):
        """The batch loop resizes regions itself: of the completions
        whose grant changes the task's region size, only those sharing
        a Python completion pass with a last layer or a denial reach
        ``begin_layer``."""
        spec = ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "VT.") * 2,
                                        inferences=8)
        # A 4 MiB cache makes Algorithm 1 resize at most boundaries.
        soc = SoCConfig().with_cache_bytes(4 << 20)

        def python_resizes(use_native):
            scheduler = make_scheduler("camdn-full")
            counts = self._python_completions(scheduler)
            MultiTenantEngine(soc, scheduler,
                              ScenarioWorkload(spec),
                              use_native=use_native).run()
            return counts["resizes"]

        clear_prepared_caches()
        # Without native code every resizing completion calls it.
        total = python_resizes(False)
        assert total > 0
        assert python_resizes(None) < 0.25 * total

    def test_most_completions_skip_python(self):
        spec = ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "VT.") * 2,
                                        inferences=8)

        def python_completions(use_native):
            scheduler = make_scheduler("camdn-full")
            counts = self._python_completions(scheduler)
            MultiTenantEngine(SoCConfig(), scheduler,
                              ScenarioWorkload(spec),
                              use_native=use_native).run()
            return counts["completions"]

        # Without native code every non-final completion is one.
        total = python_completions(False)
        assert total > 0
        assert python_completions(None) < 0.25 * total

    def test_most_aurora_completions_skip_python(self):
        """The transparent-cache twin: the batch loop installs memoized
        layer works, so only first sights of a (model, contention
        factor, cores) layer and last layers reach ``begin_layer``."""
        spec = ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "VT.") * 2,
                                        inferences=8)

        def python_begins(use_native):
            scheduler = make_scheduler("aurora")
            begin = scheduler.begin_layer
            count = [0]

            def counting(inst, now):
                count[0] += 1
                return begin(inst, now)

            scheduler.begin_layer = counting
            MultiTenantEngine(SoCConfig(), scheduler,
                              ScenarioWorkload(spec),
                              use_native=use_native).run()
            return count[0]

        # Without native code every dispatch and non-final completion
        # calls it.
        total = python_begins(False)
        assert python_begins(None) < 0.25 * total


def _watch_python_passes(monkeypatch):
    """Classify the first completion of every Python completion pass
    that holds one: ``"last"`` (the task ends), or what ``begin_layer``
    then does with the next layer, ``"denied"`` or ``"granted"``.
    Returns the list the classes are appended to."""
    firsts = []
    pending = [None]
    process = MultiTenantEngine._process_completions
    begin = CaMDNSchedulerBase.begin_layer

    def process_completions(engine, finished_pos):
        if finished_pos:
            inst = engine._kernel.insts[finished_pos[0]]
            if inst.layer_index + 1 >= len(inst.graph.layers):
                firsts.append("last")
            else:
                pending[0] = inst
        return process(engine, finished_pos)

    def begin_layer(scheduler, inst, now):
        out = begin(scheduler, inst, now)
        if pending[0] is inst:
            pending[0] = None
            firsts.append("denied" if out[0] is None else "granted")
        return out

    monkeypatch.setattr(MultiTenantEngine, "_process_completions",
                        process_completions)
    monkeypatch.setattr(CaMDNSchedulerBase, "begin_layer", begin_layer)
    return firsts


@needs_native
class TestPythonPassesStartWithDeclines:
    """The batch loop takes every CaMDN completion it can: memo misses
    (through the scheduler's builder), region resizes and completions
    while waiters are pending.  So with native code the first
    completion of every Python completion pass is one the loop must
    decline, a last layer or a layer ``begin_layer`` denies; the rest
    of the pass follows it in order.  The cross-path tests cannot see a
    loop that declines too much, since the Python chain then produces
    the same results."""

    @pytest.mark.parametrize("case", sorted(CAMDN_CASES))
    @pytest.mark.parametrize("policy", CAMDN_POLICIES)
    def test_first_completion_is_declined(self, monkeypatch, policy,
                                          case):
        spec, faults, soc = CAMDN_CASES[case]
        firsts = _watch_python_passes(monkeypatch)
        # Cold stores: the run has memo misses for the loop to build.
        clear_prepared_caches()
        MultiTenantEngine(soc, make_scheduler(policy),
                          ScenarioWorkload(spec), faults=faults).run()
        assert "last" in firsts
        assert "granted" not in firsts

    def test_resume_from_cold_stores(self, monkeypatch):
        """A restored system's tasks started in another process: binding
        it builds their completion tables, so the loop takes their
        completions from the first batch of the resumed run."""
        spec, faults, soc = CAMDN_CASES["tight-cache"]
        clear_prepared_caches()
        engine = MultiTenantEngine(soc, make_scheduler("camdn-full"),
                                   ScenarioWorkload(spec), faults=faults)
        whole = engine.run(snapshot_at_events=2000)
        firsts = _watch_python_passes(monkeypatch)
        clear_prepared_caches()
        resumed = whole.last_snapshot.resume()
        assert _metrics_json(resumed.resume_run()) == _metrics_json(whole)
        assert "last" in firsts
        assert "granted" not in firsts


@needs_native
class TestWithheldTable:
    """The batch loop's own CaMDN completions against the Python chain
    under the same native stepping: with the completion table withheld
    (``native_batch_args`` returns ``None``) the loop hands every
    completion back, and the run must end exactly as when the loop
    takes them — memo misses built mid-batch (cold stores), resizes
    and completions while waiters are pending included."""

    @pytest.mark.parametrize("case", ("closed-loop", "tight-cache"))
    @pytest.mark.parametrize("policy", CAMDN_POLICIES)
    def test_withheld_table_agrees(self, policy, case):
        spec, faults, soc = CAMDN_CASES[case]

        def run(withhold):
            clear_prepared_caches()
            scheduler = make_scheduler(policy)
            if withhold:
                scheduler.native_batch_args = lambda: None
            engine = MultiTenantEngine(soc, scheduler,
                                       ScenarioWorkload(spec),
                                       faults=faults)
            return engine.run()

        handled, withheld = run(False), run(True)
        assert _metrics_json(withheld) == _metrics_json(handled)
        assert withheld.events_processed == handled.events_processed
        assert withheld.scheduler_stats == handled.scheduler_stats


@needs_native
class TestMemoBuilder:
    """The loop calls the scheduler's memo builder mid-batch; what the
    builder raises leaves ``engine.run()`` unchanged."""

    def test_builder_error_propagates(self, monkeypatch):
        class BuildError(Exception):
            pass

        def build(self, instance, layer_index, code):
            raise BuildError(layer_index)

        monkeypatch.setattr(CaMDNSchedulerBase, "_build_fast_pair", build)
        clear_prepared_caches()
        with pytest.raises(BuildError):
            _run("camdn-full")

    def test_builder_storing_nothing_raises(self, monkeypatch):
        monkeypatch.setattr(CaMDNSchedulerBase, "_build_fast_pair",
                            lambda self, instance, layer_index, code: None)
        clear_prepared_caches()
        with pytest.raises(RuntimeError, match="stored no entry"):
            _run("camdn-full")


@needs_native
class TestFusedStepBitIdentity:
    """The C step against the split pair it transcribes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_state_agrees(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.choice((0, 1, 2, 3, 8, 24, 100))
            rem_c = [rng.uniform(0.0, 5e4) for _ in range(n)]
            rem_d = [rng.uniform(0.0, 1e5) for _ in range(n)]
            wait_dt = rng.choice(
                (math.inf, rng.uniform(0.0, 1e-4), 0.0)
            )
            freq, bw = 1e9, 102.4e9
            eff = rng.choice((0.92, 0.775))
            floor = 0.02
            c_rem_c, c_rem_d = list(rem_c), list(rem_d)
            res_c = NATIVE(c_rem_c, c_rem_d, [], [], wait_dt, 1,
                           freq, bw, eff, floor)
            kernel, res_py = _split_step(rem_c, rem_d, wait_dt, 1, freq,
                                         bw, eff, floor)
            _assert_steps_agree(res_c, c_rem_c, c_rem_d, kernel, res_py)

    def test_static_mode_matches_kernel_step(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.choice((1, 2, 8, 30))
            rem_c = [rng.uniform(0.0, 5e4) for _ in range(n)]
            rem_d = [rng.uniform(0.0, 1e5) for _ in range(n)]
            rate_c = [1e9] * n
            rate_d = [max(rng.uniform(0.0, 2e10), 1e-6)
                      for _ in range(n)]
            wait_dt = rng.choice((math.inf, rng.uniform(0.0, 1e-4)))
            c_rem_c, c_rem_d = list(rem_c), list(rem_d)
            res_c = NATIVE(c_rem_c, c_rem_d, rate_c, rate_d, wait_dt,
                           0, 1e9, 102.4e9, 1.0, 0.0)
            kernel = RunningKernel()
            kernel.rem_c = list(rem_c)
            kernel.rem_d = list(rem_d)
            kernel.rate_c = list(rate_c)
            kernel.rate_d = list(rate_d)
            kernel.insts = [None] * n
            dt_py, fin_py = kernel.step(wait_dt)
            dt_c, fin_c = res_c
            assert repr(dt_c) == repr(dt_py)
            assert (fin_c or []) == fin_py
            if not math.isinf(dt_c):
                assert [x.hex() for x in c_rem_c] == \
                    [x.hex() for x in kernel.rem_c]
                assert [x.hex() for x in c_rem_d] == \
                    [x.hex() for x in kernel.rem_d]

    def test_non_float_items_fall_back(self):
        assert NATIVE([1, 2.0], [2.0, 3.0], [], [], math.inf, 1,
                      1e9, 1e9, 0.9, 0.02) is None


@needs_native
class TestFusedSlackBitIdentity:
    """The C slack modes against the split pair's share rules.

    Modes 2 (slack-weighted, AuRORA/CaMDN-QoS) and 3 (slack-throttled,
    MoCA with finite deadlines) over randomized fluid state and slack
    inputs — mixed finite/infinite deadlines, arbitrary progress, the
    ±20 clamp edges — asserting bit-identical dt, finished sets and
    in-place remaining-work updates.
    """

    @pytest.mark.parametrize("mode", (2, 3))
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_state_agrees(self, mode, seed):
        rng = random.Random(1000 * mode + seed)
        for _ in range(200):
            n = rng.choice((0, 1, 2, 3, 8, 24, 100))
            rem_c = [rng.uniform(0.0, 5e4) for _ in range(n)]
            rem_d = [rng.uniform(0.0, 1e5) for _ in range(n)]
            now = rng.uniform(0.0, 0.1)
            arrival = [rng.uniform(0.0, now) for _ in range(n)]
            qos = [rng.choice((math.inf,
                               rng.uniform(1e-5, 2e-2),
                               # Tiny targets push slack past the ±20
                               # clamp the weighted mode applies.
                               rng.uniform(1e-9, 1e-6)))
                   for _ in range(n)]
            est = [rng.uniform(1e-6, 5e-2) for _ in range(n)]
            progress = [rng.uniform(0.0, 1.0) for _ in range(n)]
            wait_dt = rng.choice(
                (math.inf, rng.uniform(0.0, 1e-4), 0.0)
            )
            freq, bw = 1e9, 102.4e9
            eff = rng.choice((0.92, 0.775))
            floor = rng.choice((0.02, 0.0))
            urgency = 3.0 if mode == 2 else 0.0
            c_rem_c, c_rem_d = list(rem_c), list(rem_d)
            res_c = NATIVE(c_rem_c, c_rem_d, [], [], wait_dt, mode,
                           freq, bw, eff, floor, list(arrival),
                           list(qos), list(est), list(progress), now,
                           urgency)
            kernel, res_py = _split_step(
                rem_c, rem_d, wait_dt, mode, freq, bw, eff, floor,
                (arrival, qos, est, progress), now, urgency,
            )
            _assert_steps_agree(res_c, c_rem_c, c_rem_d, kernel, res_py)

    def test_non_float_slack_items_fall_back(self):
        args = ([2.0], [3.0], [], [], math.inf, 2, 1e9, 1e9, 0.9, 0.02)
        good = ([0.0], [1.0], [0.01], [0.5], 0.0, 3.0)
        assert NATIVE(*args, *good) is not None
        for pos in range(4):
            bad = list(good)
            bad[pos] = [1]  # int, not float
            assert NATIVE(*args, *bad) is None

    def test_mismatched_slack_lengths_fall_back(self):
        assert NATIVE([2.0], [3.0], [], [], math.inf, 2,
                      1e9, 1e9, 0.9, 0.02,
                      [0.0, 0.0], [1.0], [0.01], [0.5], 0.0, 3.0) is None

    def test_slack_mode_requires_16_args(self):
        assert NATIVE([2.0], [3.0], [], [], math.inf, 2,
                      1e9, 1e9, 0.9, 0.02) is None


class TestEngineCrossPathIdentity:
    """Engine runs must agree with and without native code."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_native_vs_split(self, policy):
        with_native = _run(policy, use_native=None)
        without = _run(policy, use_native=False)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed

    @pytest.mark.parametrize(
        "policy", ("moca", "camdn-full", "aurora", "camdn-qos"))
    def test_qos_workload_agrees(self, policy):
        # Finite deadlines: MoCA's slack throttle wakes up
        # (rate_kernel flips to ("slack_throttled", floor)), aurora /
        # camdn-qos run the slack-weighted fused kernel, and aurora
        # multi-core grants engage.
        with_native = _run(policy, use_native=None, qos_scale=1.0)
        without = _run(policy, use_native=False, qos_scale=1.0)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed

    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos"))
    def test_slack_tenant_join_leave(self, policy):
        # QoS tenants joining and leaving mid-run resize the kernel's
        # slack SoA arrays inside active fused batches; both step paths
        # must stay in lockstep across the churn.
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="RS.", qos_scale=1.0, inferences=3,
                           arrival=ArrivalProcess.closed_loop()),
                StreamSpec(model="MB.", qos_scale=1.2, inferences=2,
                           arrival=ArrivalProcess.closed_loop(),
                           join_s=0.004),
                StreamSpec(model="EF.", qos_scale=1.0, inferences=6,
                           arrival=ArrivalProcess.closed_loop(),
                           join_s=0.002, leave_s=0.012),
            ),
        )

        def run(use_native=None):
            engine = MultiTenantEngine(
                SoCConfig(), make_scheduler(policy),
                ScenarioWorkload(spec), use_native=use_native,
            )
            return engine.run()

        with_native = run()
        without = run(use_native=False)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed

    @staticmethod
    def _assert_paths_agree(policy, case, warm, trace=False):
        """Native batch loop, and the Python split step with the
        Python completion chain: same summary, events, stats and
        mid-run snapshot.

        The completion memos are process-wide, so the path of the cold
        warm-up run (``warm``) creates the grants and works every later
        run installs: after a Python warm-up the C loop takes entries
        the Python chain created, and the other way round."""
        spec, faults, soc = CAMDN_CASES[case]
        use_native = {"native": None, "python": False}

        def run(path, at=None):
            engine = MultiTenantEngine(
                soc, make_scheduler(policy),
                ScenarioWorkload(spec), faults=faults,
                trace=TraceRecorder() if trace else None,
                use_native=use_native[path],
            )
            return engine.run(snapshot_at_events=at)

        # The first run fills the process-wide decision caches that
        # snapshots carry, so the runs below capture equal ones.
        clear_prepared_caches()
        at = run(warm).events_processed // 2
        native_run, python_run = run("native", at), run("python", at)
        assert native_run.last_snapshot is not None
        assert _metrics_json(python_run) == _metrics_json(native_run)
        assert python_run.events_processed == native_run.events_processed
        assert python_run.scheduler_stats == native_run.scheduler_stats
        assert python_run.last_snapshot.events_processed == \
            native_run.last_snapshot.events_processed
        assert _fused_view(python_run.last_snapshot) == \
            _fused_view(native_run.last_snapshot)
        _assert_slack_rebuilds(native_run.last_snapshot, policy, soc)

    @pytest.mark.parametrize("warm", WARM_PATHS)
    @pytest.mark.parametrize("case", sorted(CAMDN_CASES))
    @pytest.mark.parametrize("policy", CAMDN_POLICIES)
    def test_camdn_paths_agree(self, policy, case, warm):
        self._assert_paths_agree(policy, case, warm)

    @pytest.mark.parametrize("warm", WARM_PATHS)
    @pytest.mark.parametrize("case", sorted(CAMDN_CASES))
    @pytest.mark.parametrize("policy", TRANSPARENT_POLICIES)
    def test_transparent_cache_paths_agree(self, policy, case, warm):
        self._assert_paths_agree(policy, case, warm)

    @pytest.mark.parametrize("warm", WARM_PATHS)
    @pytest.mark.parametrize("policy", ("aurora", "camdn-full"))
    def test_traced_paths_agree(self, policy, warm):
        # With a TraceRecorder the batch loop hands every completion
        # back, so the spans (in the snapshot payload) match.
        self._assert_paths_agree(policy, "churn-ecc", warm, trace=True)

    def test_moca_mid_run_epoch_transition(self):
        # One deadline-carrying stream finishes early, flipping MoCA's
        # rule back to plain demand-proportional mid-run: the fused
        # batch must resume exactly where the split path would.
        spec = ScenarioSpec(
            streams=(
                StreamSpec(model="RS.", qos_scale=1.0, inferences=1,
                           arrival=ArrivalProcess.closed_loop()),
                StreamSpec(model="MB.", inferences=4,
                           arrival=ArrivalProcess.closed_loop()),
                StreamSpec(model="EF.", inferences=4,
                           arrival=ArrivalProcess.closed_loop()),
            ),
        )

        def run(use_native):
            scheduler = make_scheduler("moca")
            engine = MultiTenantEngine(
                SoCConfig(), scheduler, ScenarioWorkload(spec),
                use_native=use_native,
            )
            result = engine.run()
            # The rule changed twice: deadline task started, then ended.
            assert scheduler.rate_epoch == 2
            return result

        with_native = run(None)
        without = run(False)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed


class TestFuzzedCrossPathIdentity:
    """Cross-path agreement on fuzzed scenarios.

    The curated cases above pin known-tricky transitions; these drive
    the same two step paths over arbitrary generated specs —
    tenant churn, every arrival kind, and open-loop backlogs that drain
    past the window.  Budget scales with ``REPRO_FUZZ_EXAMPLES``
    (strategies live in :mod:`fuzz_scenarios`).
    """

    def _run_spec(self, spec, policy, *, use_native=None):
        engine = MultiTenantEngine(
            SoCConfig(),
            make_scheduler(policy),
            ScenarioWorkload(spec),
            use_native=use_native,
        )
        return engine.run()

    @_fuzz_settings
    @given(spec=scenario_specs())
    @pytest.mark.parametrize("policy", ("camdn-full", "moca",
                                        "camdn-qos"))
    def test_fuzzed_native_vs_split(self, spec, policy):
        with_native = self._run_spec(spec, policy, use_native=None)
        split = self._run_spec(spec, policy, use_native=False)
        assert with_native.events_processed == split.events_processed
        if with_native.metrics.records:
            assert _metrics_json(with_native) == _metrics_json(split), \
                dump_falsifying_spec(spec, policy, "native-vs-split")
        else:
            assert not split.metrics.records

    @_fuzz_settings
    @given(spec=count_mode_scenario_specs())
    @pytest.mark.parametrize("policy", ("camdn-full", "aurora"))
    def test_fuzzed_backlog_drain_native_vs_split(self, spec, policy):
        # Count-mode quotas force open-loop backlogs to drain fully
        # across whichever step implementation is active.
        with_native = self._run_spec(spec, policy, use_native=None)
        split = self._run_spec(spec, policy, use_native=False)
        assert with_native.offered_inferences == split.offered_inferences
        assert _metrics_json(with_native) == _metrics_json(split), \
            dump_falsifying_spec(spec, policy, "backlog-native-vs-split")


class TestFaultedSlackCrossPath:
    """Slack-kernel policies under fuzzed fault schedules.

    Fault actions (DRAM throttles, core outages, tenant stalls) cut
    fused batches at arbitrary instants and change the efficiency /
    capacity inputs between them; the slack-weighted native path must
    resume each batch exactly where the Python split path would.
    Fuzzed specs mix finite and infinite deadlines, so the same run
    crosses trivial (slack == 1.0) and active slack regimes.
    """

    @_fuzz_settings
    @given(spec=scenario_specs(), faults=fault_specs())
    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos"))
    def test_faulted_native_vs_split(self, spec, faults, policy):
        def run(use_native):
            engine = MultiTenantEngine(
                SoCConfig(), make_scheduler(policy),
                ScenarioWorkload(spec), faults=faults,
                use_native=use_native,
            )
            return engine.run(max_events=2_000_000)

        with_native = run(None)
        without = run(False)
        assert with_native.events_processed == without.events_processed
        if with_native.metrics.records:
            assert _metrics_json(with_native) == _metrics_json(without), \
                dump_falsifying_fault_case(spec, faults, policy,
                                           "slack-native-vs-python")
        else:
            assert not without.metrics.records
