"""Native fused-step equivalence and loader behaviour.

The batch loop's three step implementations — native C fused step,
pure-Python fused step (:meth:`RunningKernel.fused_step_demand` /
:meth:`RunningKernel.fused_step_slack`) and the classic split
``_recompute_rates`` + ``kernel.step`` pair — must be bit-identical
across every rate-kernel mode (demand-proportional, slack-weighted,
slack-throttled); the committed reference suite pins the default path
and these tests pin the cross-path agreement, including MoCA's mid-run
rate epoch transitions, QoS tenant churn and fuzzed fault schedules.
With native code, every policy runs the C batch loop
(``_batchstep.batch_loop``), which also takes the layer completions of
the CaMDN policies and of the transparent-cache policies (baseline,
MoCA, AuRORA); it must leave results, scheduler stats and mid-run
snapshots exactly as the Python completion chain does, stay off
whenever the engine runs without native code, and actually take most
completions.
"""

import json
import math
import os
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from fuzz_faults import dump_falsifying_fault_case, fault_specs
from fuzz_scenarios import (
    count_mode_scenario_specs,
    dump_falsifying_spec,
    scenario_specs,
)
from repro.config import SoCConfig
from repro.schedulers import make_scheduler
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

#: Cross-path cases of the batch loop's completion tables: (scenario,
#: fault schedule, SoC).  ``churn-ecc`` retires pages mid-run, so
#: region resizes make the batch loop decline completions between
#: handled ones; ``qos-2core`` gives camdn-qos and AuRORA deadlines
#: tight enough for 2-core grants (memo keys with cores=2);
#: ``qos-throttle`` starts every MoCA task at the slack-0.5 throttle
#: threshold, so the shares depend on the layer progress the loop
#: writes back; ``odd-cores`` leaves 3 cores, so AuRORA runs one model
#: on 2 cores and on 1 in the same run.
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
    by step path by design: the split path's ``kernel_backend`` pin
    and applied rates (the fused paths derive rates inside each step
    and never store them), and the slack inputs only the fused slack
    modes track."""
    payload = _loads(snapshot.payload)
    payload["engine"]["kernel_backend"] = None
    kernel = payload["engine"]["kernel"]
    for key in ("rate_c", "rate_d", "slack_on", "sl_arrival", "sl_qos",
                "sl_est", "sl_progress"):
        kernel[key] = None
    return _dumps(payload)


def _run(policy_name, *, use_native=None, backend=None,
         keys=("RS.", "MB.", "EF.", "BE."), qos_scale=float("inf"),
         inferences=2):
    spec = ScenarioSpec.closed_loop(keys, inferences=inferences,
                                    qos_scale=qos_scale)
    engine = MultiTenantEngine(
        SoCConfig(),
        make_scheduler(policy_name),
        ScenarioWorkload(spec),
        kernel_backend=backend,
        use_native=use_native,
    )
    return engine.run()


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
    """``use_native=False``, the ``kernel_backend="list"`` pin and a
    resume without native code make no native call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"advance": 0, "batch": 0, "step": 0}

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

        for name, attr in (("advance", "camdn_advance"),
                           ("batch", "batch_loop"),
                           ("step", "fused_step")):
            monkeypatch.setattr(native, attr,
                                counting(name, getattr(native, attr)))
        return counts

    @pytest.mark.parametrize("policy", POLICIES)
    def test_use_native_false(self, calls, policy):
        _run(policy, use_native=False)
        assert calls == {"advance": 0, "batch": 0, "step": 0}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_list_pin(self, calls, policy):
        _run(policy, backend="list")
        assert calls == {"advance": 0, "batch": 0, "step": 0}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_resume_without_native(self, calls, policy):
        spec = ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "BE."),
                                        inferences=2)
        engine = MultiTenantEngine(SoCConfig(),
                                   make_scheduler(policy),
                                   ScenarioWorkload(spec))
        snapshot = engine.run(snapshot_at_events=200).last_snapshot
        calls.update(advance=0, batch=0, step=0)
        MultiTenantEngine.resume(snapshot, use_native=False).resume_run()
        assert calls == {"advance": 0, "batch": 0, "step": 0}

    @needs_native
    @pytest.mark.parametrize("policy", POLICIES)
    def test_default_path_is_native(self, calls, policy):
        _run(policy)
        assert calls["batch"] > 0
        # The engine steps no event through the one-event harness.
        assert calls["step"] == 0
        if policy in CAMDN_POLICIES:
            # Memo misses reach advance_layer's native branch.
            assert calls["advance"] > 0


@needs_native
class TestCompletionFastPath:
    """Most layer completions never reach the Python chain.

    The identity tests stay green when the batch loop silently declines
    everything (a type bail on every completion, a changed table
    layout); these tests do not.  CaMDN declines are last layers,
    resizes, denials, waiters and memo misses: 11.7 % of completions
    in fleet cells and 4.5 % in Figure 8 cells at seed 2025.  Here the
    first inference of each stream builds the memo, so 1 in 8
    completions (12.5 %) reaches Python; a silent fall-back sends all
    of them.
    """

    def test_most_completions_skip_python(self):
        spec = ScenarioSpec.closed_loop(("RS.", "MB.", "EF.", "VT.") * 2,
                                        inferences=8)

        def python_advances(use_native):
            scheduler = make_scheduler("camdn-full")
            advance = scheduler.advance_layer
            count = [0]

            def counting(inst, now):
                count[0] += 1
                return advance(inst, now)

            scheduler.advance_layer = counting
            MultiTenantEngine(SoCConfig(), scheduler,
                              ScenarioWorkload(spec),
                              use_native=use_native).run()
            return count[0]

        # Without native code every non-final completion calls it.
        total = python_advances(False)
        assert python_advances(None) < 0.25 * total

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


@needs_native
class TestFusedStepBitIdentity:
    """The C step against its documented pure-Python twin."""

    def _kernel_with(self, rem_c, rem_d):
        kernel = RunningKernel()
        # Install the fluid state directly: fused_step_demand only reads
        # the rem arrays (compute rate == freq by contract).
        kernel.rem_c = list(rem_c)
        kernel.rem_d = list(rem_d)
        kernel.insts = [None] * len(rem_c)
        return kernel

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
            kernel = self._kernel_with(rem_c, rem_d)
            res_py = kernel.fused_step_demand(wait_dt, freq, bw, eff,
                                              floor)
            if res_c is None:
                assert res_py is None
                continue
            dt_c, fin_c = res_c
            dt_py, fin_py = res_py
            assert repr(dt_c) == repr(dt_py)
            assert (fin_c or None) == (fin_py or None)
            assert [x.hex() for x in c_rem_c] == \
                [x.hex() for x in kernel.rem_c]
            assert [x.hex() for x in c_rem_d] == \
                [x.hex() for x in kernel.rem_d]

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
    """The C slack modes against :meth:`RunningKernel.fused_step_slack`.

    Modes 2 (slack-weighted, AuRORA/CaMDN-QoS) and 3 (slack-throttled,
    MoCA with finite deadlines) over randomized fluid state and slack
    inputs — mixed finite/infinite deadlines, arbitrary progress, the
    ±20 clamp edges — asserting bit-identical dt, finished sets and
    in-place remaining-work updates.
    """

    MODES = ((2, False), (3, True))

    def _kernel_with(self, rem_c, rem_d, arrival, qos, est, progress):
        kernel = RunningKernel()
        kernel.rem_c = list(rem_c)
        kernel.rem_d = list(rem_d)
        kernel.sl_arrival = list(arrival)
        kernel.sl_qos = list(qos)
        kernel.sl_est = list(est)
        kernel.sl_progress = list(progress)
        kernel.insts = [None] * len(rem_c)
        return kernel

    @pytest.mark.parametrize("mode,throttled", MODES)
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_state_agrees(self, mode, throttled, seed):
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
            kernel = self._kernel_with(rem_c, rem_d, arrival, qos, est,
                                       progress)
            res_py = kernel.fused_step_slack(wait_dt, freq, bw, eff,
                                             floor, urgency, now,
                                             throttled)
            if res_c is None:
                assert res_py is None
                continue
            dt_c, fin_c = res_c
            dt_py, fin_py = res_py
            assert repr(dt_c) == repr(dt_py)
            assert (fin_c or None) == (fin_py or None)
            assert [x.hex() for x in c_rem_c] == \
                [x.hex() for x in kernel.rem_c]
            assert [x.hex() for x in c_rem_d] == \
                [x.hex() for x in kernel.rem_d]

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
    """Engine runs must agree across native / python-fused / split."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_native_vs_python_fused(self, policy):
        with_native = _run(policy, use_native=None)
        without = _run(policy, use_native=False)
        assert _metrics_json(with_native) == _metrics_json(without)
        assert with_native.events_processed == without.events_processed

    @pytest.mark.parametrize("policy", ("camdn-full", "moca"))
    def test_python_fused_vs_split(self, policy):
        # A pinned kernel backend disables the fused path entirely, so
        # this compares the python fused step to the classic
        # _recompute_rates + kernel.step pair.
        fused = _run(policy, use_native=False)
        split = _run(policy, backend="list")
        assert _metrics_json(fused) == _metrics_json(split)
        assert fused.events_processed == split.events_processed

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

    @pytest.mark.parametrize("policy", ("moca", "aurora", "camdn-qos"))
    def test_qos_python_fused_vs_split(self, policy):
        # The pure-Python slack twin (fused_step_slack) against the
        # classic split pair under finite deadlines: pins the twin's
        # IEEE-754 transcription independently of the C path.
        fused = _run(policy, use_native=False, qos_scale=1.0)
        split = _run(policy, backend="list", qos_scale=1.0)
        assert _metrics_json(fused) == _metrics_json(split)
        assert fused.events_processed == split.events_processed

    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos"))
    def test_slack_tenant_join_leave(self, policy):
        # QoS tenants joining and leaving mid-run resize the kernel's
        # slack SoA arrays inside active fused batches; all three step
        # implementations must stay in lockstep across the churn.
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

        def run(use_native=None, backend=None):
            engine = MultiTenantEngine(
                SoCConfig(), make_scheduler(policy),
                ScenarioWorkload(spec),
                kernel_backend=backend, use_native=use_native,
            )
            return engine.run()

        with_native = run()
        without = run(use_native=False)
        split = run(backend="list")
        assert _metrics_json(with_native) == _metrics_json(without)
        assert _metrics_json(without) == _metrics_json(split)
        assert with_native.events_processed == split.events_processed

    @staticmethod
    def _assert_paths_agree(policy, case, paths=("native", "python",
                                                 "split"), trace=False):
        """Native batch loop, pure-Python completion chain and split
        step: same summary, events, stats and mid-run snapshot."""
        spec, faults, soc = CAMDN_CASES[case]
        options = {"native": {}, "python": {"use_native": False},
                   "split": {"kernel_backend": "list"}}

        def run(at=None, **paths):
            engine = MultiTenantEngine(
                soc, make_scheduler(policy),
                ScenarioWorkload(spec), faults=faults,
                trace=TraceRecorder() if trace else None, **paths,
            )
            return engine.run(snapshot_at_events=at)

        # The first run fills the process-wide decision caches that
        # snapshots carry, so the runs below capture equal ones.
        at = run().events_processed // 2
        results = {path: run(at, **options[path]) for path in paths}
        first = results["native"]
        assert first.last_snapshot is not None
        for result in results.values():
            assert _metrics_json(result) == _metrics_json(first)
            assert result.events_processed == first.events_processed
            assert result.scheduler_stats == first.scheduler_stats
            assert result.last_snapshot.events_processed == \
                first.last_snapshot.events_processed
        assert results["python"].last_snapshot.payload == \
            first.last_snapshot.payload
        if "split" in results:
            assert _fused_view(results["split"].last_snapshot) == \
                _fused_view(first.last_snapshot)

    @pytest.mark.parametrize("case", sorted(CAMDN_CASES))
    @pytest.mark.parametrize("policy", CAMDN_POLICIES)
    def test_camdn_paths_agree(self, policy, case):
        self._assert_paths_agree(policy, case)

    @pytest.mark.parametrize("case", sorted(CAMDN_CASES))
    @pytest.mark.parametrize("policy", TRANSPARENT_POLICIES)
    def test_transparent_cache_paths_agree(self, policy, case):
        self._assert_paths_agree(policy, case)

    @pytest.mark.parametrize("policy", ("aurora", "camdn-full"))
    def test_traced_paths_agree(self, policy):
        # With a TraceRecorder the batch loop hands every completion
        # back, so the spans (in the snapshot payload) match.
        self._assert_paths_agree(policy, "churn-ecc",
                                 paths=("native", "python"), trace=True)

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
    the same three step implementations over arbitrary generated specs —
    tenant churn, every arrival kind, and open-loop backlogs that drain
    past the window.  Budget scales with ``REPRO_FUZZ_EXAMPLES``
    (strategies live in :mod:`fuzz_scenarios`).
    """

    def _run_spec(self, spec, policy, *, use_native=None, backend=None):
        engine = MultiTenantEngine(
            SoCConfig(),
            make_scheduler(policy),
            ScenarioWorkload(spec),
            kernel_backend=backend,
            use_native=use_native,
        )
        return engine.run()

    @_fuzz_settings
    @given(spec=scenario_specs())
    @pytest.mark.parametrize("policy", ("camdn-full", "moca",
                                        "camdn-qos"))
    def test_fuzzed_python_fused_vs_split(self, spec, policy):
        fused = self._run_spec(spec, policy, use_native=False)
        split = self._run_spec(spec, policy, backend="list")
        assert fused.events_processed == split.events_processed
        if fused.metrics.records:
            assert _metrics_json(fused) == _metrics_json(split), \
                dump_falsifying_spec(spec, policy, "fused-vs-split")
        else:
            assert not split.metrics.records

    @_fuzz_settings
    @given(spec=count_mode_scenario_specs())
    @pytest.mark.parametrize("policy", ("camdn-full", "aurora"))
    def test_fuzzed_backlog_drain_native_vs_split(self, spec, policy):
        # Count-mode quotas force open-loop backlogs to drain fully
        # across whichever step implementation is active.
        with_native = self._run_spec(spec, policy, use_native=None)
        split = self._run_spec(spec, policy, backend="list")
        assert with_native.offered_inferences == split.offered_inferences
        assert _metrics_json(with_native) == _metrics_json(split), \
            dump_falsifying_spec(spec, policy, "backlog-native-vs-split")


class TestFaultedSlackCrossPath:
    """Slack-kernel policies under fuzzed fault schedules.

    Fault actions (DRAM throttles, core outages, tenant stalls) cut
    fused batches at arbitrary instants and change the efficiency /
    capacity inputs between them; the slack-weighted native path must
    resume each batch exactly where the pure-Python twin would.
    Fuzzed specs mix finite and infinite deadlines, so the same run
    crosses trivial (slack == 1.0) and active slack regimes.
    """

    @_fuzz_settings
    @given(spec=scenario_specs(), faults=fault_specs())
    @pytest.mark.parametrize("policy", ("aurora", "camdn-qos"))
    def test_faulted_native_vs_python_fused(self, spec, faults, policy):
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
