"""Tests for the package-level public API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import ScenarioSpec, SoCConfig, run
from repro.errors import ReproError
from repro.experiments import runner


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_does_not_load_numpy(self):
        """``import repro`` pulls in no third-party packages: the
        engine kernel is plain Python lists (plus the optional native
        stepper), so a fresh process never pays for numpy."""
        src = Path(repro.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('numpy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "False"

    def test_run_leaves_the_experiment_harnesses_unloaded(self):
        """``repro.run`` imports only ``repro.experiments.common``: the
        sweep (with its process pool and logging) and the figure
        modules load when first named, as the package re-exports do."""
        src = Path(repro.__file__).resolve().parents[1]
        unloaded = [
            "repro.experiments.sweep",
            "repro.experiments.fig2_motivation",
            "repro.experiments.fig3_reuse",
            "repro.experiments.fig7_speedup",
            "repro.experiments.fig8_scaling",
            "repro.experiments.fig9_qos",
            "repro.experiments.table3_area",
            "multiprocessing",
            "concurrent.futures.process",
            "logging",
        ]
        script = "\n".join([
            "import sys, repro",
            "spec = repro.ScenarioSpec.closed_loop(['MB.'], inferences=1)",
            "repro.run(spec, policy='camdn-full')",
            f"print([m for m in {unloaded!r} if m in sys.modules])",
            "from repro.experiments import run_fig7, sweep",
            "print(run_fig7.__module__, sweep.__name__)",
        ])
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src),
                 "REPRO_MAPPING_CACHE_DIR": ""},
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out == [
            "[]", "repro.experiments.fig7_speedup repro.experiments.sweep"]

    def test_error_hierarchy(self):
        from repro.errors import (
            ConfigError,
            MappingError,
            ModelGraphError,
            PageAllocationError,
            SimulationError,
            WorkloadError,
        )

        for exc in (ConfigError, MappingError, PageAllocationError,
                    SimulationError, WorkloadError, ModelGraphError):
            assert issubclass(exc, ReproError)


class TestStableFacade:
    """PR 10: ``repro.run`` / ``repro.run_fleet`` / ``RunConfig`` — the
    one import surface examples and downstream users rely on."""

    def test_run_by_scenario_name(self):
        from repro import RunConfig, run

        result = run("steady-quad", policy="baseline",
                     config=RunConfig(max_wall_s=600.0))
        assert result.metrics.num_inferences > 0

    def test_run_defaults(self):
        from repro import run

        result = run("steady-quad")
        assert result.metrics.num_inferences > 0

    def test_run_scale_shortens_the_scenario(self):
        """``scale=`` mirrors the runner's ``--scale`` and matches
        scaling the spec by hand, byte for byte."""
        from repro import get_scenario, run
        from repro.experiments.common import run_scenario

        scaled = run("steady-quad", scale=0.1, policy="camdn-qos")
        by_hand = run_scenario(get_scenario("steady-quad").scaled(0.1),
                               policy="camdn-qos")
        assert scaled.metric_summary() == by_hand.metric_summary()

    def test_fleet_types_importable_from_root(self):
        from repro import (
            DeviceClass,
            FleetAccumulator,
            FleetResult,
            FleetSpec,
            QuantileDigest,
            ScenarioDraw,
        )

        spec = FleetSpec(devices=2, scale=0.25)
        assert spec.num_cells == 2
        assert FleetResult is not None
        assert DeviceClass and ScenarioDraw
        assert FleetAccumulator and QuantileDigest

    def test_run_fleet_facade(self):
        from repro import FleetSpec, ScenarioDraw, run_fleet

        spec = FleetSpec(
            devices=2, policy="baseline",
            scenario_draws=(ScenarioDraw(scenario="steady-quad"),),
            scale=0.1,
        )
        result = run_fleet(spec, max_workers=1, use_cache=False)
        assert result.fleet_summary()["devices"] == 2

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name


class TestRunClosedLoop:
    """The paper's closed-loop workload through the one run entry
    point: ``run(ScenarioSpec.closed_loop(...), policy=...)``."""

    def test_count_mode(self):
        result = run(ScenarioSpec.closed_loop(["MB."], inferences=2,
                                              warmup_inferences=1),
                     policy="camdn-full")
        assert result.metrics.num_inferences == 2

    def test_steady_state_mode(self):
        spec = ScenarioSpec.closed_loop(["MB.", "EF."], duration_s=0.02,
                                        warmup_s=0.005)
        assert run(spec, policy="baseline").metrics.num_inferences > 0

    def test_custom_soc(self):
        from repro import MiB

        soc = SoCConfig().with_cache_bytes(4 * MiB)
        result = run(ScenarioSpec.closed_loop(["MB."], inferences=1),
                     soc=soc)
        assert result.metrics.num_inferences == 1

    def test_policy_kwargs_forwarded(self):
        result = run(ScenarioSpec.closed_loop(["MB."], inferences=1),
                     policy="camdn-full", qos_mode=True)
        # The QoS integration reports its own row name — proof the
        # kwarg reached the scheduler.
        assert result.scheduler_name == "camdn-qos"

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            run(ScenarioSpec.closed_loop(["MB."]), policy="magic")

    def test_qos_scale_sets_deadlines(self):
        spec = ScenarioSpec.closed_loop(["MB."], inferences=1,
                                        qos_scale=1.0)
        record = run(spec, policy="camdn-full").metrics.records[0]
        assert record.qos_target_s == pytest.approx(2.8e-3)

    def test_simulate_is_gone(self):
        """``run`` is the one entry point; the old ``simulate`` helper
        beside it was removed in 1.9.0."""
        with pytest.raises(AttributeError):
            repro.simulate


#: Output every runner experiment must print, beyond exiting 0.
RUNNER_OUTPUT = {"table3": "Table III", "fig3": "reuse",
                 "ablation": "Ablation"}


class TestRunnerCLI:
    @pytest.mark.parametrize("name", sorted(runner.EXPERIMENTS))
    def test_experiment_smoke(self, name, capsys):
        """Every runner experiment completes at a tiny scale on the
        serial path with the sweep cache bypassed."""
        assert runner.main(
            [name, "--scale", "0.02", "--jobs", "1", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert f"[{name} regenerated in" in out
        assert RUNNER_OUTPUT.get(name, "") in out

    def test_profile_reaches_allocator_frames(self, tmp_path, capsys):
        """``--profile`` on a ``--scenario`` run profiles through
        ``run_scenario`` in-process: the pstats dump must contain the
        engine event loop and the CaMDN completion-chain / allocator
        frames — not just the sweep parent."""
        import pstats

        from repro.experiments.runner import main

        prof = tmp_path / "prof.pstats"
        trace = tmp_path / "run.trace.json"
        assert main(["--scenario", "steady-quad", "--scale", "0.25",
                     "--policy", "camdn-full",
                     "--capture-trace", str(trace),
                     "--profile", str(prof)]) == 0
        assert prof.exists()
        files = {
            frame[0] for frame in pstats.Stats(str(prof)).stats
        }
        assert any(f.endswith("allocator.py") for f in files), \
            "allocator frames missing from the profile"
        assert any(f.endswith("engine.py") for f in files)
        assert "profile written to" in capsys.readouterr().out


EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Examples that run the closed-loop workload through ``repro.run``;
#: each takes about a second with a warm mapping cache.
RUN_EXAMPLES = ("quickstart", "qos_deadlines", "cache_contention_study",
                "execution_timeline")


class TestExamples:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_example_imports(self, path):
        """Every example imports cleanly (``main()`` sits behind a
        ``__main__`` guard), so removing a public name an example still
        uses fails here rather than in a user's hands."""
        spec = importlib.util.spec_from_file_location(
            f"example_{path.stem}", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)

    @pytest.mark.parametrize("name", RUN_EXAMPLES)
    def test_example_runs(self, name):
        """The example runs end to end with its default arguments, so a
        call that breaks only at run time fails here too."""
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
