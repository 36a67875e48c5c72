"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the root of
the checkout.  The file name keeps these tests out of the repository's
own test collection: the smoke runs spawn real benchmark processes.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

ROOT = run.ROOT


@pytest.fixture
def program(monkeypatch, tmp_path):
    """The program under test, imported in-process with its on-disk
    caches under ``tmp_path``."""
    for var, sub in (("REPRO_MAPPING_CACHE_DIR", "mappings"),
                     ("REPRO_SWEEP_CACHE_DIR", "sweeps"),
                     ("XDG_CACHE_HOME", "xdg")):
        monkeypatch.setenv(var, str(tmp_path / sub))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(run.BUILD / "native"))
    monkeypatch.syspath_prepend(str(run.SRC))
    import repro

    return repro


def _tiny_result(repro):
    scenario = repro.ScenarioSpec.closed_loop(
        ("MB.",), duration_s=0.4, warmup_s=0.08)
    return repro.run(scenario, policy="baseline", scale=0.1)


# -- span arithmetic ----------------------------------------------------

def test_self_times_on_synthetic_span_tree():
    tree = [
        [0, -1, "a", 0.0, 10.0, None],
        [1, 0, "b", 1.0, 4.0, None],
        [2, 1, "c", 2.0, 3.0, None],
        [3, 0, "b", 5.0, 6.0, None],
        [4, 3, "b", 5.2, 5.5, None],
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 0.7,
                                                    0.3])
    summary = spans.span_summary(tree)
    # The recursive b inside b counts as a call but not twice in time.
    assert summary["b"]["calls"] == 3
    assert summary["b"]["s"] == pytest.approx(4.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert summary["a"] == pytest.approx(
        {"calls": 1, "s": 10.0, "self_s": 6.0})


def test_tracer_records_parents_and_attrs():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner", attrs=lambda r: {"r": r})
    outer = tracer.wrap(lambda: inner(1) + inner(2), "outer")
    assert outer() == 5
    names = [(s[0], s[1], s[2], s[5]) for s in tracer.spans]
    assert names == [(0, -1, "outer", None), (1, 0, "inner", {"r": 2}),
                     (2, 0, "inner", {"r": 3})]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_install_reports_missing_targets():
    tracer = spans.Tracer()
    missing = tracer.install(targets=(
        ("json", "no_such_function", "x"),
        ("no_such_module_here", "f", "y"),
    ))
    assert len(missing) == 2 and not tracer.spans


# -- output checks ------------------------------------------------------

def _iteration(fingerprints, errors=()):
    op = {"fingerprints": fingerprints, "errors": list(errors),
          "op_s": 1.0}
    return {"traced": False, "pass1": op, "pass2": []}


def test_output_check_flags_perturbed_summary(program):
    result = _tiny_result(program)
    clean = workloads.Outcome()
    clean.check("run", result)
    record = result.metrics.records[0]
    result.metrics.records[0] = dataclasses.replace(
        record, latency_s=record.latency_s * (1 + 1e-12))
    perturbed = workloads.Outcome()
    perturbed.check("run", result)
    assert clean.errors == perturbed.errors == []
    assert perturbed.fingerprints != clean.fingerprints

    iterations = [_iteration(clean.fingerprints),
                  _iteration(perturbed.fingerprints)]
    problems = run.judge(iterations, None)
    assert [it["pass1"]["ok"] for it in iterations] == [True, False]
    assert problems == ["fingerprint mismatch in 1 outputs: run"]
    # Against a reference, the clean run also fails if it differs.
    assert run.judge([_iteration(clean.fingerprints)],
                     perturbed.fingerprints)


def test_conservation_violation_fails_the_op(program):
    result = _tiny_result(program)
    result.offered_inferences += 1
    out = workloads.Outcome()
    out.check("run", result)
    assert out.errors and "conservation" in out.errors[0]
    iterations = [_iteration(out.fingerprints, out.errors)]
    run.judge(iterations, None)
    assert iterations[0]["pass1"]["ok"] is False


def test_cell_that_raises_is_counted_failed(program):
    from repro.experiments.sweep import SweepCell, run_sweep

    cells = [SweepCell(policy="baseline", model_keys=("MB.",), scale=0.1),
             SweepCell(policy="no-such-policy", model_keys=("MB.",),
                       scale=0.1)]
    results = run_sweep(cells, max_workers=1, use_cache=False)
    out = workloads.Outcome()
    for i, result in enumerate(results):
        out.check(f"cell{i}", result)
    workloads._record_fresh(out, "sweep", results, workloads.sweep_stats())
    assert out.errors == ["cell1: cell failed"]
    layers = run.op_layers({"runs": out.runs})
    assert layers["sweep.failed_cells"] == 1
    assert layers["sweep.cells"] == 1
    iterations = [_iteration(out.fingerprints, out.errors)]
    run.judge(iterations, None)
    assert iterations[0]["pass1"]["ok"] is False


def test_times_scale_with_the_nearest_probes():
    harness = run.Harness("tiny")
    ref = run.PROBE_REF_S
    # The host runs at half speed for the first third of the run and at
    # the reference speed after.  Set-up and pass-2 times take the
    # probes nearest to them; pass-1 times take the whole run's median.
    harness.probes = [[2 * ref, 2 * ref]] * 4 + [[ref, ref]] * 8
    first = {"ok": True, "op_s": 10.0, "setup_s": 0.4, "maxrss_kb": 2048,
             "probe_index": 4}
    second = dict(first, op_s=1.0, probe_index=9)
    iterations = [{"traced": False, "pass1": first, "pass2": [second]}]
    assert run.end_to_end(harness, iterations) == pytest.approx(
        {"setup_s": (0.4 / 1.5 + 0.4) / 2, "peak_rss_mb": 2.0,
         "run_s": 10.0, "rerun_s": 1.0})
    assert run.end_to_end(harness, iterations, scaled=False) == \
        pytest.approx({"setup_s": 0.4, "peak_rss_mb": 2.0, "run_s": 10.0,
                       "rerun_s": 1.0})


# -- configuration ------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert [w["name"] for w in config["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == \
        run.PER_LAYER
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in config["end_to_end"] + config["per_layer"]:
        assert name.match(metric["name"])
        assert metric["better"] in ("higher", "lower")
    for metric in config["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])
    reference = json.loads(run.REFERENCE.read_text("utf-8"))
    assert sorted(reference) == sorted(workloads.WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-start",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- smoke runs ---------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_at_tiny_size(workload, trace):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * run.PASS1_OPS[0]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
