"""Determinism regression tests for the simulation fast path.

Two identical ``repro.run()`` calls must produce byte-identical summaries,
whether the prepared-workload cache is cold or warm — the fast path may
never change results, only skip re-derivation.
"""

import json

import pytest

from repro import (
    ScenarioSpec,
    clear_prepared_caches,
    prepared_cache_info,
    run,
)

SCENARIO = ("RS.", "MB.", "BE.")


def _run(policy, **kwargs):
    # One warm-up inference per stream in count mode (steady-state
    # windows ignore it).
    spec = ScenarioSpec.closed_loop(SCENARIO, warmup_inferences=1, **kwargs)
    return run(spec, policy=policy)


def _summary_json(policy, **kwargs) -> str:
    # metric_summary() is the byte-identity surface: summary() adds the
    # wall-clock observability keys, which legitimately differ per run.
    return json.dumps(_run(policy, **kwargs).metric_summary(),
                      sort_keys=True)


class TestDeterminism:
    @pytest.mark.parametrize(
        "policy", ["baseline", "moca", "aurora", "camdn-hw", "camdn-full"]
    )
    def test_repeated_runs_byte_identical(self, policy):
        first = _summary_json(policy, inferences=2)
        second = _summary_json(policy, inferences=2)
        assert first == second

    def test_steady_state_runs_byte_identical(self):
        first = _summary_json("camdn-full", duration_s=0.05)
        second = _summary_json("camdn-full", duration_s=0.05)
        assert first == second

    def test_cold_and_warm_prepared_cache_byte_identical(self):
        clear_prepared_caches()
        cold = _summary_json("camdn-full", inferences=2)
        info = prepared_cache_info()
        assert info["workloads"].misses >= 1
        warm = _summary_json("camdn-full", inferences=2)
        assert cold == warm


class TestPreparedCacheReuse:
    def test_repeated_run_hits_prepared_cache(self):
        """The second identical run() must be served from the
        prepared-workload cache: workload hits grow, model misses don't."""
        clear_prepared_caches()
        _run("aurora", inferences=1)
        before = prepared_cache_info()
        assert before["workloads"].misses == 1
        assert before["models"].misses == len(SCENARIO)
        _run("aurora", inferences=1)
        after = prepared_cache_info()
        assert after["workloads"].hits == before["workloads"].hits + 1
        assert after["models"].misses == before["models"].misses

    def test_models_shared_across_policies(self):
        """A new policy over known models reuses every prepared model."""
        clear_prepared_caches()
        _run("aurora", inferences=1)
        misses_before = prepared_cache_info()["models"].misses
        _run("camdn-full", inferences=1)
        info = prepared_cache_info()
        assert info["models"].misses == misses_before
        assert info["workloads"].size == 2
