"""Determinism regression tests for the simulation fast path.

Two identical ``repro.run()`` calls must produce byte-identical summaries,
whether the prepared-workload cache is cold or warm — the fast path may
never change results, only skip re-derivation.
"""

import json
from collections import Counter

import pytest

from repro import (
    ScenarioSpec,
    clear_prepared_caches,
    prepare_model,
    prepared_cache_info,
    run,
)
from repro.config import NPUConfig, SoCConfig
from repro.schedulers.camdn_common import CaMDNSchedulerBase
from repro.schedulers.shared_baseline import SharedCacheBaseline
from repro.sim import native

SCENARIO = ("RS.", "MB.", "BE.")

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full",
            "camdn-qos")


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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cold_and_warm_prepared_cache_byte_identical(self, policy):
        clear_prepared_caches()
        cold = _summary_json(policy, inferences=2)
        info = prepared_cache_info()
        assert info["workloads"].misses >= 1
        warm = _summary_json(policy, inferences=2)
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

    def test_only_transparent_cache_policies_build_segments(
            self, monkeypatch):
        """The access segments are read by the shared-cache policies
        only: a camdn-full run builds none, and a baseline run builds
        them once per model, which MoCA then shares."""
        from repro.core import prepared

        built = Counter()
        build = prepared._build_segments

        def counting(graph, mapping_file, soc):
            built[graph.name] += 1
            return build(graph, mapping_file, soc)

        monkeypatch.setattr(prepared, "_build_segments", counting)
        clear_prepared_caches()
        _run("camdn-full", inferences=2)
        assert not built
        assert not any("segments" in vars(prepare_model(key))
                       for key in SCENARIO)
        _run("baseline", inferences=2)
        _run("moca", inferences=2)
        assert sorted(built.values()) == [1] * len(SCENARIO)


def _mix_summaries(policies, soc=None, keys=("RS.", "MB.", "EF.", "BE."),
                   **kwargs):
    spec = ScenarioSpec.closed_loop(keys, inferences=2, **kwargs)
    return {
        policy: json.dumps(run(spec, soc, policy).metric_summary(),
                           sort_keys=True)
        for policy in policies
    }


class TestProcessWideMemos:
    """The completion memos (CaMDN grants, layer works and native
    completion tables; the transparent-cache layer works) live per
    process, keyed by the SoC and, for the CaMDN tables, the HW-only
    flag.  A later cell reuses what an earlier one built, and never an
    entry of another SoC or mode."""

    def test_warm_process_builds_no_memo_entry(self, monkeypatch):
        counts = Counter()

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(CaMDNSchedulerBase, "_build_fast_pair")
        counting(CaMDNSchedulerBase, "_build_fast_file")
        begin = SharedCacheBaseline.begin_layer

        def begin_layer(self, instance, now):
            works = self._work_memo.get(
                (instance.graph.name, self.contention_factor(),
                 instance.cores))
            hit = works is not None and \
                works[instance.layer_index] is not None
            counts["begin_hit" if hit else "begin_miss"] += 1
            return begin(self, instance, now)

        monkeypatch.setattr(SharedCacheBaseline, "begin_layer",
                            begin_layer)
        clear_prepared_caches()
        policies = ("camdn-full", "aurora")
        first = _mix_summaries(policies)
        if native.batch_loop() is not None:
            assert counts["_build_fast_pair"] > 0
            assert counts["_build_fast_file"] > 0
        assert counts["begin_miss"] > 0
        counts.clear()
        # run() builds a fresh scheduler for every call.
        assert _mix_summaries(policies) == first
        assert counts["_build_fast_pair"] == 0
        assert counts["_build_fast_file"] == 0
        assert counts["begin_miss"] == 0
        assert counts["begin_hit"] > 0

    def test_soc_key(self):
        """A SoC that differs only in ``dwconv_efficiency`` gets its own
        mapping files (the field sets the candidates' compute cycles)
        and layer works."""
        dw = SoCConfig(npu=NPUConfig(dwconv_efficiency=0.5))
        assert prepare_model("MB.", dw).mapping_file is not \
            prepare_model("MB.", SoCConfig()).mapping_file
        policies = ("camdn-full", "aurora")
        keys = ("MB.", "EF.")
        clear_prepared_caches()
        table2 = _mix_summaries(policies, keys=keys)
        warm = _mix_summaries(policies, dw, keys=keys)
        clear_prepared_caches()
        cold = _mix_summaries(policies, dw, keys=keys)
        assert warm == cold
        for policy in policies:
            assert cold[policy] != table2[policy]

    @pytest.mark.parametrize("order", [("camdn-hw", "camdn-full"),
                                       ("camdn-full", "camdn-hw")])
    def test_mode_key(self, order):
        """HW-only and Full read one mapping file through different
        decisions for the same selection code.  Twelve tenants on a
        4 MiB cache make both modes pick small LWM candidates, where a
        code names a different candidate (and work) in each mode."""
        soc = SoCConfig().with_cache_bytes(4 << 20)
        keys = ("RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP.",
                "RS.", "MB.", "EF.", "VT.")
        cold = {}
        for policy in order:
            clear_prepared_caches()
            cold.update(_mix_summaries((policy,), soc, keys=keys))
        clear_prepared_caches()
        assert _mix_summaries(order, soc, keys=keys) == cold
