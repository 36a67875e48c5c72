"""Fleet execution: population percentiles, parallel determinism, CLI.

The fleet promise, stated as tests: a fleet's population summary is a
pure function of its spec — identical under any worker count and shard
size, equal to a brute-force single-process reference that never
touches the digest machinery, and reachable through the ``--fleet``
CLI with the same bytes.
"""

import json
import math

import pytest

from repro.config import SoCConfig
from repro.errors import WorkloadError
from repro.experiments import sweep
from repro.fleet import (
    DeviceClass,
    FleetAccumulator,
    FleetSpec,
    ScenarioDraw,
)
from repro.fleet.aggregate import FLEET_AXES, aggregate_summaries
from repro.fleet.runner import run_fleet

pytestmark = pytest.mark.experiment


def small_fleet(devices=6, mc_runs=1, policy="camdn-full") -> FleetSpec:
    return FleetSpec(
        devices=devices,
        policy=policy,
        device_classes=(
            DeviceClass(name="table2", weight=2.0),
            DeviceClass(name="budget", weight=1.0,
                        cache_bytes=2 * (1 << 20)),
        ),
        scenario_draws=(
            ScenarioDraw(scenario="steady-quad", weight=2.0),
            ScenarioDraw(scenario="poisson-eight", weight=1.0,
                         arrival_scale=0.5),
        ),
        mc_runs=mc_runs,
        scale=0.1,
        seed=11,
    )


def summary_bytes(result) -> str:
    return json.dumps(result.fleet_summary(), sort_keys=True)


def brute_force_summaries(spec: FleetSpec):
    """Single-process reference: every cell simulated directly through
    the sweep's cell runner — no pool, no shards, no digests."""
    soc = SoCConfig()
    return [
        sweep._run_cell((cell, soc, None)).summary()
        for cell in spec.expand()
    ]


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestFleetDeterminism:
    def test_serial_and_parallel_fleets_agree_byte_identically(self):
        spec = small_fleet()
        serial = run_fleet(spec, max_workers=1, use_cache=False)
        parallel = run_fleet(spec, max_workers=2, use_cache=False,
                             shard_size=2)
        assert summary_bytes(serial) == summary_bytes(parallel)
        assert serial.completed_devices == spec.num_cells
        assert serial.failures == []

    def test_shard_size_never_changes_the_answer(self):
        spec = small_fleet(devices=5)
        unsharded = run_fleet(spec, max_workers=2, use_cache=False,
                              shard_size=None)
        sharded = run_fleet(spec, max_workers=2, use_cache=False,
                            shard_size=3)
        assert summary_bytes(unsharded) == summary_bytes(sharded)

    def test_percentiles_match_brute_force_reference(self):
        """The digested population stats equal nearest-rank percentiles
        computed from raw per-device summaries (exact: a small fleet
        never exceeds the bin budget)."""
        spec = small_fleet(devices=8)
        fleet = run_fleet(spec, max_workers=1, use_cache=False)
        summaries = brute_force_summaries(spec)
        got = fleet.fleet_summary()
        assert got["devices"] == len(summaries)
        assert got["inferences"] == sum(
            int(s["inferences"]) for s in summaries
        )
        for axis, key in FLEET_AXES:
            values = [float(s[key]) for s in summaries]
            assert got[axis]["p50"] == nearest_rank(values, 0.5)
            assert got[axis]["p95"] == nearest_rank(values, 0.95)
            assert got[axis]["p99"] == nearest_rank(values, 0.99)
            assert got[axis]["mean"] == pytest.approx(
                sum(values) / len(values)
            )

    def test_mc_replicas_widen_the_population(self):
        spec = small_fleet(devices=3, mc_runs=2)
        fleet = run_fleet(spec, max_workers=1, use_cache=False)
        assert fleet.completed_devices == 6


@pytest.mark.slow
class TestLargeFleet:
    def test_200_device_fleet_parallel_matches_serial(self):
        """The acceptance fleet: 200 devices, byte-identical population
        summary under ``--jobs 1`` and a parallel sharded run."""
        spec = FleetSpec(
            devices=200,
            policy="camdn-full",
            scenario_draws=(ScenarioDraw(scenario="steady-quad"),),
            scale=0.1,
            seed=2025,
        )
        serial = run_fleet(spec, max_workers=1, use_cache=False)
        parallel = run_fleet(spec, max_workers=4, use_cache=False,
                             shard_size=16)
        assert summary_bytes(serial) == summary_bytes(parallel)
        assert serial.completed_devices == 200


class TestAccumulator:
    def _summaries(self, n=10):
        return [
            {
                "inferences": 10 + i,
                "qos_violations": i % 3,
                "avg_latency_ms": 5.0 + i,
                "p99_latency_ms": 9.0 + i,
                "hit_rate": 0.5 + i / 100.0,
                "avg_queue_delay_ms": 0.1 * i,
            }
            for i in range(n)
        ]

    def test_merge_equals_sequential_fold(self):
        summaries = self._summaries(12)
        sequential = aggregate_summaries(summaries)
        merged = FleetAccumulator()
        for lo in range(0, 12, 4):
            merged.merge(aggregate_summaries(summaries[lo:lo + 4]))
        assert json.dumps(merged.fleet_summary(), sort_keys=True) == \
            json.dumps(sequential.fleet_summary(), sort_keys=True)

    def test_round_trip(self):
        acc = aggregate_summaries(self._summaries())
        again = FleetAccumulator.from_dict(
            json.loads(json.dumps(acc.to_dict()))
        )
        assert again.fleet_summary() == acc.fleet_summary()

    def test_fold_rejects_foreign_dicts(self):
        with pytest.raises(WorkloadError, match="missing keys"):
            FleetAccumulator().fold({"latency": 1.0})

    def test_empty_accumulator_summary(self):
        summary = FleetAccumulator().fleet_summary()
        assert summary["devices"] == 0
        assert summary["qos_violation_rate"] == 0.0
        assert summary["latency_ms"] is None

    def test_unknown_axis_rejected(self):
        with pytest.raises(WorkloadError, match="unknown fleet axis"):
            FleetAccumulator().digest("no-such-axis")

    def test_violation_rate(self):
        acc = aggregate_summaries(self._summaries(3))
        assert acc.qos_violation_rate() == pytest.approx(
            (0 + 1 + 2) / (10 + 11 + 12)
        )


class TestFleetCLI:
    def test_fleet_flag_runs_and_prints_population_json(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "")
        spec_file = tmp_path / "fleet.json"
        spec_file.write_text(json.dumps(small_fleet(devices=3).to_dict()))
        assert main(["--fleet", str(spec_file), "--jobs", "1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines()
                   if ln.startswith('{"fleet"')]
        population = json.loads(line)["fleet"]
        assert population["devices"] == 3
        assert set(dict(FLEET_AXES)) <= set(population)

    def test_fleet_with_resume_is_rejected(self, tmp_path, capsys):
        from repro.experiments.runner import main

        spec_file = tmp_path / "fleet.json"
        spec_file.write_text("{}")
        with pytest.raises(SystemExit):
            main(["--fleet", str(spec_file),
                  "--resume", str(tmp_path / "j")])
        assert "--resume" in capsys.readouterr().err
