"""Fleet crash safety: sidecar integrity, SIGKILL resume, compaction.

A journaled fleet must survive anything a campaign survives — a hard
SIGKILL mid-population included — and resume to the byte-identical
population summary.  The sidecar carrying the fleet spec is content-
hashed, so a tampered or foreign journal is refused instead of
silently aggregated wrong.  Resume must also stay O(cells) however
bloated a journal written by 1.14–1.16 got (a long crash-resume-crash
history appended hundreds of redundant records).
"""

import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.config import SoCConfig
from repro.core import serialize
from repro.errors import WorkloadError
from repro.experiments import sweep
from repro.experiments.sweep import CampaignJournal
from repro.fleet import (
    DeviceClass,
    FleetAccumulator,
    FleetSpec,
    ScenarioDraw,
)
from repro.fleet.runner import (
    fleet_sidecar_path,
    read_fleet_sidecar,
    resume_fleet,
    run_fleet,
    write_fleet_sidecar,
)

pytestmark = pytest.mark.experiment

_REPO = Path(__file__).resolve().parents[2]


def tiny_fleet(devices=4) -> FleetSpec:
    return FleetSpec(
        devices=devices,
        policy="baseline",
        scenario_draws=(ScenarioDraw(scenario="steady-quad"),),
        scale=0.1,
        seed=3,
    )


def summary_bytes(result) -> str:
    return json.dumps(result.fleet_summary(), sort_keys=True)


class TestSidecar:
    def test_round_trip(self, tmp_path):
        journal = tmp_path / "f.journal"
        spec = tiny_fleet()
        write_fleet_sidecar(journal, spec)
        assert read_fleet_sidecar(journal) == spec

    def test_missing_sidecar_rejected(self, tmp_path):
        with pytest.raises(WorkloadError, match="sidecar"):
            read_fleet_sidecar(tmp_path / "f.journal")

    def test_tampered_sidecar_rejected(self, tmp_path):
        journal = tmp_path / "f.journal"
        sidecar = write_fleet_sidecar(journal, tiny_fleet())
        payload = json.loads(sidecar.read_text())
        payload["fleet"]["seed"] += 1  # edit without re-hashing
        sidecar.write_text(json.dumps(payload))
        with pytest.raises(WorkloadError, match="hash"):
            read_fleet_sidecar(journal)

    def test_sidecar_verifies_under_an_edited_source_tree(
        self, tmp_path, monkeypatch
    ):
        """The sidecar hash covers the spec alone: a journaled fleet
        resumes after a source edit or a version bump, as a campaign
        journal does, while an edited spec is still refused."""
        journal = tmp_path / "f.journal"
        spec = tiny_fleet()
        sidecar = write_fleet_sidecar(journal, spec)
        monkeypatch.setattr(serialize, "_SOURCE_SALT", "0" * 64)
        monkeypatch.setattr(repro, "__version__", "0.0.0")
        assert read_fleet_sidecar(journal) == spec
        payload = json.loads(sidecar.read_text())
        payload["fleet"]["devices"] += 1
        sidecar.write_text(json.dumps(payload))
        with pytest.raises(WorkloadError, match="hash"):
            read_fleet_sidecar(journal)

    def test_corrupt_sidecar_rejected(self, tmp_path):
        journal = tmp_path / "f.journal"
        fleet_sidecar_path(journal).write_text("not json")
        with pytest.raises(WorkloadError, match="sidecar"):
            read_fleet_sidecar(journal)


class TestResume:
    def test_journaled_fleet_resumes_byte_identically(self, tmp_path):
        spec = tiny_fleet()
        journal = tmp_path / "f.journal"
        first = run_fleet(spec, journal_path=journal, max_workers=1,
                          use_cache=False)
        resumed = resume_fleet(journal, max_workers=1, use_cache=False)
        assert summary_bytes(resumed) == summary_bytes(first)

    def test_nan_deadline_rejected_before_the_sidecar(self, tmp_path):
        """A NaN deadline is refused before anything is written, so no
        stray sidecar makes the path look resumable."""
        journal = tmp_path / "f.journal"
        with pytest.raises(WorkloadError, match="deadline_s"):
            run_fleet(tiny_fleet(), journal_path=journal,
                      deadline_s=float("nan"))
        assert not journal.exists()
        assert not fleet_sidecar_path(journal).exists()

    def test_journaled_matches_ephemeral(self, tmp_path):
        spec = tiny_fleet()
        ephemeral = run_fleet(spec, max_workers=1, use_cache=False)
        journaled = run_fleet(spec, journal_path=tmp_path / "f.journal",
                              max_workers=1, use_cache=False)
        assert summary_bytes(journaled) == summary_bytes(ephemeral)


class TestJournalCompaction:
    """Resume cost is bounded by the *grid*, not the journal history."""

    def test_redundant_done_records_load_each_result_once(
        self, tmp_path, monkeypatch
    ):
        """A journal bloated by hundreds of redundant done records (a
        long crash/resume history) still deserializes every committed
        result exactly once — replay is O(cells), not O(journal)."""
        spec = tiny_fleet(devices=2)
        journal_path = tmp_path / "f.journal"
        run_fleet(spec, journal_path=journal_path, max_workers=1,
                  use_cache=False)
        journal = CampaignJournal(journal_path)
        with open(journal_path, "a", encoding="utf-8") as fh:
            for _ in range(400):
                for index in range(spec.num_cells):
                    fh.write(json.dumps(
                        {"kind": "done", "index": index}
                    ) + "\n")

        loads = []
        real_load = CampaignJournal.load_result
        monkeypatch.setattr(
            CampaignJournal, "load_result",
            lambda self, index: loads.append(index)
            or real_load(self, index),
        )
        _cells, _soc, done = journal.read()
        assert sorted(done) == list(range(spec.num_cells))
        assert sorted(loads) == list(range(spec.num_cells))

    def test_bloated_journal_resumes_quickly(self, tmp_path):
        """Wall-clock regression guard: resuming through ~800 redundant
        records costs no more than the underlying 2-cell fleet."""
        spec = tiny_fleet(devices=2)
        journal_path = tmp_path / "f.journal"
        run_fleet(spec, journal_path=journal_path, max_workers=1,
                  use_cache=False)
        with open(journal_path, "a", encoding="utf-8") as fh:
            for _ in range(400):
                for index in range(spec.num_cells):
                    fh.write(json.dumps(
                        {"kind": "done", "index": index}
                    ) + "\n")
        start = time.perf_counter()
        resumed = resume_fleet(journal_path, max_workers=1,
                               use_cache=False)
        elapsed = time.perf_counter() - start
        assert resumed.completed_devices == spec.num_cells
        assert elapsed < 10.0  # generous: replay, not re-simulation


@pytest.mark.slow
class TestFleetSigkillResume:
    """End to end through the CLI: SIGKILL a live journaled fleet once
    at least one device committed, ``--resume`` it, and get the
    uninterrupted fleet's population line back byte-for-byte."""

    DEVICES = 6

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO / "src")
        env["REPRO_SWEEP_CACHE_DIR"] = ""  # cells must really simulate
        return env

    def _runner(self, *args):
        return [sys.executable, "-m", "repro.experiments.runner", *args]

    def _fleet_line(self, stdout: str) -> str:
        (line,) = [ln for ln in stdout.splitlines()
                   if ln.startswith('{"fleet"')]
        return line

    def _done_count(self, journal: Path) -> int:
        return len(list(CampaignJournal(journal).result_dir.glob("*.json")))

    def _spec_file(self, tmp_path: Path) -> Path:
        spec_file = tmp_path / "fleet.json"
        spec_file.write_text(json.dumps(
            tiny_fleet(devices=self.DEVICES).to_dict()
        ))
        return spec_file

    def test_sigkilled_fleet_resumes_byte_identically(self, tmp_path):
        env = self._env()
        spec_file = self._spec_file(tmp_path)

        # Uninterrupted reference fleet.
        ref = subprocess.run(
            self._runner("--fleet", str(spec_file),
                         "--campaign", str(tmp_path / "ref.journal"),
                         "--jobs", "1", "--no-cache"),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert ref.returncode == 0, ref.stderr
        ref_line = self._fleet_line(ref.stdout)

        # Live fleet, SIGKILLed once at least one device committed.
        journal = tmp_path / "crash.journal"
        proc = subprocess.Popen(
            self._runner("--fleet", str(spec_file),
                         "--campaign", str(journal),
                         "--jobs", "1", "--no-cache"),
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 300
            while self._done_count(journal) < 1 \
                    and proc.poll() is None:
                assert time.monotonic() < deadline, \
                    "fleet never committed a device cell"
                time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)

        # Resume: sidecar auto-detected, population byte-identical.
        res = subprocess.run(
            self._runner("--resume", str(journal), "--jobs", "1",
                         "--no-cache"),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 0, res.stderr
        assert self._fleet_line(res.stdout) == ref_line

        # Every device committed exactly once in the merged journal.
        _c, _s, done = CampaignJournal(journal).read()
        assert sorted(done) == list(range(self.DEVICES))


class TestResumeValidation:
    def test_resume_refuses_mismatched_sidecar(self, tmp_path):
        """A sidecar whose spec expands to a different grid than the
        journal records is a hard error, not a silent misaggregation."""
        spec = tiny_fleet(devices=2)
        journal = tmp_path / "f.journal"
        run_fleet(spec, journal_path=journal, max_workers=1,
                  use_cache=False)
        write_fleet_sidecar(journal, tiny_fleet(devices=3))
        with pytest.raises(WorkloadError, match="disagree"):
            resume_fleet(journal, max_workers=1, use_cache=False)

    @pytest.mark.parametrize("sidecar", [
        tiny_fleet(devices=3),
        dataclasses.replace(tiny_fleet(devices=2), seed=4),
    ], ids=["device-count", "seed"])
    def test_mismatched_sidecar_refused_before_any_cell_runs(
        self, tmp_path, monkeypatch, sidecar
    ):
        """The sidecar is checked against the journal's cells before a
        single cell simulates, and a validly re-hashed sidecar whose
        grid differs only in content is refused too."""
        journal = tmp_path / "f.journal"
        CampaignJournal.create(journal, tiny_fleet(devices=2).expand(),
                               SoCConfig())
        write_fleet_sidecar(journal, sidecar)
        calls = []
        monkeypatch.setattr(sweep, "_run_cell", calls.append)
        with pytest.raises(WorkloadError, match="disagree"):
            resume_fleet(journal, max_workers=1, use_cache=False)
        assert calls == []

    def test_refused_run_keeps_the_existing_sidecar(self, tmp_path):
        """Starting a second fleet on a taken journal is refused before
        it overwrites the first fleet's sidecar, so the first fleet
        still resumes as itself."""
        first = tiny_fleet(devices=2)
        journal = tmp_path / "f.journal"
        run_fleet(first, journal_path=journal, max_workers=1,
                  use_cache=False)
        with pytest.raises(WorkloadError, match="already exists"):
            run_fleet(dataclasses.replace(first, seed=4),
                      journal_path=journal, max_workers=1,
                      use_cache=False)
        assert read_fleet_sidecar(journal) == first
        assert resume_fleet(journal, max_workers=1,
                            use_cache=False).spec == first

    def test_leftover_result_dir_refused_before_the_sidecar(
        self, tmp_path, monkeypatch
    ):
        """A ``<stem>.cells/`` left without its journal would count as
        committed devices, so a new fleet there is refused before it
        writes its sidecar or journal, or runs a cell."""
        journal = tmp_path / "f.journal"
        CampaignJournal(journal).result_dir.mkdir()
        calls = []
        monkeypatch.setattr(sweep, "_run_cell", calls.append)
        with pytest.raises(WorkloadError, match="already exists"):
            run_fleet(tiny_fleet(devices=2), journal_path=journal,
                      max_workers=1, use_cache=False)
        assert calls == []
        assert not journal.exists()
        assert not fleet_sidecar_path(journal).exists()

    def test_failed_sidecar_write_raises_before_any_cell_runs(
        self, tmp_path, monkeypatch
    ):
        """The sidecar is the fleet's only record of its spec: when its
        durable write fails, the fleet raises before any cell runs and
        leaves no journal and no temp file behind."""
        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        calls = []
        monkeypatch.setattr(sweep, "_run_cell", calls.append)
        with pytest.raises(OSError, match="No space"):
            run_fleet(tiny_fleet(devices=2),
                      journal_path=tmp_path / "f.journal",
                      max_workers=1, use_cache=False)
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_soc_passthrough(self, tmp_path):
        """A non-default base SoC flows into journaled cells and back
        out of resume."""
        spec = tiny_fleet(devices=2)
        soc = SoCConfig().with_cache_bytes(4 * (1 << 20))
        journal = tmp_path / "f.journal"
        first = run_fleet(spec, soc=soc, journal_path=journal,
                          max_workers=1, use_cache=False)
        resumed = resume_fleet(journal, max_workers=1, use_cache=False)
        assert summary_bytes(resumed) == summary_bytes(first)


class TestUnmeasuredDevice:
    """A device whose every completion fell in warm-up has no summary
    (``metric_summary()`` raises on it)."""

    SPEC = FleetSpec(
        devices=4,
        policy="camdn-full",
        device_classes=(
            DeviceClass(name="large", cache_bytes=16 * (1 << 20)),
            DeviceClass(name="small", cache_bytes=4 * (1 << 20)),
        ),
        scenario_draws=(ScenarioDraw(scenario="mmpp-quad"),),
        seed=3,
        scale=0.05,
    )

    def test_fleet_and_its_resume_aggregate_the_other_devices(
        self, tmp_path
    ):
        """Cell 2 offers two inferences and completes both in warm-up;
        it is reported as a failure instead of failing the fleet, and
        of every resume of its finished journal."""
        journal = tmp_path / "f.journal"
        first = run_fleet(self.SPEC, journal_path=journal, max_workers=1,
                          use_cache=False)
        resumed = resume_fleet(journal, max_workers=1, use_cache=False)
        for result in (first, resumed):
            assert result.failures == [{
                "index": 2, "policy": "camdn-full",
                "error": "no measured inferences",
            }]
            assert result.results[2] is None
            assert result.completed_devices == 3
        assert summary_bytes(resumed) == summary_bytes(first)

    def test_fold_results_skips_and_reports_the_device(self):
        """The rule lives in the fold itself, so every caller of
        ``fold_results`` (the fleet runner and the fleet-capacity
        experiment) aggregates such a fleet; ``None`` placeholders of
        failed cells are skipped without being reported."""
        results = sweep.run_sweep(self.SPEC.expand(), max_workers=1,
                                  use_cache=False)
        accumulator = FleetAccumulator()
        assert accumulator.fold_results([None] + results) == [3]
        assert accumulator.devices == 3
