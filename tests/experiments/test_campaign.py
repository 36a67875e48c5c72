"""Crash-safe campaign runner: journal semantics, resume, SIGKILL.

The campaign bar, stated as tests: a campaign killed at any instant —
hard SIGKILL included — resumes from its journal with no duplicated
and no lost cells, and the merged result grid is byte-identical to an
uninterrupted campaign.  The journal is its header line; a cell is
done when its result file is committed, the one durable write per
cell.  The journal refuses foreign files and unknown schema versions,
reads journals written by 1.14–1.16 (whose records it ignores), and a
writer killed between writing a result and publishing it never leaves
a partial entry visible (atomic temp + fsync + rename everywhere).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.serialize import simulation_result_to_dict
from repro.errors import WorkloadError
from repro.experiments import sweep
from repro.experiments.sweep import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignJournal,
    SweepCell,
    last_sweep_failures,
    last_sweep_stats,
    resume_campaign,
    run_campaign,
    run_sweep,
)
from repro.sim.faults import get_fault_schedule
from repro.sim.scenario import get_scenario

pytestmark = pytest.mark.experiment

_REPO = Path(__file__).resolve().parents[2]

_KEYS = ("MB.", "EF.")


def _cells(policies=("baseline", "moca")):
    return [SweepCell(policy=p, model_keys=_KEYS, scale=0.1)
            for p in policies]


def _grid(results):
    """Byte-comparable form of a result grid (None for failed cells)."""
    return [
        json.dumps(r.metric_summary(), sort_keys=True)
        if r is not None else None
        for r in results
    ]


#: Original cell runner, captured at import for the fault-injecting
#: wrappers below.
_REAL_RUN_CELL = sweep._run_cell


class _FailOnce:
    """Raise on the first call (sentinel absent), then delegate."""

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, item):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            raise RuntimeError("injected transient fault")
        return _REAL_RUN_CELL(item)


def _always_fail(item):
    raise RuntimeError("cell should have been served, not simulated")


def _journal_lines(path) -> int:
    return len(Path(path).read_text().splitlines())


def _committed(journal: CampaignJournal):
    """Indices of the cells whose result file is committed."""
    return sorted(int(p.stem) for p in journal.result_dir.glob("*.json"))


class TestCampaignJournal:
    def test_create_refuses_clobber(self, tmp_path):
        path = tmp_path / "run.journal"
        CampaignJournal.create(path, _cells(), sweep.SoCConfig())
        with pytest.raises(WorkloadError, match="already exists"):
            CampaignJournal.create(path, _cells(), sweep.SoCConfig())

    def test_header_round_trips_cells(self, tmp_path):
        cells = [
            SweepCell(policy="baseline", model_keys=_KEYS, scale=0.1),
            SweepCell.from_scenario(
                "camdn-full", get_scenario("steady-quad"), scale=0.25,
                faults=get_fault_schedule("core-flap"),
            ),
        ]
        soc = sweep.SoCConfig()
        journal = CampaignJournal.create(tmp_path / "j", cells, soc)
        again, soc_again, done = journal.read()
        assert again == cells
        assert soc_again == soc
        assert done == {}
        assert _journal_lines(tmp_path / "j") == 1

    def test_not_a_journal_rejected(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_text("this is not jsonl\n")
        with pytest.raises(WorkloadError, match="not a campaign"):
            CampaignJournal(path).read()

    def test_missing_journal_rejected(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read"):
            CampaignJournal(tmp_path / "absent").read()

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "j"
        journal = CampaignJournal.create(path, _cells(),
                                         sweep.SoCConfig())
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        records[0]["campaign_schema_version"] = \
            CAMPAIGN_SCHEMA_VERSION + 1
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(WorkloadError, match="schema"):
            journal.read()

    def test_torn_final_line_tolerated(self, tmp_path):
        """A crash mid-append to a pre-1.17 journal leaves a torn tail;
        the header still reads and the torn record counts for
        nothing."""
        path = tmp_path / "j"
        journal = CampaignJournal.create(path, _cells(),
                                         sweep.SoCConfig())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "done", "ind')  # torn mid-record
        cells, _soc, done = journal.read()
        assert cells == _cells()
        assert done == {}

    def test_done_without_result_file_reruns(self, tmp_path,
                                             monkeypatch):
        """A done record whose result file is missing, or a result file
        that cannot be parsed, does not count as completed: both cells
        re-run on resume and the grid is the uninterrupted one."""
        cells = _cells()
        reference = run_sweep(cells, max_workers=1, use_cache=False)
        path = tmp_path / "j"
        journal = CampaignJournal.create(path, cells, sweep.SoCConfig())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "done", "index": 0}) + "\n")
        journal.result_dir.mkdir()
        (journal.result_dir / "1.json").write_text('{"policy": "mo')
        _cells_, _soc, done = journal.read()
        assert done == {}
        ran = []

        def recording_run_cell(item):
            ran.append(item[0])
            return _REAL_RUN_CELL(item)

        monkeypatch.setattr(sweep, "_run_cell", recording_run_cell)
        resumed = resume_campaign(path, max_workers=1, use_cache=False)
        assert sorted(ran, key=cells.index) == cells
        assert _grid(resumed) == _grid(reference)
        assert _committed(journal) == [0, 1]

    def test_leftover_result_dir_refused(self, tmp_path, monkeypatch):
        """A result file marks its cell done, so a ``<stem>.cells/``
        left behind by a removed journal is refused, not adopted as
        this campaign's results."""
        path = tmp_path / "j"
        CampaignJournal(path).result_dir.mkdir()
        monkeypatch.setattr(sweep, "_run_cell", _always_fail)
        with pytest.raises(WorkloadError, match="already exists"):
            run_campaign(_cells(), path, max_workers=1, use_cache=False)
        assert not path.exists()

    def test_journal_from_1_16_resumes(self, tmp_path, monkeypatch):
        """A 1.16.0 journal carries start, done and failed records and
        may end in a torn line.  Only result files count: a done record
        whose file is missing re-runs its cell, a result file whose done
        record was never appended is served, and the grid is the
        uninterrupted one."""
        cells = _cells(("baseline", "moca", "camdn-full"))
        reference = run_sweep(cells, max_workers=1, use_cache=False)
        path = tmp_path / "j"
        journal = CampaignJournal.create(path, cells, sweep.SoCConfig())
        journal.result_dir.mkdir()
        for index in (0, 2):
            (journal.result_dir / f"{index}.json").write_text(json.dumps(
                simulation_result_to_dict(reference[index]),
                sort_keys=True,
            ))
        records = [
            {"kind": "start", "index": 0, "attempt": 0},
            {"kind": "done", "index": 0},
            {"kind": "start", "index": 1, "attempt": 0},
            {"kind": "failed", "index": 1, "error": "RuntimeError: x"},
            {"kind": "start", "index": 1, "attempt": 0},
            {"kind": "done", "index": 1},  # its result file is missing
            {"kind": "start", "index": 2, "attempt": 0},
        ]
        with open(path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.write('{"kind": "done", "ind')  # torn mid-record

        _cells_, _soc, done = journal.read()
        assert sorted(done) == [0, 2]
        ran = []

        def recording_run_cell(item):
            ran.append(item[0])
            return _REAL_RUN_CELL(item)

        monkeypatch.setattr(sweep, "_run_cell", recording_run_cell)
        resumed = resume_campaign(path, max_workers=1, use_cache=False)
        assert ran == [cells[1]]
        assert _grid(resumed) == _grid(reference)
        assert _committed(journal) == [0, 1, 2]


class TestCampaignRun:
    def test_campaign_matches_sweep_byte_identically(self, tmp_path):
        cells = _cells(("baseline", "moca", "camdn-full"))
        reference = run_sweep(cells, max_workers=1, use_cache=False)
        results = run_campaign(cells, tmp_path / "run.journal",
                               max_workers=1, use_cache=False)
        assert _grid(results) == _grid(reference)
        assert last_sweep_failures() == []
        stats = last_sweep_stats()
        assert stats["failed_cells"] == 0.0
        assert stats["recovered_cells"] == 0.0
        # Every cell is done through its committed result file, and the
        # journal is its header alone.
        journal = CampaignJournal(tmp_path / "run.journal")
        _c, _s, done = journal.read()
        assert sorted(done) == [0, 1, 2]
        assert sorted(journal.result_dir.glob("*.json")) == [
            journal.result_dir / f"{i}.json" for i in range(3)
        ]
        assert _journal_lines(journal.path) == 1

    def test_resume_serves_completed_cells_without_rerunning(
        self, tmp_path, monkeypatch
    ):
        cells = _cells()
        first = run_campaign(cells, tmp_path / "j", max_workers=1,
                             use_cache=False)
        # Resume must not simulate anything: every cell is on record.
        monkeypatch.setattr(sweep, "_run_cell", _always_fail)
        again = resume_campaign(tmp_path / "j", max_workers=1,
                                use_cache=False)
        assert _grid(again) == _grid(first)
        assert last_sweep_stats()["recovered_cells"] == 2.0
        assert last_sweep_failures() == []

    def test_transient_failure_retries_and_succeeds(self, tmp_path,
                                                    monkeypatch):
        sentinel = tmp_path / "raised-once"
        monkeypatch.setattr(sweep, "_run_cell",
                            _FailOnce(str(sentinel)))
        (result,) = run_campaign(_cells(("baseline",)), tmp_path / "j",
                                 max_workers=1, use_cache=False)
        assert result is not None
        assert last_sweep_failures() == []
        assert sentinel.exists()

    def test_failed_cell_recorded_then_resumed(self, tmp_path,
                                               monkeypatch):
        """A cell that exhausts its retries commits no result file (and
        exits the grid as None); a later resume re-runs just that cell
        and completes the grid byte-identically to a clean run."""
        cells = _cells(("baseline", "moca"))
        reference = run_sweep(cells, max_workers=1, use_cache=False)
        monkeypatch.setattr(sweep, "_run_cell", _always_fail)
        results = run_campaign(cells, tmp_path / "j", max_workers=1,
                               use_cache=False)
        assert results == [None, None]
        assert last_sweep_stats()["failed_cells"] == 2.0
        assert _committed(CampaignJournal(tmp_path / "j")) == []
        assert _journal_lines(tmp_path / "j") == 1
        monkeypatch.setattr(sweep, "_run_cell", _REAL_RUN_CELL)
        resumed = resume_campaign(tmp_path / "j", max_workers=1,
                                  use_cache=False)
        assert _grid(resumed) == _grid(reference)
        assert last_sweep_failures() == []

    def test_deadline_kills_hung_cell_then_resume_completes(
        self, tmp_path
    ):
        """``deadline_s=0`` makes every attempt exceed its wall budget:
        the watchdog kills the cell, retries are exhausted, the failure
        is journaled — and a resume without the deadline completes the
        grid byte-identically."""
        cells = _cells(("baseline",))
        reference = run_sweep(cells, max_workers=1, use_cache=False)
        results = run_campaign(cells, tmp_path / "j", max_workers=1,
                               use_cache=False, deadline_s=0.0)
        assert results == [None]
        (failure,) = last_sweep_failures()
        assert "wall-clock budget" in str(failure["error"])
        resumed = resume_campaign(tmp_path / "j", max_workers=1,
                                  use_cache=False)
        assert _grid(resumed) == _grid(reference)

    @pytest.mark.parametrize("deadline_s", [float("nan"), -1.0])
    def test_bad_deadline_rejected_before_the_journal(self, tmp_path,
                                                      deadline_s):
        """A NaN deadline would arm no watchdog (every comparison with
        NaN is false): both entry points refuse it, and a negative one,
        before the journal is created or read."""
        path = tmp_path / "j"
        with pytest.raises(WorkloadError, match="deadline_s"):
            run_campaign(_cells(("baseline",)), path,
                         deadline_s=deadline_s)
        assert not path.exists()
        run_campaign(_cells(("baseline",)), path, max_workers=1,
                     use_cache=False)
        before = path.read_bytes()
        with pytest.raises(WorkloadError, match="deadline_s"):
            resume_campaign(path, deadline_s=deadline_s)
        assert path.read_bytes() == before

    def test_infinite_deadline_means_no_limit(self, tmp_path):
        cells = _cells(("baseline",))
        reference = run_sweep(cells, max_workers=1, use_cache=False)
        results = run_campaign(cells, tmp_path / "j", max_workers=1,
                               use_cache=False, deadline_s=float("inf"))
        assert _grid(results) == _grid(reference)

    def test_cache_hits_are_journaled_as_done(self, tmp_path,
                                              monkeypatch):
        """A cell served from the persistent sweep cache commits its
        result file like a computed one, so the journal alone always
        describes the full grid."""
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR",
                           str(tmp_path / "cache"))
        cells = _cells(("baseline",))
        reference = run_sweep(cells, max_workers=1)  # populates cache
        monkeypatch.setattr(sweep, "_run_cell", _always_fail)
        results = run_campaign(cells, tmp_path / "j", max_workers=1)
        assert _grid(results) == _grid(reference)
        journal = CampaignJournal(tmp_path / "j")
        _c, _s, done = journal.read()
        assert sorted(done) == [0]
        assert _committed(journal) == [0]
        assert _journal_lines(journal.path) == 1


def _count_fsyncs(monkeypatch) -> list:
    """Wrap ``os.fsync``; every call appends its descriptor to the list
    returned."""
    calls = []
    real_fsync = os.fsync

    def counting(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestOneDurableWritePerCell:
    """A campaign fsyncs its header once and each cell's result file
    once, whether the cell was computed or served from the cache.  The
    sweeps run first warm the in-process mapping memo, so no
    mapping-cache write lands inside a counted campaign."""

    def test_computed_cells(self, tmp_path, monkeypatch):
        cells = _cells(("baseline", "moca", "camdn-full"))
        reference = run_sweep(cells, max_workers=1, use_cache=False)
        fsyncs = _count_fsyncs(monkeypatch)
        results = run_campaign(cells, tmp_path / "j", max_workers=1,
                               use_cache=False)
        assert _grid(results) == _grid(reference)
        assert len(fsyncs) == 1 + 3  # the header, then each result

    def test_cache_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR",
                           str(tmp_path / "cache"))
        cells = _cells(("baseline",))
        run_sweep(cells, max_workers=1)  # populates cache
        fsyncs = _count_fsyncs(monkeypatch)
        monkeypatch.setattr(sweep, "_run_cell", _always_fail)
        run_campaign(cells, tmp_path / "j", max_workers=1)
        assert len(fsyncs) == 1 + 1  # the header, then the hit's result


class TestAtomicWriterKill:
    """A writer SIGKILLed mid-write never publishes a partial entry."""

    def _run_child(self, target: Path, kill: bool):
        script = textwrap.dedent("""
            import os, signal, sys
            from pathlib import Path
            from repro.core.serialize import atomic_write_text

            target = Path(sys.argv[1])
            if sys.argv[2] == "kill":
                def kill_before_publish(src, dst):
                    os.kill(os.getpid(), signal.SIGKILL)
                os.replace = kill_before_publish
            atomic_write_text(target, '{"fresh": true}' + " " * 65536)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO / "src")
        return subprocess.run(
            [sys.executable, "-c", script, str(target),
             "kill" if kill else "ok"],
            env=env, capture_output=True, timeout=120,
        )

    def test_killed_writer_leaves_old_entry_intact(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text('{"old": true}')
        proc = self._run_child(target, kill=True)
        assert proc.returncode == -signal.SIGKILL
        # The published entry is exactly the old bytes; the torn write
        # is confined to a temp file no reader globs (*.json).
        assert target.read_text() == '{"old": true}'
        assert list(tmp_path.glob("*.json")) == [target]

    def test_killed_writer_leaves_no_entry_when_none_existed(
        self, tmp_path
    ):
        target = tmp_path / "entry.json"
        proc = self._run_child(target, kill=True)
        assert proc.returncode == -signal.SIGKILL
        assert list(tmp_path.glob("*.json")) == []

    def test_unkilled_writer_publishes(self, tmp_path):
        target = tmp_path / "entry.json"
        proc = self._run_child(target, kill=False)
        assert proc.returncode == 0
        assert json.loads(target.read_text()) == {"fresh": True}


@pytest.mark.slow
class TestCampaignSigkillResume:
    """End to end: SIGKILL a live campaign subprocess mid-grid, resume
    from the journal, and get the uninterrupted campaign's grid back
    byte-for-byte with no duplicated or lost cells."""

    CELL_ARGS = [
        "--campaign-scenarios", "steady-quad,poisson-eight",
        "--campaign-policies", "baseline,moca,camdn-full",
        "--scale", "0.5", "--jobs", "1", "--no-cache",
    ]
    NUM_CELLS = 6

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO / "src")
        env["REPRO_SWEEP_CACHE_DIR"] = ""  # cells must really simulate
        return env

    def _runner(self, *args):
        return [sys.executable, "-m", "repro.experiments.runner",
                *args]

    def _cell_lines(self, stdout: str):
        return [line for line in stdout.splitlines()
                if line.startswith('{"cell"')]

    def _done_count(self, journal: Path) -> int:
        return len(list(CampaignJournal(journal).result_dir.glob("*.json")))

    def test_sigkilled_campaign_resumes_byte_identically(
        self, tmp_path
    ):
        env = self._env()
        # Uninterrupted reference campaign.
        ref = subprocess.run(
            self._runner("--campaign", str(tmp_path / "ref.journal"),
                         *self.CELL_ARGS),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert ref.returncode == 0, ref.stderr
        ref_lines = self._cell_lines(ref.stdout)
        assert len(ref_lines) == self.NUM_CELLS

        # Live campaign, SIGKILLed once at least one cell committed.
        journal = tmp_path / "crash.journal"
        proc = subprocess.Popen(
            self._runner("--campaign", str(journal), *self.CELL_ARGS),
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 300
            while self._done_count(journal) < 1 \
                    and proc.poll() is None:
                assert time.monotonic() < deadline, \
                    "campaign never committed a cell"
                time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)

        interrupted = self._done_count(journal)
        assert interrupted >= 1

        # Resume from the journal: exit 0, full grid, byte-identical.
        res = subprocess.run(
            self._runner("--resume", str(journal), "--jobs", "1",
                         "--no-cache"),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 0, res.stderr
        assert self._cell_lines(res.stdout) == ref_lines

        # No lost or duplicated cells: every index committed exactly
        # once in the merged journal state.
        _c, _s, done = CampaignJournal(journal).read()
        assert sorted(done) == list(range(self.NUM_CELLS))


class TestRunnerExitCodes:
    def _run(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO / "src")
        env["REPRO_SWEEP_CACHE_DIR"] = ""
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner",
             "--campaign", str(tmp_path / "run.journal"),
             "--campaign-scenarios", "steady-quad",
             "--campaign-policies", "baseline,no-such-policy",
             "--scale", "0.1", "--jobs", "1", "--no-cache", *extra],
            env=env, capture_output=True, text=True, timeout=600,
        )

    def test_failed_cell_exits_nonzero(self, tmp_path):
        proc = self._run(tmp_path)
        assert proc.returncode == 1
        assert "no-such-policy" in proc.stdout

    def test_keep_going_exits_zero(self, tmp_path):
        proc = self._run(tmp_path, "--keep-going")
        assert proc.returncode == 0
        assert "no-such-policy" in proc.stdout
