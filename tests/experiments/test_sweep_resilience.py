"""Sweep fault tolerance and corrupt-cache recovery.

A sweep or campaign must survive its workers: a cell whose simulation
raises — or whose pool worker dies outright — is retried serially in
the parent, and a deterministic failure is *reported* (``None``
placeholder plus :func:`last_sweep_failures`, in cell order) instead of
aborting the grid.  The persistent result cache must survive its disk:
garbage bytes in an entry are detected, logged, invalidated and rebuilt
transparently.
"""

import functools
import json
import logging
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import sweep
from repro.experiments.sweep import (
    CampaignJournal,
    SweepCell,
    last_sweep_failures,
    last_sweep_stats,
    run_campaign,
    run_sweep,
)

pytestmark = pytest.mark.experiment

_KEYS = ("MB.", "EF.")


def _cell(policy="baseline"):
    return SweepCell(policy=policy, model_keys=_KEYS, scale=0.1)


#: Original cell runner, captured at import so the fault-injecting
#: wrappers below can delegate to it (they are module-level classes so
#: they pickle into pool workers).
_REAL_RUN_CELL = sweep._run_cell


class _FailOnce:
    """Raise on the first call (sentinel file absent), then delegate."""

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, item):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            raise RuntimeError("injected transient fault")
        return _REAL_RUN_CELL(item)


class _DieOnceInWorker:
    """Kill the process on the first call, then delegate.

    ``os._exit`` models a worker death (OOM kill, segfault): the pool
    breaks with ``BrokenProcessPool`` rather than a clean exception.
    """

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, item):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(1)
        return _REAL_RUN_CELL(item)


class _FailAfter:
    """Raise for every cell after a per-policy delay, so a later cell
    can fail before an earlier one."""

    def __init__(self, delays) -> None:
        self.delays = delays

    def __call__(self, item):
        policy = item[0].policy
        time.sleep(self.delays[policy])
        raise RuntimeError(f"injected failure ({policy})")


class _BreaksOnSecondSubmit:
    """``ProcessPoolExecutor`` stand-in whose worker dies while the
    parent is still submitting.

    The first submission runs in-process; the second and every later
    one raise ``BrokenProcessPool``, as a real pool's ``submit`` does
    once a worker has died.  Deterministic, unlike racing a real
    worker death against the submit loop.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.submits = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits > 1:
            raise BrokenProcessPool("a worker died during submission")
        future = Future()
        future.set_result(fn(*args))
        return future


def _summaries(results):
    return [json.dumps(r.metric_summary(), sort_keys=True)
            for r in results]


@pytest.fixture(params=["sweep", "campaign"])
def run_grid(request, tmp_path):
    """The executor entry point under test: an ephemeral sweep, or a
    campaign journaled under ``tmp_path``."""
    if request.param == "sweep":
        return run_sweep
    return functools.partial(run_campaign,
                             journal_path=tmp_path / "campaign.journal")


class TestSweepFaultTolerance:
    def test_transient_failure_recovers_via_serial_retry(
        self, run_grid, tmp_path, monkeypatch
    ):
        sentinel = tmp_path / "raised-once"
        monkeypatch.setattr(sweep, "_run_cell",
                            _FailOnce(str(sentinel)))
        (result,) = run_grid([_cell()], max_workers=1, use_cache=False)
        assert result is not None
        assert result.metrics.num_inferences > 0
        assert last_sweep_failures() == []
        assert last_sweep_stats()["failed_cells"] == 0.0
        assert sentinel.exists()

    def test_deterministic_failure_reported_not_raised(self, run_grid):
        cells = [_cell(), _cell("no-such-policy"), _cell("camdn-full")]
        results = run_grid(cells, max_workers=1, use_cache=False)
        assert results[0] is not None
        assert results[1] is None
        assert results[2] is not None
        (failure,) = last_sweep_failures()
        assert failure["index"] == 1
        assert failure["policy"] == "no-such-policy"
        assert "no-such-policy" in str(failure["error"])
        stats = last_sweep_stats()
        assert stats["failed_cells"] == 1.0
        assert stats["cells"] == 2.0

    def test_dead_pool_worker_recovers_via_serial_retry(
        self, run_grid, tmp_path, monkeypatch
    ):
        """A worker death breaks the pool mid-sweep; every affected cell
        recovers through the parent's serial retry."""
        sentinel = tmp_path / "died-once"
        monkeypatch.setattr(sweep, "_run_cell",
                            _DieOnceInWorker(str(sentinel)))
        cells = [_cell(), _cell("moca")]
        results = run_grid(cells, max_workers=2, use_cache=False)
        assert all(r is not None for r in results)
        assert last_sweep_failures() == []
        assert last_sweep_stats()["failed_cells"] == 0.0

    def test_pool_failures_reported_in_cell_order(self, run_grid,
                                                  monkeypatch):
        """Cells settle in completion order on a pool; the later cell
        fails first here, yet failures come back in cell order."""
        monkeypatch.setattr(sweep, "_run_cell",
                            _FailAfter({"moca": 0.3, "camdn-full": 0.0}))
        cells = [_cell("moca"), _cell("camdn-full")]
        results = run_grid(cells, max_workers=2, use_cache=False)
        assert results == [None, None]
        assert [(f["index"], f["policy"]) for f in last_sweep_failures()] \
            == [(0, "moca"), (1, "camdn-full")]
        assert last_sweep_stats()["failed_cells"] == 2.0

    def test_successful_sweep_has_no_none_entries(self, run_grid):
        results = run_grid([_cell(), _cell("moca")], max_workers=1,
                           use_cache=False)
        assert all(r is not None for r in results)
        assert last_sweep_failures() == []


class TestSubmitTimePoolBreak:
    """A pool that breaks while cells are still being submitted must not
    escape the sweep: the cell whose submit failed and every cell after
    it recover through the serial retry, on all three dispatch paths."""

    CELLS = [_cell(), _cell("moca"), _cell("camdn-full")]

    @pytest.fixture
    def serial(self):
        return _summaries(
            run_sweep(self.CELLS, max_workers=1, use_cache=False)
        )

    @pytest.fixture(autouse=True)
    def broken_pool(self, monkeypatch):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor",
                            _BreaksOnSecondSubmit)

    @pytest.mark.parametrize("shard_size", [None, 2],
                             ids=["per-cell", "sharded"])
    def test_sweep_recovers_every_cell(self, serial, shard_size):
        results = run_sweep(self.CELLS, max_workers=2, use_cache=False,
                            shard_size=shard_size)
        assert _summaries(results) == serial
        assert last_sweep_failures() == []
        assert last_sweep_stats()["failed_cells"] == 0.0

    def test_campaign_recovers_every_cell(self, serial, tmp_path):
        journal = tmp_path / "campaign.journal"
        results = run_campaign(self.CELLS, journal, max_workers=2,
                               use_cache=False)
        assert _summaries(results) == serial
        assert last_sweep_failures() == []
        # Every cell committed its result file once the retry succeeded,
        # and the journal is its header alone.
        result_dir = CampaignJournal(journal).result_dir
        assert sorted(p.name for p in result_dir.iterdir()) == \
            ["0.json", "1.json", "2.json"]
        assert len(journal.read_text().splitlines()) == 1


class TestCorruptSweepCache:
    @pytest.fixture
    def sweepcache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        return tmp_path

    def test_corrupt_entry_resimulates_and_rebuilds(self, sweepcache,
                                                    caplog):
        (first,) = run_sweep([_cell()], max_workers=1)
        (entry,) = sweepcache.glob("*.json")
        entry.write_text('{"truncated": ')
        with caplog.at_level(logging.WARNING,
                             logger="repro.experiments.sweep"):
            (again,) = run_sweep([_cell()], max_workers=1)
        assert any("corrupt" in rec.message for rec in caplog.records)
        assert json.dumps(again.metric_summary(), sort_keys=True) == \
            json.dumps(first.metric_summary(), sort_keys=True)
        # The entry was rebuilt into valid JSON and serves again.
        json.loads(entry.read_text())
        (served,) = run_sweep([_cell()], max_workers=1)
        assert last_sweep_stats()["cached_cells"] == 1.0
        assert json.dumps(served.metric_summary(), sort_keys=True) == \
            json.dumps(first.metric_summary(), sort_keys=True)

    def test_garbage_bytes_entry_recovers(self, sweepcache):
        (first,) = run_sweep([_cell()], max_workers=1)
        (entry,) = sweepcache.glob("*.json")
        entry.write_bytes(b"\x00\xff garbage not json \x00")
        (again,) = run_sweep([_cell()], max_workers=1)
        assert last_sweep_stats()["cached_cells"] == 0.0
        assert json.dumps(again.metric_summary(), sort_keys=True) == \
            json.dumps(first.metric_summary(), sort_keys=True)

    def test_valid_json_wrong_shape_recovers(self, sweepcache):
        """An entry that parses as JSON but is not a serialized result
        (schema drift, a stray file) is treated as corrupt too."""
        (first,) = run_sweep([_cell()], max_workers=1)
        (entry,) = sweepcache.glob("*.json")
        entry.write_text('{"not": "a result"}')
        (again,) = run_sweep([_cell()], max_workers=1)
        assert again is not None
        assert json.dumps(again.metric_summary(), sort_keys=True) == \
            json.dumps(first.metric_summary(), sort_keys=True)
