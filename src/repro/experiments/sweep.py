"""Parallel experiment sweep runner with a persistent result cache.

Experiment harnesses and benchmarks run grids of independent simulation
cells — one per ``(policy, scenario, QoS level, SoC variant)`` point,
where the scenario is either a classic closed-loop model mix or an
explicit declarative :class:`~repro.sim.scenario.ScenarioSpec` (dynamic
tenancy, open-loop arrivals).  Cells share no mutable state (each builds
its own scheduler, workload and engine), so they parallelize perfectly
across processes.

:func:`run_sweep` executes a list of :class:`SweepCell` descriptions and
returns one :class:`~repro.sim.engine.SimulationResult` per cell, in cell
order regardless of completion order, so results are deterministic under
any worker count.  :func:`run_campaign` does the same under a crash-safe
journal; both share one executor, and only sweeps batch cells in shards.

A persistent result cache removes redundant work: every cell is keyed
by a stable content hash of its :class:`SweepCell` fields, the full
:class:`~repro.config.SoCConfig`, and the package version (via
:mod:`repro.core.serialize`).  Results are stored as JSON under
``$REPRO_SWEEP_CACHE_DIR`` (default
``$XDG_CACHE_HOME/camdn-repro/sweeps``); a re-run of a figure harness,
benchmark or slow test with identical cells skips the simulation
entirely and deserializes byte-identical results.  Disable with
``use_cache=False`` (the runner's ``--no-cache``) or by setting
``REPRO_SWEEP_CACHE_DIR`` to an empty string.  The engine is
deterministic, so a cache hit and a fresh run are interchangeable; the
version salt invalidates entries across releases.

On single-core hosts (or ``max_workers=1``) the sweep runs serially
in-process, which reuses the warm prepared-workload and solver caches
directly.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import __version__
from ..config import SoCConfig
from ..core.serialize import (
    atomic_write_text,
    resolve_cache_dir,
    simulation_result_from_dict,
    simulation_result_to_dict,
    soc_config_from_dict,
    soc_config_to_dict,
    source_content_salt,
    stable_content_hash,
    write_text_atomic,
)
from ..errors import WorkloadError
from ..runconfig import RunConfig, check_seconds
from ..sim.engine import SimulationResult
from ..sim.faults import FaultSpec
from ..sim.scenario import ScenarioSpec
from ..sim.workload import random_model_mix
from .common import ExperimentScale, run_scenario

_LOG = logging.getLogger(__name__)

#: Environment override for the persistent cell cache location; an empty
#: value disables the cache entirely.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"

#: Cache-key schema of sweep cells.  v2: the key hashes the cell's fully
#: resolved :class:`~repro.sim.scenario.ScenarioSpec`, so entries written
#: before the scenario subsystem (or under a different lowering) can
#: never be served for a scenario cell.  v3: the key hashes the cell's
#: fault schedule, so faulted and fault-free runs of the same scenario
#: can never share an entry.
SWEEP_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation cell of an experiment grid.

    A cell is either the classic closed-loop shape (``model_keys`` plus
    the steady-state window knobs) or an explicit declarative scenario
    (``scenario``); both resolve to one
    :class:`~repro.sim.scenario.ScenarioSpec` via
    :meth:`resolve_scenario`, which is what actually runs — and what the
    persistent cache key hashes.

    Attributes:
        policy: scheduler name (``"baseline"``, ``"moca"``, ``"aurora"``,
            ``"camdn-hw"``, ``"camdn-full"``).
        model_keys: one Table I abbreviation per co-located stream
            (closed-loop cells; empty when ``scenario`` is given).
        qos_scale: latency-target multiplier (``inf`` disables deadlines).
        qos_mode: enable the AuRORA-style QoS integration on CaMDN.
        scale: measurement-window scale (see :class:`ExperimentScale`;
            scenario cells scale through
            :meth:`~repro.sim.scenario.ScenarioSpec.scaled`).
        cache_bytes: overrides the sweep SoC's shared-cache capacity for
            this cell (``None`` keeps the sweep default).
        seed: seed used when the cell is built from a random model mix
            (recorded so the cell is self-describing and reproducible).
        scenario: explicit scenario for this cell (dynamic tenancy,
            open-loop arrivals); mutually exclusive with ``model_keys``.
        faults: optional :class:`~repro.sim.faults.FaultSpec` injected
            into this cell's run (fault instants scale with ``scale``,
            like the scenario window).
    """

    policy: str
    model_keys: Tuple[str, ...] = ()
    qos_scale: float = math.inf
    qos_mode: bool = False
    scale: float = 1.0
    cache_bytes: Optional[int] = None
    seed: int = field(default=2025)
    scenario: Optional[ScenarioSpec] = None
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.scenario is None and not self.model_keys:
            raise WorkloadError(
                "sweep cell needs model_keys or a scenario"
            )
        if self.scenario is not None and self.model_keys:
            raise WorkloadError(
                "sweep cell takes model_keys or a scenario, not both"
            )
        if self.scenario is not None and not math.isinf(self.qos_scale):
            raise WorkloadError(
                "scenario cells carry QoS per stream (StreamSpec."
                "qos_scale); the cell-level qos_scale only applies to "
                "model_keys cells"
            )

    @classmethod
    def random_mix(cls, policy: str, num_streams: int,
                   seed: int = 2025, **kwargs) -> "SweepCell":
        """Build a cell over a seeded random model mix (deterministic in
        ``(num_streams, seed)``)."""
        return cls(
            policy=policy,
            model_keys=tuple(random_model_mix(num_streams, seed=seed)),
            seed=seed,
            **kwargs,
        )

    @classmethod
    def from_scenario(cls, policy: str, scenario: ScenarioSpec,
                      **kwargs) -> "SweepCell":
        """Build a cell over an explicit declarative scenario."""
        return cls(policy=policy, scenario=scenario, **kwargs)

    def resolve_scenario(self) -> ScenarioSpec:
        """The fully resolved scenario this cell simulates."""
        if self.scenario is not None:
            return self.scenario.scaled(self.scale)
        scale = ExperimentScale(scale=self.scale)
        return ScenarioSpec.closed_loop(
            self.model_keys,
            duration_s=scale.duration_s,
            warmup_s=scale.warmup_s,
            qos_scale=self.qos_scale,
        )

    def resolve_faults(self) -> Optional[FaultSpec]:
        """The cell's fault schedule at the cell's scale (or ``None``)."""
        if self.faults is None:
            return None
        return self.faults.scaled(self.scale)

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (part of the cache key).

        The scenario itself is not embedded here: :func:`cell_cache_key`
        hashes the cell's *resolved* scenario alongside this dict, which
        already captures the arrival dynamics exactly once.
        """
        return {
            "policy": self.policy,
            "model_keys": list(self.model_keys),
            "qos_scale": self.qos_scale,
            "qos_mode": self.qos_mode,
            "scale": self.scale,
            "cache_bytes": self.cache_bytes,
            "seed": self.seed,
            "faults": (
                self.faults.to_dict() if self.faults is not None else None
            ),
        }


# ----------------------------------------------------------------------
# Persistent cell cache
# ----------------------------------------------------------------------

def default_cache_dir() -> Optional[Path]:
    """Resolved cache directory, or ``None`` when disabled via env."""
    return resolve_cache_dir(CACHE_DIR_ENV, "sweeps")


def cell_cache_key(cell: SweepCell, soc: SoCConfig) -> str:
    """Stable content hash identifying one cell on one SoC.

    Salted with the package version *and* a digest of the package's own
    source files, so any code edit — versioned or not — invalidates
    every cached result instead of silently replaying stale simulations.
    The key also hashes the cell's fully resolved scenario (arrival
    processes, tenancy timeline, per-stream QoS), so two cells that
    differ only in arrival dynamics can never share an entry, and
    pre-scenario cache entries (schema v1) are unreachable.
    """
    return stable_content_hash({
        "sweep_schema_version": SWEEP_SCHEMA_VERSION,
        "repro_version": __version__,
        "source_salt": source_content_salt(),
        "cell": cell.to_dict(),
        "scenario": cell.resolve_scenario().to_dict(),
        "soc": soc_config_to_dict(soc),
    })


def clear_sweep_cache() -> int:
    """Delete all cached cell results; returns the number removed."""
    cache_dir = default_cache_dir()
    if cache_dir is None or not cache_dir.is_dir():
        return 0
    removed = 0
    for entry in cache_dir.glob("*.json"):
        try:
            entry.unlink()
            removed += 1
        except OSError:
            continue
    return removed


def _load_cached(path: Path) -> Optional[SimulationResult]:
    """A cached result, or ``None`` on any miss/corruption.

    A missing entry is the normal cold-cache case.  An entry that exists
    but cannot be parsed (truncated write, disk corruption, stale bytes
    from a crashed process) is logged, unlinked and treated as a miss —
    the cell re-simulates and the entry is rebuilt transparently.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _LOG.warning("sweep cache entry %s unreadable (%s); ignoring",
                     path.name, exc)
        return None
    try:
        # Decoding inside the corruption guard: arbitrary on-disk bytes
        # (a torn write is not guaranteed to stay valid UTF-8).
        return simulation_result_from_dict(
            json.loads(raw.decode("utf-8"))
        )
    except Exception as exc:
        _LOG.warning(
            "sweep cache entry %s corrupt (%s); invalidating and "
            "re-simulating", path.name, exc,
        )
        try:
            path.unlink()
        except OSError:
            pass
        return None


def _store_cached(path: Path, result: SimulationResult) -> None:
    """Best-effort atomic write of one cell result."""
    atomic_write_text(path, json.dumps(simulation_result_to_dict(result)))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: Statistics of the most recent sweep or campaign in this process (the
#: runner surfaces these as its events/sec observability line).
_LAST_STATS: Dict[str, float] = {}

#: Per-cell failure records of the most recent sweep or campaign, in
#: cell order: cells whose simulation raised on every attempt.  Each
#: entry: ``{"index", "policy", "error"}``.
_LAST_FAILURES: List[Dict[str, object]] = []

#: Base pause before a serial retry in the parent, giving transient
#: conditions (a dying worker, memory pressure) time to clear.
RETRY_BACKOFF_S = 0.05

#: Serial retry attempts per cell after its first failure.
DEFAULT_CELL_RETRIES = 1


def last_sweep_stats() -> Dict[str, float]:
    """``{cells, cached_cells, recovered_cells, events, sim_wall_s,
    events_per_s, failed_cells}`` of the latest sweep or campaign (empty
    before the first).  ``recovered_cells`` counts cells a resumed
    campaign reloaded from its journal; it is 0 for sweeps."""
    return dict(_LAST_STATS)


def last_sweep_failures() -> List[Dict[str, object]]:
    """Cells of the latest sweep or campaign that failed every attempt,
    in cell order (empty on a fully successful run)."""
    return [dict(f) for f in _LAST_FAILURES]


def reset_sweep_stats() -> None:
    """Clear the latest-sweep statistics (callers that need to attribute
    stats to one harness invocation reset before it runs)."""
    _LAST_STATS.clear()
    _LAST_FAILURES.clear()


def _run_cell(args: tuple) -> SimulationResult:
    """Execute one cell (top-level so it pickles for worker processes).

    The cell's scenario is resolved from the spec alone (seeded arrival
    randomness included), so a cell simulates identically in-process or
    on any pool worker.  ``deadline_s`` arms the engine's wall-clock
    watchdog: a cell that hangs is killed by a diagnostic
    :class:`~repro.errors.SimulationError` instead of stalling the
    campaign (which retries it with backoff).
    """
    cell, soc, deadline_s = args
    if cell.cache_bytes is not None:
        soc = soc.with_cache_bytes(cell.cache_bytes)
    return run_scenario(
        cell.resolve_scenario(), soc, cell.policy,
        config=RunConfig(
            qos_mode=cell.qos_mode, faults=cell.resolve_faults(),
            max_wall_s=deadline_s,
        ),
    )


def _run_cell_shard(args: tuple) -> List[SimulationResult]:
    """Execute a batch of cells in one worker dispatch.

    Fleet grids run thousands of small cells; shipping them one future
    at a time drowns the simulation in pickling and IPC overhead.  A
    shard amortizes the round trip while every cell still simulates
    through :func:`_run_cell`, so results are byte-identical to
    unsharded execution.
    """
    shard, soc, deadline_s = args
    return [_run_cell((cell, soc, deadline_s)) for cell in shard]


def _submit_all(pool: ProcessPoolExecutor, fn: Callable,
                args: Iterable) -> List[Future]:
    """One future per ``fn(arg)``, in order; never raises.

    A worker that dies while the parent is still submitting breaks the
    pool, and ``submit`` then raises ``BrokenProcessPool``.  That cell
    and every one after it get an already-failed future instead, so the
    caller's per-cell error handling and serial retry take them like any
    other failed cell.
    """
    futures: List[Future] = []
    error: Optional[BrokenProcessPool] = None
    for arg in args:
        if error is None:
            try:
                futures.append(pool.submit(fn, arg))
                continue
            except BrokenProcessPool as exc:
                error = exc
        failed: Future = Future()
        failed.set_exception(error)
        futures.append(failed)
    return futures


def _retry_backoff_s(index: int, attempt: int) -> float:
    """Jittered, deterministic backoff before retrying one cell.

    Seeded by (cell, attempt) so concurrent campaigns de-synchronize
    their retries without making any run irreproducible.
    """
    rng = random.Random(f"retry:{index}:{attempt}")
    return RETRY_BACKOFF_S * attempt * rng.uniform(0.5, 1.5)


def _execute(
    cells: List[SweepCell],
    soc: SoCConfig,
    journal: Optional[CampaignJournal],
    done: Dict[int, SimulationResult],
    max_workers: Optional[int],
    use_cache: bool,
    deadline_s: Optional[float],
    shard_size: Optional[int],
) -> List[Optional[SimulationResult]]:
    """Run every cell not already in ``done``; results in cell order.

    The one executor behind :func:`run_sweep` (``journal=None``) and the
    campaign runners.  Each cell settles the moment its attempt ends: a
    failure is retried serially in the parent, a success is cached and,
    under a journal, committed, so a crash loses at most the cells in
    flight.  The stats and failure globals are written once, at the end.
    """
    results: List[Optional[SimulationResult]] = [
        done.get(i) for i in range(len(cells))
    ]
    cache_dir = default_cache_dir() if use_cache else None
    keys: Dict[int, str] = {}
    if cache_dir is not None:
        for i, cell in enumerate(cells):
            if results[i] is not None:
                continue
            keys[i] = cell_cache_key(cell, soc)
            results[i] = _load_cached(cache_dir / f"{keys[i]}.json")
            if results[i] is not None and journal is not None:
                # Hits commit like computed results, so the journal's
                # result files alone always describe the full grid.
                journal.commit(i, results[i])
    pending = [i for i, r in enumerate(results) if r is None]
    failures: List[Dict[str, object]] = []

    def attempt(i: int) -> Tuple[Optional[SimulationResult], Optional[str]]:
        """Run cell ``i`` in-process: its result, or its error."""
        try:
            return _run_cell((cells[i], soc, deadline_s)), None
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    def settle(i: int, result: Optional[SimulationResult],
               error: Optional[str]) -> None:
        for n in range(1, DEFAULT_CELL_RETRIES + 1):
            if result is not None:
                break
            _LOG.warning("cell %d (%s) failed: %s; retry %d/%d", i,
                         cells[i].policy, error, n, DEFAULT_CELL_RETRIES)
            time.sleep(_retry_backoff_s(i, n))
            result, error = attempt(i)
        if result is None:
            failures.append({"index": i, "policy": cells[i].policy,
                             "error": error})
            return
        if journal is not None:
            journal.commit(i, result)
        results[i] = result
        if i in keys:
            _store_cached(cache_dir / f"{keys[i]}.json", result)

    workers = max_workers
    if workers is None:
        workers = min(len(pending), os.cpu_count() or 1)
    if workers <= 1 or len(pending) <= 1:
        for i in pending:
            settle(i, *attempt(i))
    else:
        sharded = shard_size is not None and shard_size > 1
        step = shard_size if sharded else 1
        batches = [pending[k:k + step]
                   for k in range(0, len(pending), step)]
        args = [([cells[i] for i in batch] if sharded else cells[batch[0]],
                 soc, deadline_s) for batch in batches]

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # One future per cell or shard (not pool.map), so a raising
            # cell or a worker death fails only its own future.
            futures = dict(zip(_submit_all(
                pool, _run_cell_shard if sharded else _run_cell, args,
            ), batches))
            for future in as_completed(futures):
                batch = futures[future]
                try:
                    out = future.result()
                except Exception as exc:
                    # A failed shard fails all its cells; the per-cell
                    # retry then isolates the real culprit.
                    for i in batch:
                        settle(i, None, f"{type(exc).__name__}: {exc}")
                    continue
                for i, result in zip(batch, out if sharded else [out]):
                    settle(i, result, None)

    final = [r for r in results if r is not None]
    fresh = [results[i] for i in pending if results[i] is not None]
    fresh_wall = sum(r.wall_time_s for r in fresh)
    fresh_events = sum(r.events_processed for r in fresh)
    # Completion order is nondeterministic under a pool; report
    # failures in cell order.
    _LAST_FAILURES[:] = sorted(failures, key=lambda f: f["index"])
    _LAST_STATS.clear()
    _LAST_STATS.update({
        "cells": len(final),
        "cached_cells": len(cells) - len(pending) - len(done),
        "recovered_cells": float(len(done)),
        "events": sum(r.events_processed for r in final),
        "sim_wall_s": fresh_wall,
        "events_per_s":
            fresh_events / fresh_wall if fresh_wall > 0 else 0.0,
        "failed_cells": float(len(failures)),
    })
    return results


def run_sweep(
    cells: Sequence[SweepCell],
    soc: Optional[SoCConfig] = None,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    shard_size: Optional[int] = None,
) -> List[Optional[SimulationResult]]:
    """Run every cell and return results in cell order.

    Args:
        cells: the grid points to simulate.
        soc: base hardware configuration (defaults to paper Table II);
            per-cell ``cache_bytes`` overrides apply on top.
        max_workers: process count.  ``None`` picks
            ``min(len(cells), cpu_count)``; values <= 1 (or a single cell,
            or a single-core host) run serially in-process.
        use_cache: consult/populate the persistent cell cache (see
            :func:`default_cache_dir` / ``REPRO_SWEEP_CACHE_DIR``).
        shard_size: batch this many cells per worker dispatch (fleet
            grids of thousands of tiny cells amortize pickling/IPC this
            way).  ``None`` or 1 keeps per-cell dispatch.  Results are
            byte-identical either way; a failing shard falls back to
            per-cell retries so one bad cell cannot take down its
            shard-mates.  Only ephemeral sweeps shard: campaigns
            journal and dispatch every cell on its own.

    Each cell is simulated by a deterministic closed-loop engine run, so
    the results are identical whichever worker executes them — or whether
    they come from the cache at all.

    The sweep is fault tolerant: a cell whose simulation raises — or
    whose pool worker dies — does not abort the sweep.  As soon as its
    attempt fails, the cell is retried serially in the parent after a
    short jittered backoff (:data:`DEFAULT_CELL_RETRIES` times), and a
    cell that fails every attempt is reported through
    :func:`last_sweep_failures` (and the ``failed_cells`` stat) with a
    ``None`` placeholder at its position in the returned list.  Fully
    successful sweeps (the normal case) contain no ``None`` entries.
    """
    return _execute(list(cells), soc or SoCConfig(), None, {},
                    max_workers, use_cache, None, shard_size)


# ----------------------------------------------------------------------
# Crash-safe campaign runner (journal + committed results + resume)
# ----------------------------------------------------------------------

#: Journal format version; bump on any change to the header's shape.
CAMPAIGN_SCHEMA_VERSION = 1


def _cell_to_journal(cell: SweepCell) -> dict:
    data = cell.to_dict()
    data["scenario"] = (
        cell.scenario.to_dict() if cell.scenario is not None else None
    )
    return data


def _cell_from_journal(data: dict) -> SweepCell:
    scenario = data.get("scenario")
    faults = data.get("faults")
    return SweepCell(
        policy=data["policy"],
        model_keys=tuple(data["model_keys"]),
        qos_scale=data["qos_scale"],
        qos_mode=data["qos_mode"],
        scale=data["scale"],
        cache_bytes=data["cache_bytes"],
        seed=data["seed"],
        scenario=(
            ScenarioSpec.from_dict(scenario)
            if scenario is not None else None
        ),
        faults=(
            FaultSpec.from_dict(faults) if faults is not None else None
        ),
    )


class CampaignJournal:
    """Crash-safe record of one sweep campaign: a header file plus one
    committed result file per finished cell.

    The journal file is one JSON line, the header: the full cell grid
    and SoC, so a resume needs nothing but the journal.  A cell is done
    exactly when its result file ``<stem>.cells/<index>.json`` exists.
    :meth:`commit` writes it atomically and durably (temp file, fsync,
    rename), the one durable write per cell, and :meth:`create` writes
    the header the same way.

    Crash consistency: a SIGKILL at any instant leaves the header and
    every committed result complete, and no partial result visible.  A
    cell without a result file (in flight at the crash, or failed every
    attempt) simply re-runs on resume — cells are deterministic, so the
    merged grid is byte-identical to an uninterrupted campaign.
    Journals written before 1.17 also carry ``start``, ``done`` and
    ``failed`` records after the header; :meth:`read` ignores them.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    @property
    def result_dir(self) -> Path:
        """Sidecar directory holding per-cell committed results."""
        return self.path.with_name(self.path.stem + ".cells")

    @classmethod
    def create(cls, path, cells: Sequence[SweepCell],
               soc: SoCConfig) -> "CampaignJournal":
        """Start a new journal (refusing to clobber an existing one)."""
        journal = cls(path)
        journal.refuse_existing()
        write_text_atomic(journal.path, json.dumps({
            "kind": "header",
            "campaign_schema_version": CAMPAIGN_SCHEMA_VERSION,
            "repro_version": __version__,
            "soc": soc_config_to_dict(soc),
            "cells": [_cell_to_journal(cell) for cell in cells],
        }, sort_keys=True) + "\n")
        return journal

    def refuse_existing(self) -> None:
        """Raise :class:`WorkloadError` if the journal or its result
        directory exists: a new campaign never clobbers one that can
        still be resumed, and never takes results it did not compute
        (a leftover ``<stem>.cells/`` would count as done cells)."""
        if self.path.exists():
            raise WorkloadError(
                f"campaign journal {self.path} already exists; "
                f"resume it (--resume) or remove it first"
            )
        if self.result_dir.exists():
            raise WorkloadError(
                f"campaign result directory {self.result_dir} already "
                f"exists without its journal; remove it first"
            )

    def commit(self, index: int, result: SimulationResult) -> None:
        """Durably commit one cell's result, which marks it done."""
        write_text_atomic(
            self.result_dir / f"{index}.json",
            json.dumps(simulation_result_to_dict(result), sort_keys=True),
        )

    def load_result(self, index: int) -> Optional[SimulationResult]:
        """The committed result of one cell, or ``None``."""
        return _load_cached(self.result_dir / f"{index}.json")

    def header(self) -> Tuple[List[SweepCell], SoCConfig]:
        """The cell grid and SoC recorded in the journal's header.

        Reads the first line only and loads no result, so checking what
        a journal holds costs one header decode, not a replay.

        Raises:
            WorkloadError: the file is unreadable, not a campaign
                journal, or an unsupported schema version.
        """
        try:
            with open(self.path, encoding="utf-8", errors="replace") as fh:
                first = fh.readline()
        except OSError as exc:
            raise WorkloadError(
                f"cannot read campaign journal {self.path}: {exc}"
            ) from exc
        try:
            header = json.loads(first)
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise WorkloadError(f"{self.path} is not a campaign journal")
        version = header.get("campaign_schema_version")
        if version != CAMPAIGN_SCHEMA_VERSION:
            raise WorkloadError(
                f"unsupported campaign journal schema {version!r} "
                f"(expected {CAMPAIGN_SCHEMA_VERSION})"
            )
        return ([_cell_from_journal(d) for d in header["cells"]],
                soc_config_from_dict(header["soc"]))

    def read(self) -> Tuple[List[SweepCell], SoCConfig,
                            Dict[int, SimulationResult]]:
        """``(cells, soc, done)``: the header's grid and SoC, and the
        committed result of every done cell by index.

        Each cell's result file is loaded once, so a resume costs
        O(cells).  A result file that cannot be read counts as not done
        (the cell re-runs).

        Raises:
            WorkloadError: as :meth:`header`.
        """
        cells, soc = self.header()
        done: Dict[int, SimulationResult] = {}
        for index in range(len(cells)):
            result = self.load_result(index)
            if result is not None:
                done[index] = result
        return cells, soc, done


def run_campaign(
    cells: Sequence[SweepCell],
    journal_path,
    soc: Optional[SoCConfig] = None,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    deadline_s: Optional[float] = None,
) -> List[Optional[SimulationResult]]:
    """Run a cell grid under a crash-safe journal.

    Semantically :func:`run_sweep` plus durability: the journal header
    records the grid, each result is committed atomically and durably
    as it lands (see :class:`CampaignJournal`), and a campaign killed at
    any instant resumes from the journal with :func:`resume_campaign`,
    skipping committed cells and re-running the rest — producing a
    result grid byte-identical to an uninterrupted campaign.  Failed
    cells are retried and reported as in :func:`run_sweep`.

    Args:
        cells: the grid points to simulate.
        journal_path: where to write the journal; results commit to
            the ``<stem>.cells/`` sidecar directory.  Neither may exist
            yet.
        soc: base hardware configuration (defaults to paper Table II).
        max_workers: process count (as :func:`run_sweep`).
        use_cache: consult/populate the persistent cell cache; hits are
            committed like computed results.
        deadline_s: per-cell wall-clock watchdog — a cell exceeding it
            is killed (diagnostic engine error) and retried with
            jittered backoff like any other failure.

    Raises:
        WorkloadError: ``deadline_s`` is negative or NaN (before the
            journal is created), or the journal or its result directory
            already exists.
    """
    check_seconds("deadline_s", deadline_s)
    soc = soc or SoCConfig()
    cells = list(cells)
    journal = CampaignJournal.create(journal_path, cells, soc)
    return _execute(cells, soc, journal, {}, max_workers, use_cache,
                    deadline_s, None)


def resume_campaign(
    journal_path,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    deadline_s: Optional[float] = None,
) -> List[Optional[SimulationResult]]:
    """Resume a crashed (or previously failed) campaign from its journal.

    Cells with a committed result file are served from it; every other
    cell (in flight at a crash, or failed) re-runs.  Cells are
    deterministic, so the merged grid is byte-identical to an
    uninterrupted campaign.

    Raises:
        WorkloadError: ``deadline_s`` is negative or NaN (before the
            journal is opened), or ``journal_path`` is not a readable
            campaign journal.
    """
    check_seconds("deadline_s", deadline_s)
    journal = CampaignJournal(journal_path)
    cells, soc, done = journal.read()
    return _execute(cells, soc, journal, done, max_workers, use_cache,
                    deadline_s, None)
