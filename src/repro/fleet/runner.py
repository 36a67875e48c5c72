"""Fleet execution: expand, simulate, aggregate — resumable end to end.

:func:`run_fleet` expands a :class:`~repro.fleet.spec.FleetSpec` into
campaign cells and runs them through the existing sweep machinery:

* **Ephemeral fleets** (``journal_path=None``) go through
  :func:`~repro.experiments.sweep.run_sweep` with shard batching, so
  thousands of tiny device cells amortize worker dispatch.  Shards
  apply only here.
* **Journaled fleets** go through the crash-safe campaign runner
  (:func:`~repro.experiments.sweep.run_campaign`), which commits and
  dispatches every cell on its own; a ``.fleet.json`` sidecar written
  next to the journal records the spec (plus its content hash), so
  :func:`resume_fleet` — or ``--resume`` on the CLI — picks a SIGKILLed
  fleet back up and produces the byte-identical population summary.

Aggregation always folds per-device summaries in canonical cell order
(the order :meth:`FleetSpec.expand` emits), which is what makes fleet
percentiles identical under any ``--jobs`` setting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..config import SoCConfig
from ..core.serialize import fleet_spec_content_hash, write_text_atomic
from ..errors import WorkloadError
from ..experiments.sweep import (
    CampaignJournal,
    SweepCell,
    last_sweep_failures,
    resume_campaign,
    run_campaign,
    run_sweep,
)
from ..runconfig import check_seconds
from .aggregate import FleetAccumulator
from .digest import DEFAULT_MAX_BINS
from .spec import FleetSpec

#: Default cells per worker dispatch for ephemeral fleet sweeps.
DEFAULT_SHARD_SIZE = 8


def fleet_sidecar_path(journal_path) -> Path:
    """The fleet-spec sidecar next to a campaign journal."""
    path = Path(journal_path)
    return path.with_name(path.stem + ".fleet.json")


def write_fleet_sidecar(journal_path, spec: FleetSpec) -> Path:
    """Durably record the fleet spec next to its journal (atomic).

    Raises:
        OSError: the sidecar could not be written (no temp file is left
            behind); a fleet without its sidecar cannot be resumed.
    """
    sidecar = fleet_sidecar_path(journal_path)
    payload = {
        "fleet": spec.to_dict(),
        "content_hash": fleet_spec_content_hash(spec),
    }
    write_text_atomic(sidecar, json.dumps(payload, sort_keys=True))
    return sidecar


def read_fleet_sidecar(journal_path) -> FleetSpec:
    """Reload the fleet spec recorded next to a journal.

    Raises:
        WorkloadError: the sidecar is missing, unreadable, corrupt, or
            its recorded content hash no longer matches the spec.
    """
    sidecar = fleet_sidecar_path(journal_path)
    try:
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise WorkloadError(
            f"no fleet sidecar at {sidecar}; was this journal started "
            f"by run_fleet?"
        ) from None
    except (OSError, ValueError) as exc:
        raise WorkloadError(
            f"cannot read fleet sidecar {sidecar}: {exc}"
        ) from exc
    spec = FleetSpec.from_dict(payload["fleet"])
    recorded = payload.get("content_hash")
    actual = fleet_spec_content_hash(spec)
    if recorded != actual:
        raise WorkloadError(
            f"fleet sidecar {sidecar} content hash mismatch "
            f"({recorded!r} != {actual!r}); the sidecar was edited or "
            f"corrupted"
        )
    return spec


@dataclass
class FleetResult:
    """One fleet run: the population view plus per-cell detail.

    Attributes:
        spec: the fleet that ran.
        results: per-cell results in canonical ``(device, replica)``
            order (``None`` placeholders mark cells that failed all
            retries or measured no inference).
        accumulator: the streaming aggregation over all measured cells.
        failures: per-cell failure records in cell order: those of the
            underlying sweep, plus ``"no measured inferences"`` for a
            device whose every completion fell in warm-up (empty on a
            clean fleet).
    """

    spec: FleetSpec
    results: List
    accumulator: FleetAccumulator
    failures: List[dict] = field(default_factory=list)

    @property
    def completed_devices(self) -> int:
        return self.accumulator.devices

    def fleet_summary(self) -> dict:
        """Population statistics (see
        :meth:`FleetAccumulator.fleet_summary`)."""
        return self.accumulator.fleet_summary()


def _aggregate(spec: FleetSpec, cells: List[SweepCell], results: List,
               max_bins: int) -> FleetResult:
    """Fold the measured cells of a finished fleet.

    A device that measured no inference has no summary to fold, so it
    becomes a ``None`` placeholder and a failure record, like a failed
    cell; the fleet, and every resume of its journal, still aggregates.
    """
    failures = last_sweep_failures()
    accumulator = FleetAccumulator(max_bins=max_bins)
    for i in accumulator.fold_results(results):
        results[i] = None
        failures.append({"index": i, "policy": cells[i].policy,
                         "error": "no measured inferences"})
    failures.sort(key=lambda f: f["index"])
    return FleetResult(
        spec=spec,
        results=results,
        accumulator=accumulator,
        failures=failures,
    )


def run_fleet(
    spec: FleetSpec,
    soc: Optional[SoCConfig] = None,
    journal_path=None,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    deadline_s: Optional[float] = None,
    shard_size: Optional[int] = DEFAULT_SHARD_SIZE,
    max_bins: int = DEFAULT_MAX_BINS,
) -> FleetResult:
    """Simulate a device population and aggregate it.

    Args:
        spec: the fleet to simulate.
        soc: base hardware configuration every device starts from
            (defaults to paper Table II); per-device-class
            ``cache_bytes`` overrides apply on top.
        journal_path: when given, run under the crash-safe campaign
            journal (plus a ``.fleet.json`` spec sidecar) so the fleet
            is resumable with :func:`resume_fleet`; ``None`` runs an
            ephemeral sharded sweep.
        max_workers: process count (``None`` = one per core, capped by
            cell count; ``1`` forces serial in-process execution).
        use_cache: consult/populate the persistent cell cache.
        deadline_s: per-cell wall-clock watchdog (journaled fleets).
        shard_size: cells per worker dispatch on the ephemeral path
            (journaled fleets dispatch per cell).
        max_bins: accuracy/memory budget of the population digests.

    Returns:
        The :class:`FleetResult`; its :meth:`~FleetResult.fleet_summary`
        is identical for any ``max_workers`` and across resume cycles.
    """
    cells = spec.expand()
    if journal_path is not None:
        # Refuse before writing the sidecar, so a refused run leaves
        # the existing fleet's sidecar, and its resume, intact.
        check_seconds("deadline_s", deadline_s)
        CampaignJournal(journal_path).refuse_existing()
        write_fleet_sidecar(journal_path, spec)
        results = run_campaign(
            cells, journal_path, soc=soc, max_workers=max_workers,
            use_cache=use_cache, deadline_s=deadline_s,
        )
    else:
        results = run_sweep(
            cells, soc=soc, max_workers=max_workers,
            use_cache=use_cache, shard_size=shard_size,
        )
    return _aggregate(spec, cells, results, max_bins)


def resume_fleet(
    journal_path,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    deadline_s: Optional[float] = None,
    max_bins: int = DEFAULT_MAX_BINS,
) -> FleetResult:
    """Resume a crashed (or interrupted) journaled fleet.

    Completed device cells reload from their committed results;
    in-flight ones re-run.  Cells are deterministic, so the resumed
    fleet's population summary is byte-identical to an uninterrupted
    run.

    Raises:
        WorkloadError: the journal or its fleet sidecar is unreadable,
            or the journal's cells are not the ones the sidecar's spec
            expands to (checked before any cell runs).
    """
    spec = read_fleet_sidecar(journal_path)
    cells, _soc = CampaignJournal(journal_path).header()
    if cells != spec.expand():
        raise WorkloadError(
            f"fleet journal {journal_path} does not hold the cells its "
            f"sidecar spec expands to ({len(cells)} in the journal, "
            f"{spec.num_cells} in the spec); journal and sidecar disagree"
        )
    results = resume_campaign(
        journal_path, max_workers=max_workers, use_cache=use_cache,
        deadline_s=deadline_s,
    )
    return _aggregate(spec, cells, results, max_bins)
