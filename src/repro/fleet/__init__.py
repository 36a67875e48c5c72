"""Fleet-scale simulation: device populations over the single-SoC core.

The ROADMAP north star is population scale — "what does the p99 user
experience look like across millions of devices" — while one engine
simulates one SoC.  This package closes the gap in three layers:

* :mod:`repro.fleet.spec` — :class:`FleetSpec`: a seeded, declarative
  device population (hardware mix, workload distribution, Monte Carlo
  axis) that expands deterministically into campaign cells.
* :mod:`repro.fleet.digest` / :mod:`repro.fleet.aggregate` — the
  mergeable :class:`QuantileDigest` and :class:`FleetAccumulator`
  folding per-device summaries into population percentiles with an
  O(bins) accumulator (the run still holds every cell's result; see
  :mod:`repro.fleet.aggregate`).
* :mod:`repro.fleet.runner` — :func:`run_fleet` / :func:`resume_fleet`
  over the journaled, crash-safe campaign machinery, plus the sharded
  ephemeral path.

Spec and aggregation types import eagerly (they are leaves); the runner
loads lazily because it pulls the experiments layer, which imports the
package root.
"""

from __future__ import annotations

from .aggregate import (
    FLEET_AXES,
    FleetAccumulator,
    aggregate_summaries,
)
from .digest import DEFAULT_MAX_BINS, QuantileDigest
from .spec import (
    FLEET_SCHEMA_VERSION,
    DeviceClass,
    FleetSpec,
    ScenarioDraw,
    reseed_arrivals,
    scale_arrivals,
)

__all__ = [
    "FLEET_AXES",
    "FLEET_SCHEMA_VERSION",
    "DEFAULT_MAX_BINS",
    "DeviceClass",
    "FleetAccumulator",
    "FleetResult",
    "FleetSpec",
    "QuantileDigest",
    "ScenarioDraw",
    "aggregate_summaries",
    "read_fleet_sidecar",
    "reseed_arrivals",
    "resume_fleet",
    "run_fleet",
    "scale_arrivals",
    "write_fleet_sidecar",
]

#: Runner names resolved lazily (the runner module imports the
#: experiments layer, which imports the package root for __version__).
_RUNNER_NAMES = frozenset((
    "FleetResult", "run_fleet", "resume_fleet",
    "read_fleet_sidecar", "write_fleet_sidecar",
))


def __getattr__(name: str):
    if name in _RUNNER_NAMES:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
