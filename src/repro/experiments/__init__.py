"""Experiment harnesses: one module per paper table/figure.

Each module exposes a ``run_*`` function returning structured rows plus a
``format_*`` helper that prints them the way the paper reports them.  The
:mod:`~repro.experiments.runner` CLI regenerates any experiment::

    python -m repro.experiments.runner fig2
    python -m repro.experiments.runner all --scale 0.5

Importing the package imports none of its modules: ``repro.run`` needs
only :mod:`~repro.experiments.common`, and the sweep machinery pulls in
``multiprocessing``, ``concurrent.futures`` and ``logging``.  The names
below, and every submodule, load on first access (PEP 562).
"""

from __future__ import annotations

import importlib
import importlib.util

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "ExperimentScale": "common",
    "isolated_latencies": "common",
    "SweepCell": "sweep",
    "run_sweep": "sweep",
    "Fig2Row": "fig2_motivation",
    "run_fig2": "fig2_motivation",
    "format_fig2": "fig2_motivation",
    "Fig3Row": "fig3_reuse",
    "run_fig3": "fig3_reuse",
    "format_fig3": "fig3_reuse",
    "Fig7Row": "fig7_speedup",
    "run_fig7": "fig7_speedup",
    "format_fig7": "fig7_speedup",
    "Fig8Row": "fig8_scaling",
    "run_fig8": "fig8_scaling",
    "format_fig8": "fig8_scaling",
    "Fig9Row": "fig9_qos",
    "run_fig9": "fig9_qos",
    "format_fig9": "fig9_qos",
    "run_table3": "table3_area",
    "format_table3": "table3_area",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import a re-exported name's submodule, or a submodule, on first
    access; later lookups find the name bound here."""
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__),
                        name)
    elif importlib.util.find_spec(f"{__name__}.{name}") is not None:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
