"""Float totals with a fixed evaluation order.

From Python 3.12 on, ``sum()`` over floats compensates rounding error
(Neumaier summation), while the native stepper and ``sum()`` up to 3.11
add left to right.  Every total that feeds a bandwidth share, a share
weight or a reported mean goes through :func:`left_sum`, so results are
the same floats on every Python version and on every engine path.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...`` — the float ``sum()`` of Python 3.11."""
    total = 0.0
    for value in values:
        total += value
    return total
