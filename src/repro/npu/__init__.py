"""NPU substrate: systolic-array timing."""

from .systolic import SystolicModel, compute_cycles

__all__ = [
    "SystolicModel",
    "compute_cycles",
]
