"""NPU substrate: systolic-array timing."""

from .systolic import SystolicModel

__all__ = [
    "SystolicModel",
]
