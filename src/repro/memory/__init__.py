"""DRAM substrate: functional backing store and bandwidth models."""

from .dram import DRAMTimingModel, MainMemory
from .bwalloc import DemandProportionalPolicy, SlackWeightedPolicy

__all__ = [
    "MainMemory",
    "DRAMTimingModel",
    "DemandProportionalPolicy",
    "SlackWeightedPolicy",
]
