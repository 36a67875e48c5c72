"""DRAM substrate: bandwidth-share policies."""

from .bwalloc import DemandProportionalPolicy, SlackWeightedPolicy

__all__ = [
    "DemandProportionalPolicy",
    "SlackWeightedPolicy",
]
