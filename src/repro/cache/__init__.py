"""Shared-cache substrate: the transparent-cache traffic model."""

from .transparent import (
    AccessSegment,
    TransparentCacheModel,
    layer_access_segments,
)

__all__ = [
    "AccessSegment",
    "TransparentCacheModel",
    "layer_access_segments",
]
