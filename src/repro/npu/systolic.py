"""Weight-stationary systolic-array timing model (SCALE-Sim style).

A ``rows x cols`` weight-stationary array processes a GEMM
``[M, K] x [K, N]`` in passes: each pass loads a ``rows x cols`` weight tile
(``K`` mapped to rows, ``N`` to columns), streams ``M`` activations through,
and drains partial sums.  Pass latency is ``M + rows + cols - 2`` cycles and
``ceil(K/rows) * ceil(N/cols)`` passes are needed.

This captures the first-order behaviour the paper's experiments depend on:
depth-wise convolutions (tiny ``K``) waste array rows, so their time is
bounded by activation streaming rather than MACs, making them memory-
dominated — exactly the workloads CaMDN accelerates most (Figure 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import NPUConfig
from ..models.layers import LayerKind, LayerSpec

#: Vector (SIMD) lanes used for pooling / element-wise layers.
_VECTOR_LANES = 32


@dataclass(frozen=True)
class SystolicModel:
    """Timing model bound to one NPU configuration."""

    npu: NPUConfig

    def gemm_cycles(self, m: int, n: int, k: int) -> int:
        """Cycles for one dense GEMM ``[m,k] x [k,n]`` (weight-stationary)."""
        rows, cols = self.npu.pe_rows, self.npu.pe_cols
        passes = math.ceil(k / rows) * math.ceil(n / cols)
        return passes * (m + rows + cols - 2)

    def layer_cycles(self, layer: LayerSpec) -> int:
        """Cycles to execute ``layer`` on one NPU core."""
        if layer.kind in (LayerKind.POOL, LayerKind.ELEMWISE):
            # Vector unit: one lane-wide operation per cycle.
            return math.ceil(layer.macs / _VECTOR_LANES)
        cycles = layer.groups * self.gemm_cycles(layer.m, layer.n, layer.k)
        if layer.kind is LayerKind.DWCONV:
            # Depth-wise kernels also pay an im2col/regroup overhead on the
            # activation path that the pure pass formula misses.
            cycles = math.ceil(cycles / self.npu.dwconv_efficiency) \
                if self.npu.dwconv_efficiency < 1.0 else cycles
        return max(cycles, 1)
