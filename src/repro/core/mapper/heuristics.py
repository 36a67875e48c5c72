"""Problem-space shrinking heuristics (Section III-C1).

The paper's layer mapper "first shrinks the problem space according to a set
of heuristic rules [that] improve the utilization of cache line, NPU-private
storage and compute resource, and reduce the choices of loop permutation".
This module encodes those rules:

1. **PE alignment** — tile sizes along ``n`` and ``k`` are multiples of the
   PE-array columns/rows (full cache lines and full array utilization);
   ``m`` tiles are multiples of the array height for full pipelining.
2. **Scratchpad fit** — tile working sets (double-buffered) must fit the
   256 KiB private scratchpad; oversized tiles are discarded before the
   solver runs.
3. **Permutation pruning** — only the innermost tile loop changes
   first-order DRAM traffic, so the 6 loop permutations collapse to 3
   innermost choices.
4. **Pin dominance** — pinning a tensor only pays when the tiling refetches
   it, so subspaces that pin a never-refetched tensor are dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Tuple

from ...config import NPUConfig
from .dram_model import PINNABLE, scratchpad_bytes
from .loopnest import GEMMShape, tile_candidates


@dataclass(frozen=True)
class Subspace:
    """One disjoint solver subspace: a pinning subset and innermost loop."""

    pinned: FrozenSet[str]
    innermost: str


@dataclass
class HeuristicRules:
    """Configured pruning rules bound to an NPU configuration."""

    npu: NPUConfig
    dtype_bytes: int = 1
    max_tiles_per_dim: int = 8
    _stats: dict = field(default_factory=dict)

    def tile_space(self, shape: GEMMShape) -> Iterator[Tuple[int, int, int]]:
        """Yield PE-aligned, scratchpad-feasible (tm, tn, tk) triples."""
        tms = tile_candidates(shape.m, self.npu.pe_rows,
                              self.max_tiles_per_dim)
        tns = tile_candidates(shape.n, self.npu.pe_cols,
                              self.max_tiles_per_dim)
        tks = tile_candidates(shape.k, self.npu.pe_rows,
                              self.max_tiles_per_dim)
        total = kept = 0
        for tm, tn, tk in itertools.product(tms, tns, tks):
            total += 1
            if scratchpad_bytes(tm, tn, tk, self.dtype_bytes) > \
                    self.npu.scratchpad_bytes:
                continue
            kept += 1
            yield (tm, tn, tk)
        self._stats["tile_space_total"] = total
        self._stats["tile_space_kept"] = kept

    def subspaces(self) -> List[Subspace]:
        """Disjoint (pinning, innermost) subspaces worth solving.

        Pinning a tensor that the innermost loop never refetches is
        dominated, so such subspaces are dropped.  Whether a pin set fits
        a cache-usage limit is the solver's check, against the
        subspace's whole footprint.
        """
        subspaces: List[Subspace] = []
        for r in range(len(PINNABLE) + 1):
            for combo in itertools.combinations(PINNABLE, r):
                pinned = frozenset(combo)
                for innermost in ("m", "n", "k"):
                    if self._pin_dominated(pinned, innermost):
                        continue
                    subspaces.append(Subspace(pinned, innermost))
        return subspaces

    @staticmethod
    def _pin_dominated(pinned: FrozenSet[str], innermost: str) -> bool:
        """A pinned tensor that this innermost choice never refetches can
        be dropped: the pin buys nothing and only costs pages."""
        never_refetched = {"m": "weight", "n": "input", "k": "output"}
        return never_refetched[innermost] in pinned

    @property
    def stats(self) -> dict:
        """Pruning statistics from the last :meth:`tile_space` call."""
        return dict(self._stats)
