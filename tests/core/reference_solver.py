"""Frozen exhaustive reference implementation of the subspace solver.

This is a verbatim, memo-free copy of ``SubspaceSolver.solve`` and
``solve_subspace`` as of version 1.7.0, with the limit-filtered subspace
enumeration of that version's ``HeuristicRules.subspaces``: at every
usage level it enumerates each (pinning, innermost) subspace that fits
the limit, builds a validated ``TilingChoice`` for every tiling, and
keeps the first strictly better candidate by (DRAM, cache, scratchpad).
It is the equivalence oracle for the footprint-table solver in
``repro.core.mapper.solver``: ``test_solver_equivalence.py`` requires
equal answers, and byte-identical mapping files, from both.  (Imported
without a package prefix: pytest puts this directory on ``sys.path``
because ``tests/`` is not a package.)

Do not optimize or "fix" this module: its value is being the slow,
obviously-correct search over every candidate.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.config import NPUConfig
from repro.core.mapper.dram_model import (
    PINNABLE,
    TilingChoice,
    dram_traffic_bytes,
    pinned_cache_bytes,
    scratchpad_bytes,
)
from repro.core.mapper.heuristics import HeuristicRules, Subspace
from repro.core.mapper.loopnest import GEMMShape
from repro.core.mapper.solver import SolvedMapping
from repro.errors import MappingError


def reference_subspaces(shape: GEMMShape, usage_limit_bytes: int,
                        dtype_bytes: int = 1) -> List[Subspace]:
    """Disjoint (pinning, innermost) subspaces worth solving.

    Rules applied:

    * a pinned subset must fit ``usage_limit_bytes`` outright;
    * with a zero limit, only the empty pin set survives;
    * pinning a tensor that the innermost loop never refetches is
      dominated and dropped.
    """
    sizes = {
        "weight": shape.weight_elems * dtype_bytes,
        "input": shape.input_elems * dtype_bytes,
        "output": shape.output_elems * dtype_bytes,
    }
    never_refetched = {"m": "weight", "n": "input", "k": "output"}
    subspaces: List[Subspace] = []
    for r in range(len(PINNABLE) + 1):
        for combo in itertools.combinations(PINNABLE, r):
            pinned = frozenset(combo)
            if sum(sizes[t] for t in pinned) > usage_limit_bytes:
                continue
            for innermost in ("m", "n", "k"):
                if never_refetched[innermost] in pinned:
                    continue
                subspaces.append(Subspace(pinned, innermost))
    return subspaces


class ReferenceSolver:
    """Exhaustive search, one full enumeration per ``solve`` call."""

    def __init__(self, npu: NPUConfig, dtype_bytes: int = 1) -> None:
        self.npu = npu
        self.dtype_bytes = dtype_bytes
        self.rules = HeuristicRules(npu=npu, dtype_bytes=dtype_bytes)

    def solve_subspace(
        self,
        shape: GEMMShape,
        subspace: Subspace,
        usage_limit_bytes: int,
        lbm_input: bool = False,
        lbm_output: bool = False,
    ) -> Optional[SolvedMapping]:
        """Best tiling within one (pinning, innermost) subspace.

        Returns ``None`` when no tiling satisfies the scratchpad and
        cache-usage constraints.
        """
        best: Optional[SolvedMapping] = None
        for tm, tn, tk in self.rules.tile_space(shape):
            choice = TilingChoice(
                tm=tm, tn=tn, tk=tk,
                innermost=subspace.innermost,
                pinned=subspace.pinned,
                lbm_input=lbm_input,
                lbm_output=lbm_output,
            )
            cache_bytes = pinned_cache_bytes(shape, choice,
                                             self.dtype_bytes)
            if cache_bytes > usage_limit_bytes:
                continue
            dram = dram_traffic_bytes(shape, choice, self.dtype_bytes)
            spad = scratchpad_bytes(choice, self.dtype_bytes)
            candidate = SolvedMapping(
                choice=choice,
                dram_bytes=dram,
                cache_bytes=cache_bytes,
                scratchpad_bytes=spad,
            )
            if best is None or self._better(candidate, best):
                best = candidate
        return best

    def solve(
        self,
        shape: GEMMShape,
        usage_limit_bytes: int,
        lbm_input: bool = False,
        lbm_output: bool = False,
    ) -> SolvedMapping:
        """Best tiling across all subspaces at one cache-usage level.

        Raises:
            MappingError: no feasible mapping exists.
        """
        best: Optional[SolvedMapping] = None
        for subspace in reference_subspaces(shape, usage_limit_bytes,
                                            self.dtype_bytes):
            solved = self.solve_subspace(
                shape, subspace, usage_limit_bytes,
                lbm_input=lbm_input, lbm_output=lbm_output,
            )
            if solved is None:
                continue
            if best is None or self._better(solved, best):
                best = solved
        if best is None:
            raise MappingError(
                f"no feasible mapping for GEMM {shape} at "
                f"{usage_limit_bytes} B cache"
            )
        return best

    @staticmethod
    def _better(a: SolvedMapping, b: SolvedMapping) -> bool:
        """Primary objective: DRAM traffic; ties prefer fewer cache bytes,
        then smaller scratchpad footprints (leaves room for fusion)."""
        return (a.dram_bytes, a.cache_bytes, a.scratchpad_bytes) < \
            (b.dram_bytes, b.cache_bytes, b.scratchpad_bytes)
