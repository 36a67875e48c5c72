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

It also holds the DRAM-traffic reference both solvers' sums must equal
(``dram_traffic_bytes``, which the ISA oracle checks instruction by
instruction) and the loop-order derivation of the refetch multipliers
that ``dram_model.order_refetch_factors`` writes in closed form
(``reference_refetch_factors``).

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
    pinned_cache_bytes,
    refetch_factors,
    scratchpad_bytes,
)
from repro.core.mapper.heuristics import HeuristicRules, Subspace
from repro.core.mapper.loopnest import GEMMShape
from repro.core.mapper.solver import SolvedMapping
from repro.errors import MappingError


#: Tile-loop iteration order per innermost choice (outermost first); must
#: match ``_LOOP_ORDERS`` of the instruction-level oracle
#: ``reference_isa.py``.
LOOP_ORDERS = {
    "m": ("k", "n", "m"),
    "n": ("k", "m", "n"),
    "k": ("m", "n", "k"),
}


def _reload_factor(order: tuple, trips: dict, invariant: str) -> int:
    """Times a tensor invariant to loop ``invariant`` is streamed.

    A tile is reloaded when its identity changed since it was last held in
    scratchpad.  For the loop invariant to the tensor:

    * innermost — consecutive iterations reuse the held tile: factor 1;
    * middle — tiles cycle with the innermost loop, so each middle-loop
      iteration revisits them ... unless the innermost loop has a single
      tile, in which case the held tile survives: factor ``trips`` or 1;
    * outermost — every outer iteration replays the whole tile space
      unless that space is a single tile.
    """
    position = order.index(invariant)
    if position == 2:  # innermost
        return 1
    if position == 1:  # middle
        innermost = order[2]
        return trips[invariant] if trips[innermost] > 1 else 1
    varying = [dim for dim in order if dim != invariant]
    tile_space = trips[varying[0]] * trips[varying[1]]
    return trips[invariant] if tile_space > 1 else 1


def reference_refetch_factors(trips: dict, innermost: str) -> dict:
    """Per-tensor transfer multipliers of a tiling with tile ``trips``
    (``{"m": .., "n": .., "k": ..}``), derived from the loop order as
    ``dram_model.refetch_factors`` did up to version 1.15.0.

    The weight is invariant to ``m``, the input to ``n`` and the output to
    ``k``.  Output partial sums additionally pay a reload on each spill:
    a factor ``f`` of k-revisits costs ``2f - 1`` transfers.
    """
    order = LOOP_ORDERS[innermost]
    weight = _reload_factor(order, trips, "m")
    input_ = _reload_factor(order, trips, "n")
    # Output: invariant to k; each extra visit spills and reloads.
    visits = _reload_factor(order, trips, "k")
    if visits > 1:
        # The k loop is outermost in every non-k-innermost order, so each
        # of the trips[k] passes revisits the live tiles; the spill count
        # follows the number of unfinished departures.
        output = 2 * trips["k"] - 1
    else:
        output = 1
    return {"weight": weight, "input": input_, "output": output}


def dram_traffic_bytes(
    shape: GEMMShape,
    choice: TilingChoice,
    dtype_bytes: int = 1,
) -> float:
    """Predicted DRAM traffic (bytes) for one layer under ``choice``."""
    factors = refetch_factors(shape, choice)
    sizes = {
        "weight": shape.weight_elems * dtype_bytes,
        "input": shape.input_elems * dtype_bytes,
        "output": shape.output_elems * dtype_bytes,
    }
    traffic = 0.0
    for tensor, size in sizes.items():
        if tensor == "input" and choice.lbm_input:
            continue  # produced into cache by the previous block layer
        if tensor == "output" and choice.lbm_output:
            continue  # consumed from cache by the next block layer
        if tensor in choice.pinned:
            traffic += size  # one compulsory transfer, refetches hit cache
        else:
            traffic += size * factors[tensor]
    return traffic


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
            spad = scratchpad_bytes(choice.tm, choice.tn, choice.tk,
                                    self.dtype_bytes)
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
