"""Reference NPU instruction generator: the oracle for the traffic model.

After the dynamic allocator selects a mapping candidate and its pages are
granted, the runtime "generates & sends NPU instructions" for the layer
(Figure 6, right).  This module lowers a tiling that way: it walks the
candidate's tile loops in the mapped order and emits tile-granular
LOAD / EXEC / STORE instructions carrying the NEC semantics each tensor
uses (cached reads for pinned tensors, bypass for streamed ones, spills for
partial sums).

The generator derives data movement from the *loop iteration structure* —
a tile is (re)loaded exactly when its identity changes between consecutive
iterations — rather than from the closed-form refetch factors of
:mod:`repro.core.mapper.dram_model`.  ``test_isa.py`` uses this
independence to cross-validate the analytic model: for divisible tilings
the generated DRAM traffic equals the closed form exactly.  The simulator
never runs it; it charges traffic from the closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from reference_solver import dram_traffic_bytes
from repro.core.mapper.dram_model import TilingChoice
from repro.core.mapper.loopnest import GEMMShape, trip_count
from repro.errors import MappingError


class NPUOp(enum.Enum):
    """Tile-granular NPU instruction opcodes."""

    LOAD_TILE = "load"          # DRAM or cache -> scratchpad
    STORE_TILE = "store"        # scratchpad -> DRAM or cache
    SPILL_TILE = "spill"        # partial sums: scratchpad -> DRAM
    RELOAD_TILE = "reload"      # partial sums: DRAM -> scratchpad
    EXEC_TILE = "exec"          # systolic pass over the current tiles


class Source(enum.Enum):
    """Where a moved tile lives on the far side of the scratchpad."""

    DRAM = "dram"
    CACHE = "cache"


@dataclass(frozen=True)
class NPUInstr:
    """One NPU instruction.

    Attributes:
        op: opcode.
        tensor: ``"weight"`` / ``"input"`` / ``"output"`` (EXEC: ``""``).
        tile: tile identity in the tensor's index space.
        elems: elements moved (EXEC: MACs performed).
        source: far-side location for data movement ops.
    """

    op: NPUOp
    tensor: str
    tile: Tuple[int, ...]
    elems: int
    source: Optional[Source] = None


@dataclass
class ProgramStats:
    """Traffic/compute totals of a generated layer program."""

    dram_elems: int = 0
    cache_elems: int = 0
    macs: int = 0
    instructions: int = 0

    def account(self, instr: NPUInstr) -> None:
        self.instructions += 1
        if instr.op is NPUOp.EXEC_TILE:
            self.macs += instr.elems
        elif instr.source is Source.DRAM:
            self.dram_elems += instr.elems
        elif instr.source is Source.CACHE:
            self.cache_elems += instr.elems


_LOOP_ORDERS = {
    # innermost -> iteration order (outermost first).
    "m": ("k", "n", "m"),
    "n": ("k", "m", "n"),
    "k": ("m", "n", "k"),
}


def _tile_extents(shape: GEMMShape, choice: TilingChoice) -> Dict[str, int]:
    return {
        "m": trip_count(shape.m, choice.tm),
        "n": trip_count(shape.n, choice.tn),
        "k": trip_count(shape.k, choice.tk),
    }


def _tile_elems(shape: GEMMShape, choice: TilingChoice,
                tensor: str, tile: Tuple[int, int]) -> int:
    """Elements of one (possibly partial) tile of ``tensor``.

    Tile footprints are scaled to the tensor's *actual* element count so
    that streaming a whole tensor tile-by-tile moves exactly its true
    footprint (im2col overlap is not re-fetched from DRAM).
    """
    if tensor == "weight":
        dims = (shape.k, shape.n)
        tiles = (choice.tk, choice.tn)
        actual = shape.weight_elems
    elif tensor == "input":
        dims = (shape.m, shape.k)
        tiles = (choice.tm, choice.tk)
        actual = shape.input_elems
    else:
        dims = (shape.m, shape.n)
        tiles = (choice.tm, choice.tn)
        actual = shape.output_elems
    extent0 = min(tiles[0], dims[0] - tile[0] * tiles[0])
    extent1 = min(tiles[1], dims[1] - tile[1] * tiles[1])
    if extent0 <= 0 or extent1 <= 0:
        raise MappingError(f"tile {tile} out of range for {tensor}")
    dense = dims[0] * dims[1]
    per_group = actual / shape.groups
    return max(1, round(extent0 * extent1 * per_group / dense))


def generate_layer_program(
    shape: GEMMShape,
    choice: TilingChoice,
) -> Iterator[NPUInstr]:
    """Yield the instruction stream executing ``shape`` under ``choice``.

    Movement rules (mirroring the scratchpad/double-buffer behaviour the
    analytic model assumes):

    * a tensor tile is loaded only when its identity differs from the tile
      currently held in scratchpad;
    * pinned (or LBM-resident) tensors load from DRAM on first touch and
      from the cache region afterwards; streamed tensors always use bypass
      DRAM accesses;
    * output tiles accumulate in scratchpad across consecutive ``k``
      iterations; leaving an unfinished output tile spills the partials and
      returning reloads them (both to DRAM unless the output is pinned).
    """
    extents = _tile_extents(shape, choice)
    order = _LOOP_ORDERS[choice.innermost]
    nk = extents["k"]

    held: Dict[str, Optional[Tuple[int, int]]] = {
        "weight": None, "input": None, "output": None,
    }
    touched: Dict[str, set] = {"weight": set(), "input": set(),
                               "output": set()}
    k_progress: Dict[Tuple[int, int], int] = {}

    pinned_like = {
        "weight": "weight" in choice.pinned,
        "input": "input" in choice.pinned or choice.lbm_input,
        "output": "output" in choice.pinned or choice.lbm_output,
    }

    def load(tensor: str, tile: Tuple[int, ...]) -> Iterator[NPUInstr]:
        elems = _tile_elems(shape, choice, tensor, tile[-2:])
        if pinned_like[tensor]:
            if tensor == "input" and choice.lbm_input:
                source = Source.CACHE  # produced in-cache by the block
            elif tile in touched[tensor]:
                source = Source.CACHE
            else:
                source = Source.DRAM
        else:
            source = Source.DRAM
        touched[tensor].add(tile)
        yield NPUInstr(NPUOp.LOAD_TILE, tensor, tile, elems, source)

    def flush_output(new_tile: Optional[Tuple[int, int]]
                     ) -> Iterator[NPUInstr]:
        old = held["output"]
        if old is None or old == new_tile:
            return
        elems = _tile_elems(shape, choice, "output", old[-2:])
        done = k_progress.get(old, 0) >= nk
        if done:
            # Completed results reach DRAM once unless the next block
            # layer consumes them from cache (LBM).
            source = Source.CACHE if choice.lbm_output else Source.DRAM
            yield NPUInstr(NPUOp.STORE_TILE, "output", old, elems, source)
        else:
            # Partial sums spill to the model's region when pinned.
            source = (
                Source.CACHE if pinned_like["output"] else Source.DRAM
            )
            yield NPUInstr(NPUOp.SPILL_TILE, "output", old, elems, source)

    def acquire_output(tile: Tuple[int, int]) -> Iterator[NPUInstr]:
        if held["output"] == tile:
            return
        if 0 < k_progress.get(tile, 0) < nk:
            elems = _tile_elems(shape, choice, "output", tile[-2:])
            out_source = (
                Source.CACHE if pinned_like["output"] else Source.DRAM
            )
            yield NPUInstr(NPUOp.RELOAD_TILE, "output", tile, elems,
                           out_source)

    for group in range(shape.groups):
        for i0 in range(extents[order[0]]):
            for i1 in range(extents[order[1]]):
                for i2 in range(extents[order[2]]):
                    index = {order[0]: i0, order[1]: i1, order[2]: i2}
                    w_tile = (index["k"], index["n"])
                    i_tile = (index["m"], index["k"])
                    o_tile = (index["m"], index["n"])
                    if group:
                        # Independent GEMMs: distinct tile identities.
                        w_tile = (group,) + w_tile  # type: ignore
                        i_tile = (group,) + i_tile  # type: ignore
                        o_tile = (group,) + o_tile  # type: ignore

                    if held["weight"] != w_tile:
                        yield from load("weight", w_tile)
                        held["weight"] = w_tile
                    if held["input"] != i_tile:
                        yield from load("input", i_tile)
                        held["input"] = i_tile
                    if held["output"] != o_tile:
                        yield from flush_output(o_tile)
                        yield from acquire_output(o_tile)
                        held["output"] = o_tile

                    macs = (
                        _tile_elems(shape, choice, "output", o_tile[-2:])
                        * min(choice.tk,
                              shape.k - index["k"] * choice.tk)
                    )
                    yield NPUInstr(NPUOp.EXEC_TILE, "", o_tile,
                                   max(macs, 1))
                    k_progress[o_tile] = k_progress.get(o_tile, 0) + 1
        # Drain the last output tile of the group.
        yield from flush_output(None)
        held = {"weight": None, "input": None, "output": None}


def program_stats(shape: GEMMShape, choice: TilingChoice) -> ProgramStats:
    """Execute the generator and accumulate traffic/compute totals."""
    stats = ProgramStats()
    for instr in generate_layer_program(shape, choice):
        stats.account(instr)
    return stats


def lbm_extra_dram_elems(shape: GEMMShape, choice: TilingChoice) -> int:
    """DRAM elements the analytic model expects for this choice.

    Mirrors ``reference_solver.dram_traffic_bytes`` at
    ``dtype_bytes=1`` so tests can compare generator and closed form.
    """
    return int(dram_traffic_bytes(shape, choice, dtype_bytes=1))
