"""The cold-mapping shortcuts against the code they replaced.

``dram_model.order_refetch_factors`` writes the loop-order derivation of
the refetch multipliers in closed form; ``reference_solver`` keeps the
derivation.  ``LayerMapper._map_layer`` packages only the solver results
it keeps, one per cache footprint.
"""

import itertools

from reference_solver import reference_refetch_factors
from repro.config import MiB, SoCConfig
from repro.core.mapper import layer_mapper
from repro.core.mapper.dram_model import (
    INNERMOST,
    PINNABLE,
    order_refetch_factors,
)
from repro.models.layers import LayerKind
from repro.models.zoo import load_benchmark_suite

#: Every trip-count triple with 1-8 tiles per dimension.
TRIPS = list(itertools.product(range(1, 9), repeat=3))


def test_closed_form_matches_the_loop_order_derivation():
    for m, n, k in TRIPS:
        trips = {"m": m, "n": n, "k": k}
        for innermost, triple in zip(INNERMOST,
                                     order_refetch_factors(m, n, k)):
            want = reference_refetch_factors(trips, innermost)
            assert dict(zip(PINNABLE, triple)) == want, (trips, innermost)


def test_one_candidate_built_per_kept_footprint(monkeypatch):
    """The suite at 16 MiB keeps 502 LWM candidates of GEMM layers, and
    ``_to_candidate`` runs once for each of them."""
    calls = []
    package = layer_mapper.LayerMapper._to_candidate

    def counted(self, layer, shape, solved, level):
        calls.append(layer.name)
        return package(self, layer, shape, solved, level)

    monkeypatch.setattr(layer_mapper.LayerMapper, "_to_candidate", counted)
    mapper = layer_mapper.LayerMapper(SoCConfig().with_cache_bytes(16 * MiB))
    kept = 0
    for graph in load_benchmark_suite():
        mapping = mapper._solve_model(graph)
        kept += sum(
            len(mct.lwm) for layer, mct in zip(graph.layers, mapping.mcts)
            if layer.kind not in (LayerKind.POOL, LayerKind.ELEMWISE)
        )
    assert len(calls) == kept == 502
