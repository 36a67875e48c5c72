"""The footprint-table solver against the exhaustive reference.

``SubspaceSolver`` solves each (shape, LBM flags) pair once and answers
every usage limit from a table; ``reference_solver.ReferenceSolver``
searches every (subspace, tiling) pair at each limit.  They must agree
exactly: same ``SolvedMapping`` (ties included) or both
``MappingError``, and byte-identical mapping files for the paper's
models.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from reference_solver import ReferenceSolver
from repro.config import KiB, MiB, NPUConfig, SoCConfig
from repro.core.mapper import layer_mapper
from repro.core.mapper.loopnest import GEMMShape
from repro.core.mapper.solver import SubspaceSolver
from repro.core.serialize import mapping_file_to_dict
from repro.errors import MappingError
from repro.models.zoo import load_benchmark_suite

#: NPUs the property draws from: Table II, a narrow array with a small
#: scratchpad, and one whose scratchpad holds no full PE-aligned tile, so
#: a shape with every dimension over 64 has no tiling (every limit
#: raises).
NPUS = (
    NPUConfig(),
    NPUConfig(pe_rows=16, pe_cols=8, scratchpad_bytes=32 * KiB),
    NPUConfig(pe_rows=64, pe_cols=64, scratchpad_bytes=4 * KiB),
)


class MemoizedReference(ReferenceSolver):
    """The reference with the per-limit memo the replaced solver kept, so
    repeated layer shapes (12 identical encoder blocks) are searched
    once.  A solve is a pure function of its key."""

    _memo: dict = {}

    def solve(self, shape, usage_limit_bytes, lbm_input=False,
              lbm_output=False):
        key = (self.npu, self.dtype_bytes, shape, usage_limit_bytes,
               lbm_input, lbm_output)
        if key not in self._memo:
            self._memo[key] = super().solve(
                shape, usage_limit_bytes, lbm_input, lbm_output)
        return self._memo[key]


def _mapping_json(soc, graph) -> str:
    mapping = layer_mapper.LayerMapper(soc)._solve_model(graph)
    return json.dumps(mapping_file_to_dict(mapping), sort_keys=True)


@pytest.mark.slow
@pytest.mark.parametrize("cache_mb", [4, 16, 64])
def test_mapping_files_match_the_reference(monkeypatch, cache_mb):
    """Every MCT candidate and LBM candidate of the 8-model suite."""
    soc = SoCConfig().with_cache_bytes(cache_mb * MiB)
    suite = load_benchmark_suite()
    solved = [_mapping_json(soc, graph) for graph in suite]
    monkeypatch.setattr(layer_mapper, "SubspaceSolver", MemoizedReference)
    reference = [_mapping_json(soc, graph) for graph in suite]
    for graph, got, want in zip(suite, solved, reference):
        assert got == want, graph.name


#: GEMM dimensions: any size, or a multiple of the PE array as most layer
#: dimensions are (equal costs, and so tie-breaks, are common there).
DIMS = st.one_of(st.integers(1, 1536),
                 st.sampled_from((32, 64, 96, 128, 256, 512, 768, 1024)))


@st.composite
def gemm_shapes(draw):
    m, n, k = (draw(DIMS) for _ in range(3))
    groups = draw(st.integers(1, 4))
    # 0 derives a footprint from the dense dims; otherwise an explicit
    # one, as GEMMShape.of gives convolutions and attention.
    explicit = st.one_of(st.just(0), st.integers(1, 4 * groups * m * k))
    return GEMMShape(
        m=m, n=n, k=k, groups=groups,
        input_elems=draw(explicit),
        weight_elems=draw(explicit),
        output_elems=draw(explicit),
    )


def _footprints(shape, dtype_bytes, lbm_input, lbm_output):
    """Every pin set's cache footprint under the LBM flags."""
    weight = shape.weight_elems * dtype_bytes
    input_ = shape.input_elems * dtype_bytes
    output = shape.output_elems * dtype_bytes
    base = (input_ if lbm_input else 0) + (output if lbm_output else 0)
    return sorted({
        base + w * weight + i * input_ * (not lbm_input)
        + o * output * (not lbm_output)
        for w in (0, 1) for i in (0, 1) for o in (0, 1)
    })


@given(
    shape=gemm_shapes(),
    npu=st.sampled_from(NPUS),
    dtype_bytes=st.sampled_from((1, 2)),
    lbm_input=st.booleans(),
    lbm_output=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_solve_matches_the_reference(shape, npu, dtype_bytes, lbm_input,
                                     lbm_output, data):
    """Limits that are no usage level: footprints, one byte either side
    of them (below the smallest, nothing fits), and anything between."""
    footprints = _footprints(shape, dtype_bytes, lbm_input, lbm_output)
    limits = st.one_of(
        st.builds(lambda f, d: f + d, st.sampled_from(footprints),
                  st.sampled_from((-1, 0, 1))),
        st.integers(0, footprints[-1] + 1),
    )
    solver = SubspaceSolver(npu, dtype_bytes)
    reference = ReferenceSolver(npu, dtype_bytes)
    for limit in data.draw(st.lists(limits, min_size=1, max_size=4)):
        try:
            want = reference.solve(shape, limit, lbm_input, lbm_output)
        except MappingError:
            with pytest.raises(MappingError):
                solver.solve(shape, limit, lbm_input, lbm_output)
            continue
        got = solver.solve(shape, limit, lbm_input, lbm_output)
        assert got == want
        assert type(got.dram_bytes) is type(want.dram_bytes)
