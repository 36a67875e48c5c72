"""The end-to-end benchmark's span targets name real layer boundaries.

``perfbench/spans.py`` times each layer by wrapping the function that a
``TARGETS`` entry names.  A target that no longer resolves (a renamed
``SubspaceSolver.solve`` or ``plan_blocks``) is only reported as a
dropped span by a traced run, and its per-layer metric then silently
reads 0.  This resolves every entry the way ``Tracer.install`` does,
without installing the tracer, so nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).parent.parent.parent / "perfbench" / "spans.py"
)
_spec = importlib.util.spec_from_file_location("perfbench_spans",
                                               _MODULE_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for module_name, path, _ in spans.TARGETS],
    ids=[f"{module_name}.{path}" for module_name, path, _ in spans.TARGETS],
)
def test_target_resolves_to_a_callable(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
    # Tracer.install patches the attribute where it is defined, so an
    # inherited one does not count.
    target = vars(owner).get(attr) if owner is not None else None
    assert callable(target), f"{module_name}.{path} is not defined"
