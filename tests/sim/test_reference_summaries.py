"""Frozen metric-summary reference for the allocator refactor.

``tests/data/metric_summary_reference.json`` holds the byte-exact
``metric_summary()`` of every policy on a 20-scenario reference set,
captured on the pre-refactor allocator (PR 2 HEAD).  Any change to the
CaMDN allocation stack (Algorithm 1, MCT geometry, page/region/CPT
bookkeeping) must keep these summaries byte-identical: the incremental
data structures are pure speedups, never behavioral changes.

Regenerate (only when a PR *intentionally* changes simulation results —
this must be called out in the PR description)::

    PYTHONPATH=src python tests/sim/test_reference_summaries.py

The scenario set covers 2/4/8-tenant mixes over all eight Table I
models, duplicate-model co-location, and both count- and duration-mode
measurement windows, so every Algorithm 1 path (LBM enable, prediction
bound, downgrade-on-timeout, hw-only static split) is exercised.
"""

import json
from pathlib import Path

import pytest

from repro import ScenarioSpec, run

REFERENCE_PATH = (
    Path(__file__).parent.parent / "data" / "metric_summary_reference.json"
)

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full")

#: Count-mode window: two measured inferences after one warm-up.
COUNT = {"inferences": 2, "warmup_inferences": 1}

#: The 20 reference scenarios: (name, model mix,
#: ``ScenarioSpec.closed_loop`` keywords).
SCENARIOS = (
    ("pair-rs-mb", ("RS.", "MB."), COUNT),
    ("pair-ef-vt", ("EF.", "VT."), COUNT),
    ("pair-be-gn", ("BE.", "GN."), COUNT),
    ("pair-wv-pp", ("WV.", "PP."), COUNT),
    ("pair-rs-be", ("RS.", "BE."), COUNT),
    ("pair-mb-gn", ("MB.", "GN."), COUNT),
    ("pair-ef-pp", ("EF.", "PP."), COUNT),
    ("pair-vt-wv", ("VT.", "WV."), COUNT),
    ("quad-vision", ("RS.", "MB.", "EF.", "VT."), COUNT),
    ("quad-nlp", ("BE.", "GN.", "WV.", "PP."), COUNT),
    ("quad-mixed-a", ("RS.", "EF.", "BE.", "WV."), COUNT),
    ("quad-mixed-b", ("MB.", "VT.", "GN.", "PP."), COUNT),
    ("quad-dup-rs-mb", ("RS.", "RS.", "MB.", "MB."), COUNT),
    ("quad-dup-be-vt", ("BE.", "BE.", "VT.", "VT."), COUNT),
    ("eight-all", ("RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.", "PP."),
     COUNT),
    ("eight-all-rev", ("PP.", "WV.", "GN.", "BE.", "VT.", "EF.", "MB.",
                       "RS."), COUNT),
    ("eight-dup-pairs", ("RS.", "MB.") * 4, COUNT),
    ("eight-dup-quads", ("BE.", "GN.", "WV.", "PP.") * 2, COUNT),
    ("steady-quad", ("RS.", "MB.", "EF.", "VT."), {"duration_s": 0.03}),
    ("steady-eight", ("RS.", "MB.", "EF.", "VT.", "BE.", "GN.", "WV.",
                      "PP."), {"duration_s": 0.02}),
)


def _summary(policy: str, models, kwargs) -> dict:
    spec = ScenarioSpec.closed_loop(models, **kwargs)
    return run(spec, policy=policy).metric_summary()


def _capture() -> dict:
    return {
        name: {
            policy: _summary(policy, models, kwargs)
            for policy in POLICIES
        }
        for name, models, kwargs in SCENARIOS
    }


@pytest.mark.slow
@pytest.mark.parametrize("scenario", [s[0] for s in SCENARIOS])
@pytest.mark.parametrize("policy", POLICIES)
def test_metric_summary_matches_reference(scenario, policy):
    reference = json.loads(REFERENCE_PATH.read_text())
    name, models, kwargs = next(
        s for s in SCENARIOS if s[0] == scenario
    )
    fresh = json.dumps(_summary(policy, models, kwargs), sort_keys=True)
    frozen = json.dumps(reference[name][policy], sort_keys=True)
    assert fresh == frozen, (
        f"{policy} on {name}: metric_summary() diverged from the "
        f"pre-refactor reference"
    )


if __name__ == "__main__":
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE_PATH.write_text(
        json.dumps(_capture(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {REFERENCE_PATH}")
