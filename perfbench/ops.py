"""Run one benchmark op in this (fresh) process.

Usage: ``python3 ops.py REQUEST.json``.  The request names the op, the
program's source directory and where to write the outcome; the harness
(``run.py``) sets the cache directories through the environment.

The process first imports ``repro`` and loads the native stepper, and
records the monotonic clock when both are done: that instant minus the
spawn instant is one set-up sample.  Ops then run the workload, with
the span tracer installed when the request asks for it, and write a
JSON outcome (plus the raw spans) for the harness.
"""

import json
import os
import sys
import time


def _prepare_mappings(request: dict) -> dict:
    """Solve every Table I model at every prepared cache size, filling
    ``REPRO_MAPPING_CACHE_DIR`` (two workers)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.models.zoo import BENCHMARK_MODELS

    jobs = [(model, mb) for mb in request["caches_mb"]
            for model in BENCHMARK_MODELS]
    with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        list(pool.map(_map_one, jobs))
    return {"mapped": len(jobs)}


def _map_one(job) -> None:
    """Map one Table I model at one cache size (a pool task)."""
    from repro import SoCConfig, prepare_model

    model, mb = job
    prepare_model(model, SoCConfig().with_cache_bytes(mb << 20))


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    sys.path.insert(0, request["src"])
    import repro  # noqa: F401 - the set-up being measured
    from repro.sim import native

    native.fused_step()
    ready = time.monotonic()
    outcome = {"ready_monotonic": ready,
               "native_status": native.native_status()}
    op = request["op"]
    if op == "prep":
        outcome.update(_prepare_mappings(request))
    elif op != "setup":
        outcome.update(_run_op(request))
    with open(request["out"], "w", encoding="utf-8") as fh:
        json.dump(outcome, fh)
    return 0


def _run_op(request: dict) -> dict:
    import resource

    import spans
    import workloads

    tracer = None
    missing = []
    if request["trace"]:
        tracer = spans.Tracer()
        missing = tracer.install(
            attrs={"engine.run": workloads.cell_record})
    size = workloads.SIZES[request["size"]]
    try:
        if request["op"] == "cold-start":
            out = workloads.cold_start(size)
        else:
            out = workloads.figs_fleet(size, request["seed"],
                                       request["pass"], request["journal"])
    except Exception as exc:  # the harness counts the op as failed
        import traceback

        traceback.print_exc()
        return {"errors": [f"op raised {type(exc).__name__}: {exc}"]}
    from repro import prepared_cache_info

    result = {
        "op_s": out.op_s,
        "parts": out.parts,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fingerprints": out.fingerprints,
        "errors": out.errors,
        "runs": out.runs,
        "sim": out.sim,
        "prepared": {
            f"{kind[:-1]}_{field}": getattr(info, field)
            for kind, info in prepared_cache_info().items()
            for field in ("hits", "misses")
        },
    }
    if tracer is not None:
        path = os.path.join(os.path.dirname(request["out"]),
                            f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["spans_file"] = path
        result["missing"] = missing
    return result


if __name__ == "__main__":
    sys.exit(main())
