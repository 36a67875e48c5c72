"""End-to-end benchmark of the CaMDN reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-start --seed 2025 \\
        --seconds 56 --trace 0

Each workload (see ``workloads.py``) runs as two to five iterations
that share about ``--seconds`` seconds equally.  An iteration is one
pass-1 op followed by as many pass-2 ops as fit its share (at least
one), every op in a fresh process whose mapping, sweep-result, journal
and ``XDG_CACHE_HOME`` directories live under a temporary root that the
iteration removes.  Pass-2 ops are short and their times scatter by
tens of percent, so their median needs the many samples this gives.
Before timing, the harness compiles bytecode, builds the native stepper
once per source tree and, once per source tree, fills the mapping cache
that ``figs-fleet`` copies in; these costs are printed but not gated.

Host speed on the shared 2-vCPU machine the benchmark was tuned on
halved and recovered within minutes, so before every op the harness
also times ``PROBES_AT_ONCE`` copies of ``probe.py`` (fixed work that
does not touch the program) from spawn to exit.  The end-to-end times
are host seconds scaled to the reference host speed: each op's times
are multiplied by ``PROBE_REF_S`` over a median probe time, and each
metric is the median of the scaled times.  Set-up and pass-2 ops last
well under a second, so they take the median of the probes nearest to
them (``PROBE_WINDOW`` probe rounds before and as many after).  A
pass-1 op lasts several seconds and averages the host's swings over
them, so it takes the median of every probe of the run.  The report
prints the unscaled medians beside them.

Every op's outputs are checked (conservation law, failed cells, and
fingerprints against ``reference.json`` for the default seed, or
against the run's own first op for other seeds).  The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a run whose
iterations alternate between traced and untraced.

Without ``--workload`` it runs both workloads in turn.  Other
modes:

* ``--steadiness N`` repeats each workload N times with consecutive
  seeds, in fresh harness processes, and prints every end-to-end
  metric's median, quartiles and IQR/median against its bound.
* ``--write-reference`` records the fingerprints of the given workload
  (default seed) into ``reference.json``.
* ``--size tiny`` shrinks every input (used by the self-tests).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference.json"

#: Iterations per run (pass-1 ops): as many as fit this share of the
#: run, judged by the first pass-1 op, within ``PASS1_OPS``.
PASS1_SHARE = 0.8
PASS1_OPS = (2, 5)
#: Probe processes started together in each probe round (one per vCPU
#: of the 2-vCPU host, whose vCPUs slow down independently).
PROBES_AT_ONCE = 2
#: Set-up and pass-2 times are scaled by the probes of this many rounds
#: before the op and as many after.  A round precedes each op, and as
#: many as this open and close the run.
PROBE_WINDOW = 3
#: Probe time, in seconds, of the reference host speed that the
#: end-to-end times are scaled to (the probe's typical time on the
#: 2-CPU host the benchmark was tuned on).
PROBE_REF_S = 0.2
#: Every run ends within this many seconds of finishing its prep.
RUN_DEADLINE_S = 165.0

POLICIES = ("baseline", "moca", "aurora", "camdn-hw", "camdn-full",
            "camdn-qos")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "run_s": "s",
    "rerun_s": "s",
}

#: What ``run_s`` / ``rerun_s`` are on each workload.
PASS_NAMES = {
    "cold-start": ("cold_run_s", "rerun_s"),
    "figs-fleet": ("figs_fleet_s", "figs_fleet_cached_s"),
}

#: Names of the timed parts of a figs-fleet op, by pass.
PART_NAMES = {
    1: {"figs": "figs_s", "fleet": "fleet_s"},
    2: {"figs": "figs_cached_s", "fleet": "fleet_resume_s"},
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "mapper.map_model.calls": "count",
    "mapper.map_model.s": "s",
    "mapper.map_model.self_s": "s",
    "mapper.solve.calls": "count",
    "mapper.solve.s": "s",
    "mapper.plan_blocks.s": "s",
    "mapper.lbm_candidates.s": "s",
    "serialize.mapping_load.calls": "count",
    "serialize.mapping_load.s": "s",
    "serialize.mapping_store.calls": "count",
    "serialize.mapping_store.s": "s",
    "serialize.result_load.s": "s",
    "serialize.result_store.s": "s",
    "sweep.cache_key.s": "s",
    "sweep.cache_hits": "count",
    "sweep.cache_misses": "count",
    "prepared.prepare_model.self_s": "s",
    "prepared.model_hits": "count",
    "prepared.model_misses": "count",
    "prepared.workload_hits": "count",
    "prepared.workload_misses": "count",
    "engine.s": "s",
    "engine.events": "count",
    **{f"engine.events_per_s.{p}": "1/s" for p in POLICIES},
    "engine.cell_p50_ms": "ms",
    "engine.cell_p90_ms": "ms",
    "camdn.lbm_layers": "count",
    "camdn.timeouts": "count",
    "camdn.pages_retired": "count",
    "camdn.tenant_admits": "count",
    "sweep.s": "s",
    "sweep.cells": "count",
    "sweep.failed_cells": "count",
    "figs.isolated_s": "s",
    "sweep.efficiency": "ratio",
    "fleet.expand.s": "s",
    "campaign.s": "s",
    "campaign.cells": "count",
    "campaign.failed_cells": "count",
    "campaign.efficiency": "ratio",
    "fleet.aggregate.s": "s",
    "trace.overhead_pct": "%",
    "sim.fig7_speedup": "x",
    "sim.fig8_dram_reduction_pct": "%",
    "sim.fig8_latency_reduction_pct": "%",
    "sim.fig9_sla_gain": "x",
}

#: Per-layer metrics taken from pass 1 alone; every other one adds
#: pass 1 and pass 2 (one iteration's worth of work).
PASS1_ONLY = frozenset(
    [f"engine.events_per_s.{p}" for p in POLICIES]
    + ["engine.cell_p50_ms", "engine.cell_p90_ms", "sweep.efficiency",
       "campaign.efficiency", *workloads.PAPER])


def median(values) -> float:
    """The median, or 0.0 when there are no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def source_digest() -> str:
    """Digest of the program's source tree (keys the prepared state)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Op processes
# ----------------------------------------------------------------------

class Harness:
    """Spawns op processes under one run directory and judges them."""

    def __init__(self, size: str) -> None:
        self.size = size
        self.run_dir = BUILD / "runs" / str(os.getpid())
        self.native_dir = BUILD / "native"
        self.count = 0
        #: Probe times, one list per probe round.
        self.probes: List[List[float]] = []
        self.native: Dict[str, int] = {}
        self.deadline = float("inf")
        self.prep_mappings = BUILD / "missing"

    def env(self, root: Path) -> dict:
        """Environment of one op: every cache under ``root``."""
        env = dict(os.environ)
        env.pop("REPRO_NATIVE", None)
        env.update({
            "REPRO_MAPPING_CACHE_DIR": str(root / "mappings"),
            "REPRO_SWEEP_CACHE_DIR": str(root / "sweeps"),
            "XDG_CACHE_HOME": str(root / "xdg"),
            "TMPDIR": str(root / "tmp"),
            "REPRO_NATIVE_CACHE": str(self.native_dir),
        })
        for key in ("xdg", "tmp"):
            (root / key).mkdir(parents=True, exist_ok=True)
        return env

    def spawn(self, request: dict, root: Path,
              timeout: Optional[float] = None) -> dict:
        """Run one op process; returns its outcome (``errors`` lists
        anything that went wrong)."""
        self.count += 1
        req = root / f"op{self.count}.req.json"
        out = root / f"op{self.count}.out.json"
        request = dict(request, src=str(SRC), out=str(out),
                       size=self.size)
        req.parent.mkdir(parents=True, exist_ok=True)
        req.write_text(json.dumps(request), encoding="utf-8")
        env = self.env(root)
        if timeout is None:
            timeout = max(self.deadline - time.monotonic(), 5.0)
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "ops.py"), str(req)],
            env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            _, err = proc.communicate()
            return {"errors": [f"op timed out after {timeout:.0f} s"]}
        finally:
            _kill_group(proc.pid)
        if proc.returncode != 0 or not out.exists():
            return {"errors": [
                f"op exited {proc.returncode}: {err.strip()[-600:]}"]}
        outcome = json.loads(out.read_text(encoding="utf-8"))
        outcome["setup_s"] = outcome["ready_monotonic"] - start
        status = outcome["native_status"]
        self.native[status] = self.native.get(status, 0) + 1
        if not status.startswith("loaded"):
            outcome.setdefault("errors", []).append(
                f"native stepper not loaded: {status}")
        if outcome.get("errors") and err.strip():
            outcome["errors"].append(err.strip()[-600:])
        if "spans_file" in outcome:
            outcome["spans"] = json.loads(
                Path(outcome.pop("spans_file")).read_text("utf-8"))
        return outcome

    def probe_host(self) -> None:
        """Run one probe round: start ``PROBES_AT_ONCE`` probe processes
        together and time each from spawn to exit.

        A probe's stdout pipe reads end-of-file when the probe exits,
        which times the exit to within a millisecond; waiting with a
        timeout instead polls for it in steps of up to 50 ms.
        """
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable,
                                   str(BENCH_DIR / "probe.py")],
                                  cwd=str(ROOT), stdout=subprocess.PIPE)
                 for _ in range(PROBES_AT_ONCE)]
        took = []
        try:
            with selectors.DefaultSelector() as running:
                for proc in procs:
                    running.register(proc.stdout, selectors.EVENT_READ)
                while running.get_map():
                    ready = running.select(timeout=60)
                    if not ready:
                        raise SystemExit("perfbench: host probe timed out")
                    for key, _ in ready:
                        if not os.read(key.fd, 4096):
                            took.append(time.perf_counter() - start)
                            running.unregister(key.fileobj)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        if any(proc.returncode for proc in procs):
            raise SystemExit("perfbench: a host probe failed")
        self.probes.append(took)

    def op(self, request: dict, pass_no: int, root: Path) -> dict:
        """Probe the host, then run one op of the given pass; the op
        records where it falls in the probe sequence."""
        self.probe_host()
        outcome = self.spawn(dict(request, **{"pass": pass_no}), root)
        outcome["probe_index"] = len(self.probes)
        return outcome


def _kill_group(pid: int) -> None:
    """Kill what is left of an op's process group (pool workers)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------------
# Preparation (once per source tree; printed, not gated)
# ----------------------------------------------------------------------

def prepare(harness: Harness) -> List[str]:
    """Compile bytecode, build the native stepper and fill the shared
    mapping cache; returns report lines."""
    lines = []
    start = time.monotonic()
    compileall.compile_dir(str(SRC), quiet=1)
    scratch = harness.run_dir / "prep"
    built = harness.spawn({"op": "setup"}, scratch, timeout=600)
    if built.get("errors"):
        raise SystemExit("perfbench: native stepper unavailable: "
                         + "; ".join(built["errors"]))
    lines.append(f"prep: bytecode + native stepper "
                 f"{time.monotonic() - start:.2f} s "
                 f"({built['native_status']})")

    size = workloads.SIZES[harness.size]
    prep_dir = BUILD / f"prep-{harness.size}-{source_digest()}"
    done = prep_dir / "done.json"
    if done.exists():
        info = json.loads(done.read_text(encoding="utf-8"))
        lines.append(f"prep: mapping cache reused ({info['mapped']} "
                     f"mappings, built in {info['seconds']:.1f} s)")
    else:
        start = time.monotonic()
        shutil.rmtree(prep_dir, ignore_errors=True)
        outcome = harness.spawn(
            {"op": "prep", "caches_mb": list(size.prep_caches_mb)},
            scratch, timeout=900)
        if outcome.get("errors"):
            raise SystemExit("perfbench: mapping prep failed: "
                             + "; ".join(outcome["errors"]))
        prep_dir.mkdir(parents=True, exist_ok=True)
        shutil.move(str(scratch / "mappings"), str(prep_dir / "mappings"))
        info = {"mapped": outcome["mapped"],
                "seconds": time.monotonic() - start}
        done.write_text(json.dumps(info), encoding="utf-8")
        lines.append(f"prep: mapping cache built ({info['mapped']} "
                     f"mappings, {info['seconds']:.1f} s)")
    harness.native.clear()
    harness.prep_mappings = prep_dir / "mappings"
    shutil.rmtree(scratch, ignore_errors=True)
    return lines


# ----------------------------------------------------------------------
# One measurement run
# ----------------------------------------------------------------------

def measure(harness: Harness, workload: str, seed: int, seconds: float,
            trace: bool) -> List[dict]:
    """Iterate the workload for about ``seconds`` seconds.

    The first pass-1 op fixes how many iterations the run makes; each
    then ends at its equal share of the run, repeating pass 2 until the
    next pass-2 op (judged by the median so far) would pass that end.
    A traced run alternates traced and untraced iterations.
    """
    for _ in range(PROBE_WINDOW):
        harness.probe_host()
    start = time.monotonic()
    planned, iterations = PASS1_OPS[0], []
    while len(iterations) < planned:
        index = len(iterations)
        root = harness.run_dir / f"iter{index}"
        if workload != "cold-start":
            shutil.copytree(harness.prep_mappings, root / "mappings")
        traced = trace and index % 2 == 0
        request = {"op": workload, "seed": seed, "trace": traced,
                   "journal": str(root / "journal" / "fleet.jsonl")}
        begun = time.monotonic()
        first = harness.op(request, 1, root)
        if index == 0:
            fits = int(seconds * PASS1_SHARE / (time.monotonic() - begun))
            planned = min(max(fits, PASS1_OPS[0]), PASS1_OPS[1])
        end = min(start + seconds * (index + 1) / planned,
                  harness.deadline)
        again, took = [], []
        while not again or time.monotonic() + median(took) < end:
            begun = time.monotonic()
            again.append(harness.op(request, 2, root))
            took.append(time.monotonic() - begun)
        shutil.rmtree(root, ignore_errors=True)
        iterations.append({"traced": traced, "pass1": first,
                           "pass2": again})
    for _ in range(PROBE_WINDOW):
        harness.probe_host()
    return iterations


def judge(iterations: List[dict], expected: Optional[Dict[str, str]]
          ) -> List[str]:
    """Mark each op ok or failed (in place); returns problem lines.

    ``expected`` is the reference fingerprint set; without one, every
    op must match the first op that produced fingerprints.
    """
    problems = []
    for op in all_ops(iterations):
        fps = op.get("fingerprints")
        if expected is None and fps:
            expected = fps
        errors = list(op.get("errors", []))
        if fps is not None and fps != expected:
            diff = sorted(k for k in set(fps) | set(expected)
                          if fps.get(k) != expected.get(k))
            errors.append(f"fingerprint mismatch in {len(diff)} "
                          f"outputs: {', '.join(diff[:5])}")
        op["ok"] = not errors and fps is not None
        problems.extend(errors)
    return problems


def all_ops(iterations: List[dict]) -> List[dict]:
    """Every op of the run, in the order they ran."""
    return [op for it in iterations for op in [it["pass1"], *it["pass2"]]]


def ops_of(iterations: List[dict], traced: bool, pass_no: int
           ) -> List[dict]:
    key = f"pass{pass_no}"
    chosen = []
    for it in iterations:
        if it["traced"] != traced:
            continue
        ops = it[key] if pass_no == 2 else [it[key]]
        chosen.extend(op for op in ops if op.get("ok"))
    return chosen


def probe_median(rounds: List[List[float]]) -> float:
    """Median probe time over the given probe rounds."""
    return median(t for probes in rounds for t in probes)


def end_to_end(harness: Harness, iterations: List[dict],
               scaled: bool = True) -> dict:
    """The end-to-end metrics: medians over the ops of each op's times,
    scaled to the reference host speed unless ``scaled`` is false."""
    rounds = harness.probes
    whole_run = probe_median(rounds)

    def times(ops, key, local=True):
        for op in ops:
            probed = whole_run
            if local:
                at = op["probe_index"]
                probed = probe_median(rounds[max(at - PROBE_WINDOW, 0):
                                             at + PROBE_WINDOW])
            yield op[key] * (PROBE_REF_S / probed if scaled else 1.0)

    first = ops_of(iterations, False, 1)
    return {
        "setup_s": median(times([op for op in all_ops(iterations)
                                 if op.get("ok")], "setup_s")),
        "peak_rss_mb": median(op["maxrss_kb"] / 1024 for op in first),
        "run_s": median(times(first, "op_s", local=False)),
        "rerun_s": median(times(ops_of(iterations, False, 2), "op_s")),
    }


def op_layers(op: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced op."""
    recorded = op.get("spans", [])
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(spans.layer_metrics(recorded))
    for key, value in op.get("prepared", {}).items():
        metrics[f"prepared.{key}"] = value
    engine = list(spans.engine_runs(recorded))
    for kind in ("sweep", "campaign"):
        runs = [r for r in op.get("runs", []) if r["kind"] == kind]
        cells = [c for r in runs for c in r["cells"]]
        engine.extend(cells)
        stats = [r["stats"] for r in runs]
        total = sum(s.get("cells", 0) for s in stats)
        metrics[f"{kind}.cells"] = total
        metrics[f"{kind}.failed_cells"] = sum(
            s.get("failed_cells", 0) for s in stats)
        if kind == "sweep":
            hits = sum(s.get("cached_cells", 0) for s in stats)
            metrics["sweep.cache_hits"] = hits
            metrics["sweep.cache_misses"] = total - hits
        busy = metrics[f"{kind}.s"] * workloads.JOBS
        metrics[f"{kind}.efficiency"] = (
            sum(c["wall_s"] for c in cells) / busy if busy else 0.0)
    metrics["engine.s"] = sum(r["wall_s"] for r in engine)
    metrics["engine.events"] = sum(r["events"] for r in engine)
    for policy in POLICIES:
        mine = [r for r in engine if r["policy"] == policy]
        wall = sum(r["wall_s"] for r in mine)
        metrics[f"engine.events_per_s.{policy}"] = (
            sum(r["events"] for r in mine) / wall if wall else 0.0)
    walls = sorted(r["wall_s"] for r in engine)
    if walls:
        metrics["engine.cell_p50_ms"] = 1e3 * _quantile(walls, 0.5)
        metrics["engine.cell_p90_ms"] = 1e3 * _quantile(walls, 0.9)
    for stat in ("lbm_layers", "timeouts", "pages_retired",
                 "tenant_admits"):
        metrics[f"camdn.{stat}"] = sum(
            r["stats"].get(stat, 0) for r in engine
            if r["policy"].startswith("camdn"))
    metrics.update(op.get("sim", {}))
    return metrics


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of a sorted list."""
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def per_layer(iterations: List[dict]) -> dict:
    first = [op_layers(op) for op in ops_of(iterations, True, 1)]
    second = [op_layers(op) for op in ops_of(iterations, True, 2)]
    metrics = {}
    for name in PER_LAYER:
        value = median(m[name] for m in first)
        if name not in PASS1_ONLY:
            value += median(m[name] for m in second)
        metrics[name] = value
    traced = [median(op["op_s"] for op in ops_of(iterations, True, p))
              for p in (1, 2)]
    plain = [median(op["op_s"] for op in ops_of(iterations, False, p))
             for p in (1, 2)]
    if sum(plain) > 0:
        metrics["trace.overhead_pct"] = 100 * (sum(traced) / sum(plain)
                                               - 1)
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def report_layers(workload: str, iterations: List[dict], metrics: dict
                  ) -> List[str]:
    lines = ["per-layer metrics (traced iterations; one pass 1 plus one "
             "pass 2):"]
    lines += [f"  {name:36s} {metrics[name]:14.6g} {unit}"
              for name, unit in PER_LAYER.items()]
    missing = sorted({m for op in all_ops(iterations)
                      for m in op.get("missing", [])})
    for reason in missing:
        lines.append(f"  dropped span: {reason}")
    first = ops_of(iterations, True, 1)
    if workload == "cold-start" and first:
        share = median(op_layers(op)["mapper.map_model.s"] / op["op_s"]
                       for op in first)
        lines.append(f"split: mapper spans cover {100 * share:.1f} % of "
                     f"the traced cold run "
                     f"({'ok' if share > 0.5 else 'NOT MET'}: most)")
    else:
        solves = metrics["mapper.solve.calls"]
        lines.append(f"split: mapper.solve.calls = {solves:g} "
                     f"({'ok' if solves == 0 else 'NOT MET'}: 0)")
        for kind in ("sweep", "campaign"):
            eff = metrics[f"{kind}.efficiency"]
            lines.append(f"split: {kind} cell engine time is "
                         f"{100 * eff:.1f} % of worker time "
                         f"({'ok' if eff > 0.5 else 'NOT MET'}: most)")
    return lines


def report(workload: str, seed: int, harness: Harness,
           iterations: List[dict], problems: List[str],
           fingerprints: Optional[dict], reference: bool) -> List[str]:
    ops = all_ops(iterations)
    failed = sum(1 for op in ops if not op.get("ok"))
    lines = [
        f"ops: attempted {len(ops)}, failed {failed} "
        f"({len(iterations)} iterations: {len(iterations)} pass-1 and "
        f"{len(ops) - len(iterations)} pass-2 ops)",
        "native stepper: " + ", ".join(
            f"{status} x{n}" for status, n in harness.native.items()),
    ]
    lines += [f"problem: {p}" for p in problems[:10]]
    if fingerprints:
        if reference:
            verdict = ("match" if not any("fingerprint" in p
                                          for p in problems)
                       else "DIFFER FROM")
            lines.append(f"fingerprints: {len(fingerprints)} outputs "
                         f"{verdict} the reference (seed {seed})")
        else:
            lines.append(f"fingerprints (seed {seed}, compare across "
                         f"commits):")
            lines += [f"  {key} {value}"
                      for key, value in fingerprints.items()
                      if "cell" not in key]
            cells = [fingerprints[k] for k in sorted(fingerprints)
                     if "cell" in k]
            if cells:
                lines.append(f"  cells[{len(cells)}] "
                             f"{workloads.fingerprint(cells)}")
    e2e = end_to_end(harness, iterations)
    raw = end_to_end(harness, iterations, scaled=False)
    names = dict(zip(("run_s", "rerun_s"), PASS_NAMES[workload]))
    lines.append(
        f"host speed: median probe {probe_median(harness.probes):.4f} s "
        f"over {len(harness.probes)} rounds of {PROBES_AT_ONCE}, "
        f"reference {PROBE_REF_S} s")
    lines.append("end-to-end metrics (untraced; times scaled to the "
                 "reference host speed, unscaled after):")
    for name, unit in END_TO_END.items():
        alias = f"  {names[name]}" if name in names else ""
        lines.append(f"  {name:12s} {e2e[name]:12.4f} {unit:4s}"
                     f"  unscaled {raw[name]:.4f}{alias}")
    lines.append("  samples: " + "; ".join(
        f"{name} " + " ".join(f"{op['op_s']:.4f}"
                              for op in ops_of(iterations, False, p))
        for p, name in enumerate(PASS_NAMES[workload], start=1)))
    if workload == "figs-fleet":
        parts = {}
        for pass_no, names in PART_NAMES.items():
            for op in ops_of(iterations, False, pass_no):
                for part, name in names.items():
                    parts.setdefault(name, []).append(op["parts"][part])
        lines.append("  parts (unscaled medians): " + ", ".join(
            f"{name} {median(seen):.4f} s" for name, seen in parts.items()))
        fleet_s = median(parts.get("fleet_s", []))
        if fleet_s > 0:
            devices = workloads.SIZES[harness.size].fleet_devices
            lines.append(f"  fleet_devices_per_s {devices / fleet_s:.2f}"
                         f" devices/s (unscaled)")
    sims = [op["sim"] for op in ops if op.get("ok") and op.get("sim")]
    if sims:
        lines.append("paper comparison (simulated, deterministic; the "
                     "model is checked only against the paper's "
                     "published figures, never against hardware):")
        lines += ["  " + workloads.sim_comparison(name, value)
                  for name, value in sims[0].items()]
    return lines


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def run(args, workload: str) -> None:
    """Measure one workload; prints the report and the JSON line."""
    harness = Harness(args.size)
    try:
        lines = prepare(harness)
        harness.deadline = time.monotonic() + RUN_DEADLINE_S
        iterations = measure(harness, workload, args.seed, args.seconds,
                             bool(args.trace))
    finally:
        shutil.rmtree(harness.run_dir, ignore_errors=True)
    reference = None
    if args.size == "full" and args.seed == workloads.DEFAULT_SEED \
            and not args.write_reference and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text("utf-8")).get(workload)
    problems = judge(iterations, reference)
    produced = next((op["fingerprints"] for op in all_ops(iterations)
                     if op.get("ok")), None)
    if args.write_reference and produced and not problems:
        table = (json.loads(REFERENCE.read_text("utf-8"))
                 if REFERENCE.exists() else {})
        table[workload] = produced
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
        lines.append(f"reference: wrote {len(produced)} fingerprints")
    lines = [f"perfbench {workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} "
             f"size={args.size}"] + lines
    lines += report(workload, args.seed, harness, iterations, problems,
                    produced, reference is not None)
    if args.trace:
        metrics = per_layer(iterations)
        lines += report_layers(workload, iterations, metrics)
        units = PER_LAYER
    else:
        metrics = end_to_end(harness, iterations)
        units = END_TO_END
    ops = all_ops(iterations)
    failed = sum(1 for op in ops if not op.get("ok"))
    print("\n".join(lines), flush=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)


def steadiness(args) -> int:
    """Repeat each workload with consecutive seeds; print the spread of
    every end-to-end metric against its bound in BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    chosen = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for workload in chosen:
        values: Dict[str, List[float]] = {name: [] for name in END_TO_END}
        failures = 0
        for k in range(args.steadiness):
            seed = args.seed + k
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0",
                 "--size", args.size],
                cwd=str(ROOT), capture_output=True, text=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {seed}: no result "
                      f"(exit {proc.returncode})\n{proc.stderr[-800:]}")
                failures += 1
                continue
            failures += result["failed"]
            for name in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={values[n][-1]:.4f}" for n in END_TO_END),
                flush=True)
        print(f"{workload}: {args.steadiness} runs, {failures} failed ops")
        print(f"  {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, seen in values.items():
            if len(seen) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(seen, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = bounds.get(name, 0.0)
            flag = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:12s} {mid:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:8.3f} {bound:6.2f}  {flag}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        run(args, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
