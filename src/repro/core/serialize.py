"""On-disk serialization: mapping files, SoC configs, engine results.

The offline mapping phase is expensive relative to dispatch, so real
deployments persist its output.  This module round-trips
:class:`~repro.core.mct.ModelMappingFile` objects through compact JSON,
free of pickle's versioning hazards.  A mapping file (schema 2) holds
each distinct row once, in two tables: ``loops`` (``[dim, factor,
level]``) and ``maps`` (``[tensor, vcaddr, size, reuse, bypass]``).
Each MCT is ``[layer_index, layer_name, est_latency_s, [lwm
candidates], lbm candidate or null]``, and each candidate is ``[kind,
usage_limit_bytes, cache_bytes, dram_bytes, compute_cycles, [loop ids],
[map ids]]``.  A model's candidates repeat a few dozen rows, so decoding
builds each row object once and the candidates share it.

It also provides the canonical-JSON plumbing behind the persistent sweep
cache (:mod:`repro.experiments.sweep`): stable dictionaries for
:class:`~repro.config.SoCConfig` and
:class:`~repro.sim.engine.SimulationResult`, plus a content hash over
canonical JSON.  Floats round-trip exactly (``repr``-based shortest
representation), so a deserialized result is byte-identical to the run
that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from ..config import CacheConfig, DRAMConfig, NPUConfig, SoCConfig
from ..errors import MappingError
from .mct import (
    CacheMapEntry,
    LoopLevel,
    MappingCandidate,
    MappingCandidateTable,
    ModelMappingFile,
)

if TYPE_CHECKING:
    from ..sim.engine import SimulationResult

#: Format version written into every mapping file; bumped on schema
#: changes.  v2: deduplicated loop and cache-map row tables (see the
#: module docstring); v1 files no longer load.
SCHEMA_VERSION = 2

#: Schema of serialized simulation results (sweep-cache entries); bump
#: whenever :class:`SimulationResult` / metrics records change shape.
#: v2: scenario-era results (offered/cancelled inference counts and the
#: offered-load ratio) — v1 entries predate the scenario subsystem and
#: are never deserialized.
#: v3: conservation-law accounting (completed/dropped inference counts).
RESULT_SCHEMA_VERSION = 3


def mapping_file_to_dict(mapping_file: ModelMappingFile) -> dict:
    """Serialize a mapping file to a JSON-ready schema-2 dictionary.

    Row ids are assigned in first-use order, so equal files encode to
    equal dictionaries.
    """
    loops: Dict[LoopLevel, int] = {}
    maps: Dict[CacheMapEntry, int] = {}

    def candidate(c: MappingCandidate) -> list:
        return [
            c.kind, c.usage_limit_bytes, c.cache_bytes, c.dram_bytes,
            c.compute_cycles,
            [loops.setdefault(l, len(loops)) for l in c.loop_table],
            [maps.setdefault(e, len(maps)) for e in c.cache_map],
        ]

    mcts = [
        [
            mct.layer_index, mct.layer_name, mct.est_latency_s,
            [candidate(c) for c in mct.lwm],
            candidate(mct.lbm) if mct.lbm is not None else None,
        ]
        for mct in mapping_file.mcts
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "model_name": mapping_file.model_name,
        "usage_levels": list(mapping_file.usage_levels),
        "blocks": [list(block) for block in mapping_file.blocks],
        "loops": [[l.dim, l.factor, l.level] for l in loops],
        "maps": [
            [e.tensor, e.vcaddr, e.size, e.reuse, e.bypass] for e in maps
        ],
        "mcts": mcts,
    }


def mapping_file_from_dict(data: dict) -> ModelMappingFile:
    """Deserialize a schema-2 mapping file.

    Raises:
        MappingError: another schema version, a missing key, a row of
            the wrong length, a row id outside its table, or a value
            that fails a mapping object's own checks.
    """
    version = (data.get("schema_version")
               if isinstance(data, dict) else None)
    if version != SCHEMA_VERSION:
        raise MappingError(
            f"unsupported mapping-file schema {version!r} (expected "
            f"{SCHEMA_VERSION}); re-save or re-solve the mapping"
        )
    try:
        return _decode_mapping_file(data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MappingError(
            f"malformed schema-{SCHEMA_VERSION} mapping file "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _decode_mapping_file(data: dict) -> ModelMappingFile:
    # Each distinct row is built once and shared by every candidate
    # that names it (the objects are frozen).  Row ids index dicts, so
    # a negative id fails like one past the end.
    loop_row = dict(enumerate(
        LoopLevel(*row) for row in data["loops"])).__getitem__
    map_row = dict(enumerate(
        CacheMapEntry(*row) for row in data["maps"])).__getitem__

    def candidate(row: list) -> MappingCandidate:
        kind, usage, cache, dram, cycles, loop_ids, map_ids = row
        return MappingCandidate(
            kind, usage, cache, dram, cycles,
            tuple(map(loop_row, loop_ids)), tuple(map(map_row, map_ids)),
        )

    mcts = [
        MappingCandidateTable(
            layer_index=layer_index,
            layer_name=layer_name,
            lwm=[candidate(row) for row in lwm],
            lbm=candidate(lbm) if lbm is not None else None,
            est_latency_s=est_latency_s,
        )
        for layer_index, layer_name, est_latency_s, lwm, lbm
        in data["mcts"]
    ]
    return ModelMappingFile(
        model_name=data["model_name"],
        usage_levels=tuple(data["usage_levels"]),
        mcts=mcts,
        blocks=[(start, end) for start, end in data["blocks"]],
    )


def mapping_file_to_json(mapping_file: ModelMappingFile) -> str:
    """The on-disk text of a mapping file: compact schema-2 JSON (the
    one form both :func:`save_mapping_file` and the mapping cache
    write)."""
    return json.dumps(mapping_file_to_dict(mapping_file),
                      separators=(",", ":"))


def save_mapping_file(mapping_file: ModelMappingFile,
                      path: Union[str, Path]) -> Path:
    """Write a mapping file as JSON; returns the path written.

    The write is atomic and durable (:func:`write_text_atomic`).
    """
    path = Path(path)
    write_text_atomic(path, mapping_file_to_json(mapping_file))
    return path


def fleet_spec_content_hash(spec) -> str:
    """Stable content hash of a fleet population: the spec alone, so a
    fleet sidecar written by one source tree still verifies under an
    edited one."""
    return stable_content_hash({"fleet": spec.to_dict()})


def stable_content_hash(payload: dict) -> str:
    """SHA-256 over canonical JSON (sorted keys, exact float reprs).

    Stable across processes and platforms for JSON-representable
    payloads, so it can key on-disk caches.
    """
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_SOURCE_SALT: Optional[str] = None


def source_content_salt() -> str:
    """Digest of the package's own source files (cached per process).

    On-disk caches of simulation outputs must not survive code changes:
    salting keys with this digest invalidates every entry whenever any
    ``repro`` source file changes, in either direction — maximally safe,
    while identical trees still share warm caches across runs.  The
    source files are the Python modules and the C batch stepper
    (:func:`source_tree_digest`).
    """
    global _SOURCE_SALT
    if _SOURCE_SALT is None:
        _SOURCE_SALT = source_tree_digest(
            Path(__file__).resolve().parent.parent)
    return _SOURCE_SALT


def source_tree_digest(root: Path) -> str:
    """SHA-256 over the path and bytes of every ``*.py`` and ``*.c``
    file under ``root``, in sorted path order."""
    digest = hashlib.sha256()
    for source in sorted(path for path in root.rglob("*")
                         if path.suffix in (".py", ".c")):
        digest.update(str(source.relative_to(root)).encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def resolve_cache_dir(env_var: str, subdir: str) -> Optional[Path]:
    """Shared cache-directory resolution for the persistent stores.

    ``env_var`` overrides the location; an empty value disables the
    store (returns ``None``).  Default: ``$XDG_CACHE_HOME/camdn-repro/
    <subdir>`` (falling back to ``~/.cache``).
    """
    env = os.environ.get(env_var)
    if env is not None:
        return Path(env).expanduser() if env else None
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "camdn-repro" / subdir


def write_text_atomic(path: Path, text: str) -> None:
    """Atomic durable write: create the parent directory, write a temp
    file, fsync it and rename it over ``path``.

    The fsync-before-rename ordering means a writer killed at any
    instant leaves either the previous content or the complete new
    content, never a torn file.  On any exception the temp file is
    removed and the exception re-raised.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Best-effort :func:`write_text_atomic`; never raises OSError.

    Persistent caches are optimizations — a failed write must not fail
    the computation that produced the value.
    """
    try:
        write_text_atomic(path, text)
    except OSError:
        pass


def soc_config_to_dict(soc: SoCConfig) -> dict:
    """Canonical JSON-ready form of a full SoC configuration."""
    return {
        "npu": {
            "pe_rows": soc.npu.pe_rows,
            "pe_cols": soc.npu.pe_cols,
            "scratchpad_bytes": soc.npu.scratchpad_bytes,
            "frequency_hz": soc.npu.frequency_hz,
            "dwconv_efficiency": soc.npu.dwconv_efficiency,
        },
        "num_npu_cores": soc.num_npu_cores,
        "cache": {
            "total_bytes": soc.cache.total_bytes,
            "num_slices": soc.cache.num_slices,
            "num_ways": soc.cache.num_ways,
            "npu_ways": soc.cache.npu_ways,
            "line_bytes": soc.cache.line_bytes,
            "page_bytes": soc.cache.page_bytes,
        },
        "dram": {
            "total_bandwidth_bytes_per_s":
                soc.dram.total_bandwidth_bytes_per_s,
            "num_channels": soc.dram.num_channels,
            "access_latency_s": soc.dram.access_latency_s,
        },
        "dtype_bytes": soc.dtype_bytes,
    }


def soc_config_from_dict(data: dict) -> SoCConfig:
    """Inverse of :func:`soc_config_to_dict`."""
    return SoCConfig(
        npu=NPUConfig(**data["npu"]),
        num_npu_cores=data["num_npu_cores"],
        cache=CacheConfig(**data["cache"]),
        dram=DRAMConfig(**data["dram"]),
        dtype_bytes=data["dtype_bytes"],
    )


#: Field order of serialized per-inference records.
_RECORD_FIELDS = (
    "instance_id", "stream_id", "model_abbr", "arrival_time",
    "start_time", "finish_time", "latency_s", "dram_bytes",
    "hit_bytes", "access_bytes", "qos_target_s", "met_deadline",
)


def simulation_result_to_dict(result: "SimulationResult") -> dict:
    """Serialize an engine run (including its metrics records)."""
    return {
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "scheduler_name": result.scheduler_name,
        "sim_time_s": result.sim_time_s,
        "scheduler_stats": dict(result.scheduler_stats),
        "wall_time_s": result.wall_time_s,
        "events_processed": result.events_processed,
        "offered_inferences": result.offered_inferences,
        "cancelled_inferences": result.cancelled_inferences,
        "completed_inferences": result.completed_inferences,
        "dropped_inferences": result.dropped_inferences,
        "offered_load_ratio": result.offered_load_ratio,
        "records": [
            [getattr(rec, f) for f in _RECORD_FIELDS]
            for rec in result.metrics.records
        ],
    }


def simulation_result_from_dict(data: dict) -> "SimulationResult":
    """Inverse of :func:`simulation_result_to_dict`.

    Raises:
        MappingError: the payload is not a supported result schema.
    """
    from ..sim.engine import SimulationResult
    from ..sim.metrics import InstanceRecord, MetricsCollector

    version = data.get("result_schema_version")
    if version != RESULT_SCHEMA_VERSION:
        raise MappingError(
            f"unsupported result schema {version!r} "
            f"(expected {RESULT_SCHEMA_VERSION})"
        )
    metrics = MetricsCollector()
    for values in data["records"]:
        metrics.records.append(
            InstanceRecord(**dict(zip(_RECORD_FIELDS, values)))
        )
    return SimulationResult(
        scheduler_name=data["scheduler_name"],
        sim_time_s=data["sim_time_s"],
        metrics=metrics,
        scheduler_stats=dict(data["scheduler_stats"]),
        wall_time_s=data["wall_time_s"],
        events_processed=data["events_processed"],
        offered_inferences=data["offered_inferences"],
        cancelled_inferences=data["cancelled_inferences"],
        completed_inferences=data["completed_inferences"],
        dropped_inferences=data["dropped_inferences"],
        offered_load_ratio=data["offered_load_ratio"],
    )


def load_mapping_file(path: Union[str, Path]) -> ModelMappingFile:
    """Read a schema-2 JSON mapping file.

    Raises:
        MappingError: the file cannot be read or is not a well-formed
            schema-2 mapping file; the message names the file.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:
        raise MappingError(f"cannot read mapping file {path}: {exc}") \
            from exc
    try:
        return mapping_file_from_dict(data)
    except MappingError as exc:
        raise MappingError(f"mapping file {path}: {exc}") from exc
