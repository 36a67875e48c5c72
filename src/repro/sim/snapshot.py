"""Versioned, content-hashed engine checkpoints with exact resume.

An :class:`EngineSnapshot` captures the *complete* mid-run state of a
:class:`~repro.sim.engine.MultiTenantEngine` at a batch boundary — the
SoA kernel arrays and wakeup heap, the scenario timeline heap with
per-stream backlogs, stall state and arrival-RNG draw positions, the
fault-schedule cursor and active throttle/outage windows, the metrics
accumulators, and the policy's own state through the
``SchedulerPolicy.snapshot_state()`` / ``restore_state()`` hooks (for
CaMDN: the allocator SoA arrays, regions, CPT and page reverse maps).

Resume is **byte-identical**: running a snapshot to completion produces
the same ``metric_summary()`` as the uninterrupted run, for every
builtin scenario, all five policies, and any fault schedule — the
property the crash-resume test grid and the fuzzers' snapshot-at-random-
boundary properties pin.

Design notes:

* **One pickle payload.**  All mutable state serializes in a single
  pickle, so every shared identity survives the round trip: a
  ``TaskInstance`` appears once whether reached through the kernel, the
  active map, the wait heap or the queue; the CaMDN scheduler contexts
  pinned on ``inst.sched_ctx`` are the same tuples as the system's
  ``_ctx`` values.
* **Model graphs are interned, not serialized.**  A
  ``persistent_id`` hook replaces zoo-built
  :class:`~repro.models.graph.ModelGraph` objects with their benchmark
  key; loading re-resolves them through the process-wide
  ``build_model`` cache, keeping identity-guarded memos (prepared
  models, mapping files) hot after resume.  Graphs built outside the
  zoo simply serialize by value — pure memos then rebuild with
  identical values.
* **The envelope is versioned and content-hashed.**  The JSON wrapper
  carries ``SNAPSHOT_SCHEMA_VERSION`` and the SHA-256 of the payload;
  loading rejects unknown versions and corrupt payloads with
  :class:`~repro.errors.SnapshotError` before any unpickling happens.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from ..errors import SnapshotError
from ..models.graph import ModelGraph
from ..models.zoo import BENCHMARK_MODELS, build_model

if TYPE_CHECKING:
    from .engine import MultiTenantEngine

#: Snapshot format version; bump on any payload/envelope shape change.
SNAPSHOT_SCHEMA_VERSION = 1

#: Fixed pickle protocol so snapshots are portable across the Python
#: versions the CI matrix covers (protocol 4 is universal on 3.8+).
_PICKLE_PROTOCOL = 4


def _interned_graphs() -> Dict[int, str]:
    """id -> zoo key for every benchmark graph interned by
    ``build_model`` (computed per capture: the lru cache may have been
    cleared between runs, and probing it is eight cached calls)."""
    mapping: Dict[int, str] = {}
    for abbr in BENCHMARK_MODELS:
        try:
            mapping[id(build_model(abbr))] = abbr
        except Exception:  # pragma: no cover - zoo builders never fail
            continue
    return mapping


class _SnapshotPickler(pickle.Pickler):
    """Pickler interning zoo model graphs by benchmark key."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=_PICKLE_PROTOCOL)
        self._interned = _interned_graphs()

    def persistent_id(self, obj):  # noqa: D102 - pickle hook
        if isinstance(obj, ModelGraph):
            key = self._interned.get(id(obj))
            if key is not None:
                return ("model", key)
        return None


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickler resolving interned graphs through ``build_model``."""

    def persistent_load(self, pid):  # noqa: D102 - pickle hook
        try:
            kind, key = pid
        except (TypeError, ValueError):
            raise SnapshotError(
                f"malformed persistent id in snapshot payload: {pid!r}"
            ) from None
        if kind != "model":
            raise SnapshotError(
                f"unknown persistent id kind in snapshot payload: "
                f"{kind!r}"
            )
        return build_model(key)


def _dumps(obj) -> bytes:
    buf = io.BytesIO()
    _SnapshotPickler(buf).dump(obj)
    return buf.getvalue()


def _loads(payload: bytes):
    return _SnapshotUnpickler(io.BytesIO(payload)).load()


@dataclass
class EngineSnapshot:
    """A frozen engine state: policy name + one pickled payload.

    Build one with :meth:`capture` (or
    :meth:`MultiTenantEngine.snapshot`), persist it with :meth:`save` /
    :meth:`to_json`, and reconstruct a runnable engine with
    :meth:`resume` — then drive it to completion with
    :meth:`~repro.sim.engine.MultiTenantEngine.resume_run`.
    """

    policy: str
    payload: bytes
    #: Simulated time at capture (informational; the payload is
    #: authoritative).
    sim_time_s: float = 0.0
    #: Events processed at capture (informational).
    events_processed: int = 0

    @classmethod
    def capture(cls, engine: "MultiTenantEngine") -> "EngineSnapshot":
        """Snapshot a live engine (batch-boundary contract: the engine
        must be between batches — inside ``run()`` that is the top of
        the outer event loop, where checkpoints are taken)."""
        return cls(
            policy=engine.scheduler.name,
            payload=_dumps(engine._capture_state()),
            sim_time_s=engine.now,
            events_processed=engine.events_processed,
        )

    # ------------------------------------------------------------------
    # Envelope (JSON, versioned, content-hashed)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to the versioned, content-hashed JSON envelope."""
        return json.dumps({
            "snapshot_schema_version": SNAPSHOT_SCHEMA_VERSION,
            "policy": self.policy,
            "sim_time_s": self.sim_time_s,
            "events_processed": self.events_processed,
            "payload_sha256": hashlib.sha256(self.payload).hexdigest(),
            "payload": base64.b64encode(self.payload).decode("ascii"),
        })

    @classmethod
    def from_json(cls, text: str) -> "EngineSnapshot":
        """Parse an envelope, validating version and payload hash.

        Raises:
            SnapshotError: not a snapshot, unknown schema version, or
                the payload hash does not match (corruption).
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot is not valid JSON: {exc}") \
                from exc
        if not isinstance(data, dict):
            raise SnapshotError("snapshot envelope is not an object")
        version = data.get("snapshot_schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                f"unsupported snapshot schema {version!r} "
                f"(expected {SNAPSHOT_SCHEMA_VERSION})"
            )
        try:
            payload = base64.b64decode(
                data["payload"].encode("ascii"), validate=True
            )
        except (KeyError, AttributeError, ValueError) as exc:
            raise SnapshotError(f"snapshot payload unreadable: {exc}") \
                from exc
        digest = hashlib.sha256(payload).hexdigest()
        if digest != data.get("payload_sha256"):
            raise SnapshotError(
                "snapshot payload hash mismatch (corrupt or truncated "
                f"payload): {digest} != {data.get('payload_sha256')!r}"
            )
        return cls(
            policy=data.get("policy", ""),
            payload=payload,
            sim_time_s=data.get("sim_time_s", 0.0),
            events_processed=data.get("events_processed", 0),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the envelope atomically and durably (tmp + fsync +
        rename): a crash mid-write leaves the previous checkpoint (or
        nothing), never a torn file."""
        from ..core.serialize import write_text_atomic

        path = Path(path)
        write_text_atomic(path, self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EngineSnapshot":
        """Read an envelope file (validating schema and hash).

        Raises:
            SnapshotError: unreadable file or invalid envelope.
        """
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") \
                from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------

    def resume(self, use_native: Optional[bool] = None
               ) -> "MultiTenantEngine":
        """Reconstruct a runnable engine from this snapshot.

        The returned engine continues with
        :meth:`~repro.sim.engine.MultiTenantEngine.resume_run`;
        ``run()`` on it raises
        :class:`~repro.errors.SimulationError`.

        ``use_native`` defaults to auto, and ``False`` resumes without
        any native code, on the Python split path.  It only selects
        between bit-identical implementations, so it never changes
        results.  A payload written while the engine still had a
        kernel-backend pin resumes too: the pin's key is ignored.

        Raises:
            SnapshotError: the payload does not unpickle into engine
                state.
        """
        from ..schedulers import make_scheduler
        from .engine import MultiTenantEngine

        try:
            payload = _loads(self.payload)
            soc = payload["soc"]
            sched_state = payload["scheduler"]["state"]
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(
                f"snapshot payload failed to deserialize: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        scheduler = make_scheduler(self.policy)
        scheduler.attach(soc)
        scheduler.restore_state(sched_state)
        engine = MultiTenantEngine(
            soc,
            scheduler,
            payload["workload"],
            trace=payload["trace"],
            use_native=use_native,
            event_recorder=payload["event_recorder"],
        )
        engine._restore_state(payload)
        return engine
