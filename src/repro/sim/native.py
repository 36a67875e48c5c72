"""Build-on-demand loader for the native batch-loop kernels.

With native code, the engine's batch loop makes one C call
(:mod:`repro.sim._batchstep`, ``batch_loop``) per run of events for
every policy: the C loop steps each event with the same arithmetic as
the Python split path (``_recompute_rates`` + ``RunningKernel.step``),
and takes the layer completions the policy's completion table covers
(see :meth:`~repro.schedulers.base.SchedulerPolicy.native_batch_args`);
the rest go back to the Python chain.  The extension's other entry
point, ``fused_step``, is the one-event harness of the C-vs-Python
bit-identity tests, and :func:`fused_step` is the loader.  The
extension is compiled from the shipped ``_batchstep.c`` the first time
a process asks for it, cached under
``$XDG_CACHE_HOME/camdn-repro/native/`` keyed by source digest and
Python ABI, and loaded from the cache on every later run — so the repo
stays a plain ``PYTHONPATH=src`` checkout with no build step.

The loader is strictly best-effort: a missing compiler, a sandboxed
filesystem, a failed compile or a failed import all degrade to the
Python split path and completion chain (bit-identical by construction,
just slower).  Disable explicitly with ``REPRO_NATIVE=0``;
:func:`native_status` reports what happened for benchmark metadata and
debugging.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Callable, Optional

from ..core.serialize import resolve_cache_dir

_SOURCE = Path(__file__).with_name("_batchstep.c")

#: Bump to invalidate cached binaries when the calling convention
#: changes without a source change (defensive; the digest covers the
#: normal case).
_ABI_TAG = 2

_loaded = False
_fused_step: Optional[Callable] = None
_batch_loop: Optional[Callable] = None
_status = "not loaded"

#: Completion-table kinds of
#: :meth:`~repro.schedulers.base.SchedulerPolicy.native_batch_args`
#: (the first item of the table tuple; ``None`` hands every completion
#: back to Python).
TABLE_WORKS = 1
TABLE_CAMDN = 2


def _compiler() -> list:
    """The C compiler command, as an argv prefix."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return cc.split()


def _build(so_path: Path) -> None:
    """Compile ``_batchstep.c`` into ``so_path`` (atomic publish).

    ``-ffp-contract=off`` matters: fused multiply-adds would change the
    last ulp of the rate/advance arithmetic and break the bit-identity
    contract with the Python path.
    """
    include = sysconfig.get_paths()["include"]
    tmp = so_path.with_suffix(f".tmp.{os.getpid()}.so")
    cmd = _compiler() + [
        "-O2",
        "-fPIC",
        "-shared",
        "-ffp-contract=off",
        f"-I{include}",
        str(_SOURCE),
        "-o",
        str(tmp),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"cc failed ({proc.returncode}): "
                f"{proc.stderr.strip()[:400]}"
            )
        # fsync before the rename publishes the binary: a crash mid-way
        # leaves either no cache entry or a complete one, never a
        # truncated .so (the import-failure rebuild is the backstop,
        # not the first line of defense).
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, so_path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_from(so_path: Path):
    # The module name must match the C init symbol (PyInit__batchstep);
    # the module is loaded standalone and never placed in sys.modules.
    loader = importlib.machinery.ExtensionFileLoader(
        "_batchstep", str(so_path)
    )
    spec = importlib.util.spec_from_file_location(
        "_batchstep", str(so_path), loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def fused_step() -> Optional[Callable]:
    """The native one-event ``fused_step``, or ``None`` when unavailable.

    First call per process compiles (or reuses) the cached extension;
    later calls return the memoized result.  Callers use it as the
    loader; the engine itself calls :func:`batch_loop`.
    """
    global _loaded, _fused_step, _batch_loop, _status
    if _loaded:
        return _fused_step
    _loaded = True
    if os.environ.get("REPRO_NATIVE", "1") in ("0", "false", "no"):
        _status = "disabled by REPRO_NATIVE"
        return None
    try:
        digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
        # SOABI covers interpreter, version, abiflags and platform, so
        # incompatible builds sharing one home never collide on a .so.
        soabi = sysconfig.get_config_var("SOABI") \
            or sys.implementation.cache_tag
        tag = f"{soabi}-abi{_ABI_TAG}-{digest}"
        cache_dir = resolve_cache_dir("REPRO_NATIVE_CACHE", "native")
        if cache_dir is None:
            _status = "cache dir disabled"
            return None
        cache_dir.mkdir(parents=True, exist_ok=True)
        so_path = cache_dir / f"_batchstep-{tag}.so"
        if not so_path.exists():
            _build(so_path)
            module = _load_from(so_path)
        else:
            try:
                module = _load_from(so_path)
            except Exception:
                # A cached binary that fails to import (truncated write,
                # corruption) is invalidated and rebuilt once before
                # degrading to the Python path.
                so_path.unlink(missing_ok=True)
                _build(so_path)
                module = _load_from(so_path)
        _fused_step = module.fused_step
        _batch_loop = module.batch_loop
        _status = f"loaded ({so_path.name})"
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _fused_step = None
        _batch_loop = None
        _status = f"unavailable: {type(exc).__name__}: {exc}"
    return _fused_step


def batch_loop() -> Optional[Callable]:
    """The native batch loop (events plus the layer completions of the
    policy's table), or ``None``; shares the load attempt with
    :func:`fused_step`."""
    if not _loaded:
        fused_step()
    return _batch_loop


def native_status() -> str:
    """Human-readable result of the last load attempt."""
    return _status


def reset_for_tests() -> None:
    """Forget the memoized load so tests can exercise both paths."""
    global _loaded, _fused_step, _batch_loop, _status
    _loaded = False
    _fused_step = None
    _batch_loop = None
    _status = "not loaded"
