"""Compile and load the C hot-kernel library (cached, entirely optional).

The library is built from ``_kernels.c`` with whatever C compiler the
machine offers (``$CC``, ``cc``, ``gcc`` or ``clang``), cached under a
content-hashed filename so recompilation happens only when the source
changes, and loaded through :mod:`ctypes`.  Every failure mode — no
compiler, compile error, unloadable artifact — returns ``None`` and the
dispatch layer silently keeps the NumPy fallback, so importing
:mod:`repro` never breaks on a machine without a toolchain.

Environment knobs:

- ``REPRO_NO_JIT=1`` (read by :mod:`repro.kernels`, not here) skips the
  build entirely;
- ``REPRO_KERNEL_CACHE`` overrides the cache directory (default
  ``$XDG_CACHE_HOME/repro-kernels`` or ``~/.cache/repro-kernels``).

Concurrent builders (e.g. spawned shard workers racing on a cold cache)
are safe: each compiles to a private temporary file and publishes it with
an atomic :func:`os.replace`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["cache_dir", "load_library"]

_SOURCE = Path(__file__).with_name("_kernels.c")

#: Exported symbol -> argtypes (restype defaults to None unless listed in
#: :data:`_RESTYPES`).  ``ctypes.c_void_p`` stands in for array pointers;
#: the dispatch wrappers pass ``ndarray.ctypes.data`` of C-contiguous
#: float64/int8/uint8 arrays.
_SIGNATURES: dict[str, list] = {
    "repro_ruben_block": [
        ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_long, ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p,
    ],
    "repro_classify_rr": [
        ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p,
    ],
    "repro_classify_or": [
        ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ],
    "repro_classify_bf": [
        ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_double, ctypes.c_double, ctypes.c_int, ctypes.c_void_p,
    ],
}

_RESTYPES = {"repro_ruben_block": ctypes.c_int}


def cache_dir() -> Path:
    """Directory holding compiled kernel libraries."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile(target: Path) -> bool:
    compiler = _find_compiler()
    if compiler is None:
        return False
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(fd)
    except OSError:
        return False
    cmd = [
        compiler, "-O3", "-fPIC", "-shared", "-ffp-contract=off",
        "-o", tmp, str(_SOURCE), "-lm",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=180)
        if proc.returncode != 0:
            os.unlink(tmp)
            return False
        os.replace(tmp, target)  # atomic publish: racing builders are fine
        return True
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False


def load_library() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    tag = hashlib.sha256(source).hexdigest()[:16]
    target = cache_dir() / f"repro_kernels_{tag}.so"
    if not target.is_file() and not _compile(target):
        return None
    try:
        lib = ctypes.CDLL(str(target))
    except OSError:
        return None
    try:
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = _RESTYPES.get(name)
    except AttributeError:
        return None  # stale artifact missing a symbol
    return lib
