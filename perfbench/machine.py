"""The machine a result was measured on: CPU, caches, memory, libraries, commit.

Reads /proc and /sys only; everything missing reads as "unknown".
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

UNKNOWN = "unknown"
# numpy and scipy each load their own OpenBLAS build; the symbol names differ by build
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or UNKNOWN


def _caches():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind != "Instruction":
            out[f"l{level}_cache"] = _read(index / "size").strip()
    return out


def _ram_mb():
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return round(int(line.split()[1]) / 1024)
    return UNKNOWN


def blas_threads():
    """Thread count of every OpenBLAS library loaded in this process, by file name."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = fn()
                break
    return out


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = Path(root) / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or UNKNOWN
    ref = head[5:]
    sha = _read(git / ref).strip()
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return UNKNOWN


def describe(root):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', UNKNOWN)} {blas.get('version', UNKNOWN)}"
    except (KeyError, TypeError):
        openblas = UNKNOWN
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_caches(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
    }
