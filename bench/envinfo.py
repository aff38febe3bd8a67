"""Machine and environment block attached to every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import numpy as np
import scipy

# OpenBLAS builds prefix their symbols differently (numpy and scipy each
# ship their own copy); the first name a library exports is used.
_THREAD_SYMBOLS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")


def blas_pools() -> list[dict]:
    """Each OpenBLAS library loaded in this process with its thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        owner = "scipy" if "scipy.libs" in path else "numpy" if "numpy.libs" in path else "other"
        pools.append({"owner": owner, "library": os.path.basename(path), "threads": threads})
    return pools


def _blas_vendor(module) -> str | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # benchmark checkouts are plain file trees
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def describe(root: str) -> dict:
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS, as ppqnd.polarization does)
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_vendor(np), "scipy": _blas_vendor(scipy)},
        "blas_pools": blas_pools(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "git_commit": _git_commit(root),
    }
