"""Thread pinning and the environment record of a benchmark process.

The thread variables must hold 1 before numpy is imported, because OpenBLAS
and OpenMP read them once when the library loads.  This module imports no
numpy at module level so that it can run first.
"""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PinningError(RuntimeError):
    """A thread variable is set to something other than 1, or numpy loaded too early."""


def pin_threads(environ=os.environ):
    """Set every thread variable to 1; refuse a different value or an early numpy."""
    wrong = {var: environ[var] for var in THREAD_VARS if environ.get(var, "1") != "1"}
    if wrong:
        raise PinningError(f"thread variables must be 1 for a single-threaded run, got {wrong}")
    if environ is os.environ and "numpy" in sys.modules:
        raise PinningError("numpy was imported before the thread variables were pinned")
    for var in THREAD_VARS:
        environ[var] = "1"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment_record():
    """Versions, CPU and thread settings, for every result file."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(np),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }
