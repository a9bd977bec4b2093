"""Host and run facts printed beside every result.

The benchmark measures the defaults a user gets — it pins neither BLAS
threads nor the E-stage backend — so the facts that decide those
defaults travel with every number instead.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

#: Symbols OpenBLAS builds export for their thread count (the ``64_``
#: suffix marks numpy's ILP64 wheels).
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_info() -> Dict[str, Any]:
    """Name and version of numpy's BLAS, from numpy's build config."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # numpy < 1.25
        return {"name": "unknown", "version": "unknown"}


def _blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's own thread count, or ``None`` when no
    OpenBLAS is mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        if not path.startswith("/"):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha(root: Path) -> str:
    """HEAD's sha read from ``.git`` without running git; ``"unknown"``
    in a checkout that is not a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[len("ref: "):]
            ref_file = root / ".git" / name
            if ref_file.exists():
                return ref_file.read_text(encoding="utf-8").strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def cpu_ticks() -> Optional[Dict[str, int]]:
    """Host-wide CPU time so far (``/proc/stat`` ticks): all of it, and
    the part the hypervisor gave to other guests (steal)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal (guest time is
    # already inside user/nice).
    return {"total": sum(fields[:8]), "steal": fields[7] if len(fields) > 7 else 0}


def steal_share(before: Optional[Dict[str, int]], after: Optional[Dict[str, int]]):
    """Share of CPU time stolen by other guests between two readings:
    how much a neighbour on the same machine slowed this run."""
    if before is None or after is None or after["total"] <= before["total"]:
        return None
    return (after["steal"] - before["steal"]) / (after["total"] - before["total"])


def host_facts(root: Path) -> Dict[str, Any]:
    """Facts about this host and checkout that a number depends on."""
    blas = _blas_info()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": _blas_threads(),
        "blas_threads_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "git_sha": _git_sha(root),
        "executable": Path(sys.executable).name,
    }
