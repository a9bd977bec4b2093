"""One BLAS thread for the V stage's pair fill.

The fill is a few hundred small stacked matmuls.  A second OpenBLAS
thread buys them nothing, and the first multi-threaded call in a
process can stall for over a second while the thread pool wakes up.
:data:`one_blas_thread` bounds the loaded OpenBLAS to one thread while
any fill runs.  OpenBLAS's thread count is process-wide (its
``openblas_set_num_threads_local`` sets the same global in pthreads
builds), so the bound is reference-counted: the first thread in saves
the count and sets 1, and the last thread out restores it.  Where no
OpenBLAS is mapped into the process, the bound does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable, Optional, Tuple

#: ``(setter, getter)`` names per OpenBLAS build; the ``64_`` suffix
#: marks numpy's ILP64 wheels.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

Functions = Tuple[Callable[[int], None], Callable[[], int]]


def find_openblas() -> Optional[Functions]:
    """The mapped OpenBLAS's ``(set_num_threads, get_num_threads)``,
    or ``None`` when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


class OneBLASThread:
    """Reentrant, thread-safe ``with`` bound to one OpenBLAS thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0
        self._functions: Optional[Functions] = None
        self._resolved = False

    def __enter__(self) -> "OneBLASThread":
        with self._lock:
            # Resolved on first use, so importing opens no file.
            if not self._resolved:
                self._functions = find_openblas()
                self._resolved = True
            if self._depth == 0 and self._functions is not None:
                setter, getter = self._functions
                self._saved = getter()
                setter(1)
            self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._functions is not None:
                self._functions[0](self._saved)


#: The process's bound; the V stage's fill runs inside it.
one_blas_thread = OneBLASThread()
