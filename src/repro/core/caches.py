"""Byte-budgeted LRU caches for long-running matchers.

The V stage memoizes two kinds of arrays: extracted feature matrices
(one per V-Scenario) and pairwise membership vectors (one per ordered
scenario pair).  A batch run can let both grow without bound, but a
long-lived ``repro serve`` process cannot — the membership cache alone
is quadratic in the touched-scenario count.  :class:`ByteBudgetLRU`
bounds a cache by *payload bytes* rather than entry count, because the
entries are arrays of wildly different sizes (a crowded scenario's
feature matrix dwarfs a sparse one's).

Eviction is plain LRU over the byte budget.  A value larger than the
whole budget is never admitted (it would evict everything and still
bust the bound), so ``peak_bytes`` is a hard guarantee, not a
high-water average.  Evicted values are recomputable by construction —
the V stage recomputes on miss — so eviction affects time, not choices
(a recomputed membership vector may differ in its last bits; pinned by
``tests/test_backend_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")


@dataclass
class ByteCacheStats:
    """Counters a bounded cache maintains (surfaced in bench output)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected_oversize: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ByteBudgetLRU(Generic[V]):
    """An LRU mapping bounded by the total byte size of its values.

    Args:
        budget_bytes: maximum total payload bytes; ``None`` disables
            eviction entirely (the batch-run default — identical to the
            plain-dict behavior it replaces).
        sizeof: payload size of one value in bytes (e.g.
            ``lambda a: a.nbytes`` for arrays).
    """

    def __init__(
        self,
        budget_bytes: Optional[int],
        sizeof: Callable[[Any], int],
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive or None, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._sizeof = sizeof
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.current_bytes = 0
        self.peak_bytes = 0
        self.stats = ByteCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[V]:
        """The cached value, refreshed as most-recent; ``None`` on miss."""
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Insert a value, evicting LRU entries past the byte budget."""
        size = self._sizeof(value)
        if self.budget_bytes is not None and size > self.budget_bytes:
            self.stats.rejected_oversize += 1
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= self._sizeof(old)
        self._entries[key] = value
        self.current_bytes += size
        if self.budget_bytes is not None:
            while self.current_bytes > self.budget_bytes:
                _stale_key, stale = self._entries.popitem(last=False)
                self.current_bytes -= self._sizeof(stale)
                self.stats.evictions += 1
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def clear(self) -> None:
        self._entries.clear()
        self.current_bytes = 0
