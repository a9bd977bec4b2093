"""LRU + TTL result cache with EID-tagged invalidation.

Serving the same investigation twice should not cost two Matcher runs:
match and investigate responses are cached under the request's
``cache_key()``.  Two eviction pressures apply:

* **LRU capacity** — the cache holds at most ``capacity`` entries;
  inserting into a full cache evicts the least-recently-used one.
* **TTL** — entries older than ``ttl_s`` are treated as absent (and
  dropped lazily on access).  ``None`` disables the clock entirely.

The interesting part is **invalidation**: when ``ingest_tick`` appends
new scenarios, any cached answer whose tagged EIDs intersect the new
scenarios' EIDs may now be stale — fresh evidence could change the
match.  Entries are therefore tagged at ``put`` time with the EID set
they depend on, and :meth:`ResultCache.invalidate_eids` drops exactly
the affected ones (conservative, never serves stale data).

An entry may also hold its value's **encoded body**
(:attr:`CacheEntry.body`): the cluster worker encodes a cached answer
once, on its first hit, and answers later hits from those bytes.  The
body lives in the entry, so LRU eviction, TTL expiry and invalidation
drop it together with the value — stale bytes cannot outlive the answer
they encode.

``capacity == 0`` is a supported configuration meaning "cache
disabled" — the cold path the throughput benchmark compares against.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Hashable, Iterable, Optional

from repro.obs import get_event_log
from repro.obs import events as ev
from repro.world.entities import EID


@dataclass
class CacheStats:
    """Counters the cache maintains (also surfaced via ``stats``)."""

    hits: int = 0
    misses: int = 0
    evicted_lru: int = 0
    expired_ttl: int = 0
    invalidated: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CacheEntry:
    """One cached value, the EIDs it depends on, and its encoded body.

    ``body`` starts empty; whoever first encodes the value may store
    the bytes here for later hits (the cache never reads them).
    """

    value: Any
    eids: FrozenSet[EID]
    inserted_at: float = 0.0
    body: Optional[bytes] = None


class ResultCache:
    """Thread-safe LRU+TTL cache keyed by request cache keys.

    Args:
        capacity: maximum entries; ``0`` disables the cache.
        ttl_s: seconds an entry stays fresh; ``None`` = no expiry.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive or None, got {ttl_s}")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[CacheEntry]:
        """The entry (value and body), refreshing its recency; ``None``
        on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if self.ttl_s is not None and self._clock() - entry.inserted_at > self.ttl_s:
                del self._entries[key]
                self.stats.expired_ttl += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(
        self, key: Hashable, value: Any, eids: Iterable[EID] = ()
    ) -> None:
        """Insert (or refresh) an entry tagged with its EID deps."""
        if not self.enabled:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = CacheEntry(
                value=value, eids=frozenset(eids), inserted_at=self._clock()
            )
            evicted = []
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                evicted.append(evicted_key)
                self.stats.evicted_lru += 1
        log = get_event_log()
        if evicted and log.enabled:
            for evicted_key in evicted:
                log.emit(
                    ev.SERVICE_CACHE_EVICTED,
                    key=repr(evicted_key),
                    reason="lru",
                    capacity=self.capacity,
                )

    def invalidate_eids(self, eids: Iterable[EID]) -> int:
        """Drop every entry whose tagged EIDs intersect ``eids``.

        The ``ingest_tick`` rule: new evidence about an EID may change
        any answer computed from that EID's scenario list.  Returns the
        number of entries dropped.
        """
        affected = frozenset(eids)
        if not affected:
            return 0
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if entry.eids & affected
            ]
            for key in stale:
                del self._entries[key]
            self.stats.invalidated += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidated += dropped
            return dropped
