"""Tests for the LRU+TTL result cache and its invalidation rule."""

import pytest

from repro.service.cache import ResultCache
from repro.world.entities import EID


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBasics:
    def test_hit_and_miss(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k").value == 42
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_put_refreshes_value(self):
        cache = ResultCache(capacity=4)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k").value == 2
        assert len(cache) == 1

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)
        with pytest.raises(ValueError):
            ResultCache(ttl_s=0)

    def test_disabled_cache(self):
        cache = ResultCache(capacity=0)
        assert not cache.enabled
        cache.put("k", 1)
        assert cache.get("k") is None
        assert len(cache) == 0


class TestLRU:
    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a's recency
        cache.put("c", 3)  # evicts b
        assert cache.get("a").value == 1
        assert cache.get("b") is None
        assert cache.get("c").value == 3
        assert cache.stats.evicted_lru == 1


class TestTTL:
    def test_entries_expire(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_s=10.0, clock=clock)
        cache.put("k", 1)
        clock.advance(9.0)
        assert cache.get("k").value == 1
        clock.advance(2.0)
        assert cache.get("k") is None
        assert cache.stats.expired_ttl == 1
        assert len(cache) == 0

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_s=None, clock=clock)
        cache.put("k", 1)
        clock.advance(10**6)
        assert cache.get("k").value == 1


class TestInvalidation:
    def test_only_tagged_entries_dropped(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1, eids=[EID(1), EID(2)])
        cache.put("b", 2, eids=[EID(3)])
        cache.put("c", 3, eids=[EID(4)])
        dropped = cache.invalidate_eids([EID(2), EID(4)])
        assert dropped == 2
        assert cache.get("a") is None
        assert cache.get("b").value == 2
        assert cache.get("c") is None
        assert cache.stats.invalidated == 2

    def test_empty_invalidation_is_noop(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1, eids=[EID(1)])
        assert cache.invalidate_eids([]) == 0
        assert cache.get("a").value == 1

    def test_untagged_entries_survive(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)  # no EID deps
        assert cache.invalidate_eids([EID(1)]) == 0
        assert cache.get("a").value == 1

    def test_clear(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get("a") is None


class TestBody:
    """An entry's encoded body lives and dies with the entry."""

    @staticmethod
    def fill(cache, key):
        entry = cache.get(key)
        entry.body = f"body of {entry.value}".encode()
        return entry

    def test_later_hits_see_the_body(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a").body is None
        self.fill(cache, "a")
        assert cache.get("a").body == b"body of 1"
        assert cache.get("a").value == 1
        assert cache.stats.hits == 4

    def test_lru_eviction_drops_the_body(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        self.fill(cache, "a")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a, the least recently used
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a").body is None
        assert cache.stats.evicted_lru == 2

    def test_ttl_expiry_drops_the_body(self):
        clock = FakeClock()
        cache = ResultCache(capacity=4, ttl_s=10.0, clock=clock)
        cache.put("a", 1)
        self.fill(cache, "a")
        clock.advance(9.0)
        assert cache.get("a").body == b"body of 1"
        clock.advance(2.0)
        assert cache.get("a") is None
        assert len(cache) == 0
        cache.put("a", 1)
        assert cache.get("a").body is None

    def test_invalidation_and_refresh_drop_the_body(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 1, eids=[EID(1)])
        self.fill(cache, "a")
        cache.invalidate_eids([EID(1)])
        assert cache.get("a") is None
        cache.put("a", 1)
        self.fill(cache, "a")
        cache.put("a", 2)  # a refreshed value never keeps the old bytes
        assert cache.get("a").body is None
