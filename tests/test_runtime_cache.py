"""Tests for repro.runtime.cache (bounded LRU + stats)."""

import pytest

from repro.runtime.cache import LRUCache


class TestLRUBasics:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "fallback") == "fallback"

    def test_capacity_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the least recently used
        assert "a" not in cache
        assert cache.keys() == ["b", "c"]

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency_and_updates(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # update, "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_capacity_one(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 1
        assert cache.get("b") == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(0)

    def test_pop_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a") is None
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        # pop/clear are not evictions — counters untouched.
        assert cache.stats().evictions == 0


class TestStats:
    def test_counters(self):
        cache = LRUCache(2, name="demo")
        cache.get("x")  # miss
        cache.put("x", 1)
        cache.get("x")  # hit
        cache.put("y", 2)
        cache.put("z", 3)  # evicts "x"
        stats = cache.stats()
        assert stats.name == "demo"
        assert stats.capacity == 2
        assert stats.size == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.hit_rate == 0.5

    def test_hit_rate_zero_when_unread(self):
        assert LRUCache(2).stats().hit_rate == 0.0

    def test_to_dict_json_friendly(self):
        stats = LRUCache(3, name="n").stats()
        data = stats.to_dict()
        assert data == {
            "name": "n",
            "capacity": 3,
            "size": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }

    def test_clear_preserves_history(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        stats = cache.stats()
        assert stats.size == 0
        assert stats.hits == 1

    def test_iteration_order_lru_first(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")
        assert list(cache) == ["b", "c", "a"]
