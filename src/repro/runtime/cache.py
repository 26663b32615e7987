"""Bounded LRU caching for long-lived extraction processes.

Every hot-path cache in the pipeline used to be a bare dict keyed by
``id(document)``: unbounded retention across batches, and — worse — a
CPython id recycled after garbage collection could silently return a
*different page's* cached value.  This module provides the replacement:

* :class:`LRUCache` — a generic bounded mapping with least-recently-used
  eviction and hit/miss/eviction counters.  Keys are ordinary hashable
  values; callers key page-scoped entries by ``Document.doc_id`` (a
  process-unique serial assigned at parse time, never recycled).
* :class:`CacheStats` — an immutable snapshot of one cache's counters,
  JSON-friendly via :meth:`to_dict`.

The module is intentionally dependency-free (stdlib only) so the low
layers (``repro.kb.matcher``, ``repro.fusion.reliability``) can
import it without dragging in the runtime stack.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

__all__ = ["CacheStats", "LRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters for one cache."""

    name: str
    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 when the cache was never read)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by the stats CLI surface)."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "size": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache(Generic[K, V]):
    """A bounded mapping with least-recently-used eviction.

    Both :meth:`get` and :meth:`put` refresh an entry's recency; once
    ``capacity`` entries are resident, inserting a new key evicts the
    least recently used one.  Lookups update hit/miss counters so a
    long-lived service can report cache effectiveness (:meth:`stats`).

    Not thread-safe by design: every current caller is confined to one
    process/thread (pool workers each build their own caches).
    """

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.name = name
        self._capacity = capacity
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- mapping protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        """Membership test; does not touch recency or counters."""
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Keys from least to most recently used (no recency update)."""
        return iter(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- core operations ---------------------------------------------------

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value (refreshing recency) or ``default``."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            return default
        self._entries.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Insert or update ``key``, evicting the LRU entry if over capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def pop(self, key: K, default: V | None = None) -> V | None:
        """Remove and return an entry (not counted as an eviction)."""
        return self._entries.pop(key, default)

    def clear(self) -> None:
        """Drop every entry; counters are preserved (stats keep history)."""
        self._entries.clear()

    def keys(self) -> list[K]:
        """Keys from least to most recently used."""
        return list(self._entries)

    def stats(self) -> CacheStats:
        """A snapshot of this cache's counters."""
        return CacheStats(
            name=self.name,
            capacity=self._capacity,
            size=len(self._entries),
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
        )
