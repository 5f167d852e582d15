"""One memo primitive for the pure pipeline stages.

Allocation, mapping and routing are pure functions of their inputs, so
each is memoized behind one :class:`Memo`: the plan level
(:mod:`repro.exec.plancache`), the placement level
(:mod:`repro.exec.placementcache`) and the route level
(:mod:`repro.netsim.engine`). A memo is a locked LRU with

* an **entry cap** (``maxsize``);
* an optional **byte budget**: a *sizer* gives each value's resident
  bytes and a *budget* callable is re-read on every insert (so tests and
  long-lived services can retune it). Past the budget, entries are
  evicted LRU-first; a value larger than the whole budget is handed out
  but never retained, and counts as an eviction;
* an optional **per-entry TTL** on an injectable clock, expired lazily
  on lookup: an expired lookup counts as a miss and is tallied in
  ``expired`` as well. While no TTL is set the clock is never read;
* one :class:`CacheStats` view of its counters;
* an optional **registry mirror**: ``<mirror>.hits`` / ``.misses`` /
  ``.evictions`` / ``.expired`` counters and a ``.resident_bytes``
  gauge, kept equal to :meth:`Memo.stats` (the plain attributes stay
  the source of truth, and :meth:`Memo.clear` zeroes both).

Every operation, reset included, holds the memo's one lock, so request
threads in the planning service can look up, reset and retune a level
concurrently without tearing the LRU order or the counters. Values are
shared, never copied: callers store immutable objects.

:func:`set_cache_policy` sets one TTL and clock on every shared level
at once; the planning service calls it with its own clock.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional

from repro.obs.metrics import counter as _obs_counter
from repro.obs.metrics import gauge as _obs_gauge

__all__ = ["CacheStats", "Memo", "set_cache_policy"]


@dataclass(frozen=True)
class CacheStats:
    """One cache level's counters for reports and benchmarks."""

    hits: int
    misses: int
    entries: int
    evictions: int = 0
    resident_bytes: int = 0
    #: Lookups that found an entry past its TTL (also counted as misses).
    expired: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: The levels :func:`set_cache_policy` governs.
_SHARED: List["Memo"] = []


class Memo:
    """A locked, optionally byte-budgeted, optionally TTL'd LRU."""

    def __init__(
        self,
        maxsize: int,
        *,
        sizer: Optional[Callable[[Any], int]] = None,
        budget: Optional[Callable[[], int]] = None,
        mirror: Optional[str] = None,
        shared: bool = False,
    ) -> None:
        self.maxsize = maxsize
        self._sizer = sizer
        self._budget = budget
        # key -> (value, resident bytes, insertion stamp)
        self._data: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expired = 0
        self.resident_bytes = 0
        self.ttl_s: Optional[float] = None
        self._clock: Callable[[], float] = time.monotonic
        self._lock = threading.Lock()
        # Bound once; registry resets zero metrics in place, so these
        # references never go stale.
        self._mirror = mirror is not None
        if self._mirror:
            self._m_hits = _obs_counter(f"{mirror}.hits")
            self._m_misses = _obs_counter(f"{mirror}.misses")
            self._m_evictions = _obs_counter(f"{mirror}.evictions")
            self._m_expired = _obs_counter(f"{mirror}.expired")
            self._m_bytes = _obs_gauge(f"{mirror}.resident_bytes")
        if shared:
            _SHARED.append(self)

    def get(self, key: Hashable) -> Any:
        """The cached value for *key*, or ``None`` on a miss."""
        with self._lock:
            entry = self._data.get(key)
            if (
                entry is not None
                and self.ttl_s is not None
                and self._clock() - entry[2] > self.ttl_s
            ):
                del self._data[key]
                self.resident_bytes -= entry[1]
                self.expired += 1
                if self._mirror:
                    self._m_expired.inc()
                    self._m_bytes.set(self.resident_bytes)
                entry = None
            if entry is None:
                self.misses += 1
                if self._mirror:
                    self._m_misses.inc()
                return None
            self.hits += 1
            if self._mirror:
                self._m_hits.inc()
            self._data.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert *value* as most recent, evicting past the cap or budget."""
        nbytes = self._sizer(value) if self._sizer is not None else 0
        budget = self._budget() if self._budget is not None else math.inf
        with self._lock:
            if nbytes > budget:
                # Larger than the whole budget: hand it out, never retain it.
                self._evicted()
                return
            old = self._data.pop(key, None)
            if old is not None:
                self.resident_bytes -= old[1]
            stamp = self._clock() if self.ttl_s is not None else 0.0
            self._data[key] = (value, nbytes, stamp)
            self.resident_bytes += nbytes
            while len(self._data) > self.maxsize or self.resident_bytes > budget:
                _, (_, evicted_nbytes, _) = self._data.popitem(last=False)
                self.resident_bytes -= evicted_nbytes
                self._evicted()
            if self._mirror:
                self._m_bytes.set(self.resident_bytes)

    def _evicted(self) -> None:
        self.evictions += 1
        if self._mirror:
            self._m_evictions.inc()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                entries=len(self._data),
                evictions=self.evictions,
                resident_bytes=self.resident_bytes,
                expired=self.expired,
            )

    def set_policy(
        self, ttl_s: Optional[float], clock: Optional[Callable[[], float]] = None
    ) -> None:
        """Set the TTL (``None``: keep until evicted) and its clock.

        Setting a TTL restamps resident entries on the new clock, so
        their ages count from now: no clock is read while the TTL is
        off, and a previous clock's readings mean nothing on the new one.
        """
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0 or None, got {ttl_s}")
        with self._lock:
            self.ttl_s = ttl_s
            self._clock = clock or time.monotonic
            if ttl_s is not None:
                now = self._clock()
                for key, (value, nbytes, _) in self._data.items():
                    self._data[key] = (value, nbytes, now)

    def clear(self) -> None:
        """Drop every entry and zero the counters (mirror included)."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = self.expired = 0
            self.resident_bytes = 0
            if self._mirror:
                for metric in (
                    self._m_hits,
                    self._m_misses,
                    self._m_evictions,
                    self._m_expired,
                    self._m_bytes,
                ):
                    metric.reset()


def set_cache_policy(
    *,
    ttl_s: Optional[float] = None,
    clock: Optional[Callable[[], float]] = None,
) -> None:
    """Set one freshness policy on the plan, placement and route levels.

    ``ttl_s=None`` (the default) keeps entries until LRU or byte-budget
    eviction. A positive TTL expires entries lazily on lookup once they
    are older than that many seconds on *clock* (default:
    ``time.monotonic``; injectable for tests and the planning service).
    A non-positive TTL raises :class:`ValueError` before any level changes.
    """
    for memo in _SHARED:
        memo.set_policy(ttl_s, clock)
