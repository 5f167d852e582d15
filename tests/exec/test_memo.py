"""Property suite for :class:`repro.exec.memo.Memo` against a reference model.

Random streams of get, put, oversize put, reset, clock advance, budget
change and TTL change run against both the memo and a plain list model
of an LRU. After every step the two must agree on LRU order, counters
and resident bytes; the byte budget must hold; the registry mirror must
equal ``stats()``. Every cache level (plan, placement, route) is one
memo, so this covers their budgets under adversarial key streams at
once.
"""

from __future__ import annotations

import sys
import threading
from typing import List, Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.exec.memo import CacheStats, Memo, set_cache_policy
from repro.obs.metrics import registry

MIRROR = "test.memo"
MAXSIZE = 4
KEYS = st.integers(0, 6)
SIZES = st.integers(0, 40)


class _Model:
    """The reference: a list of ``[key, value, nbytes, stamp]``, LRU first."""

    def __init__(self) -> None:
        self.entries: List[list] = []
        self.hits = self.misses = self.evictions = self.expired = 0

    def find(self, key: int) -> Optional[list]:
        return next((e for e in self.entries if e[0] == key), None)

    @property
    def resident(self) -> int:
        return sum(e[2] for e in self.entries)


class MemoMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.budget = 100
        self.budget_at_insert = self.budget
        self.ttl: Optional[float] = None
        self.memo = Memo(
            MAXSIZE,
            sizer=lambda value: value[1],
            budget=lambda: self.budget,
            mirror=MIRROR,
        )
        self.memo.clear()  # zero the (process-global) mirror
        self.model = _Model()
        self.serial = 0

    def _value(self, nbytes: int) -> tuple:
        self.serial += 1
        return (self.serial, nbytes)

    def _model_put(self, key: int, value: tuple) -> None:
        m = self.model
        if value[1] > self.budget:
            m.evictions += 1
            return
        self.budget_at_insert = self.budget
        old = m.find(key)
        if old is not None:
            m.entries.remove(old)
        stamp = self.now if self.ttl is not None else 0.0
        m.entries.append([key, value, value[1], stamp])
        while len(m.entries) > MAXSIZE or m.resident > self.budget:
            m.entries.pop(0)
            m.evictions += 1

    @rule(key=KEYS)
    def get(self, key: int) -> None:
        m = self.model
        entry = m.find(key)
        if entry is not None and self.ttl is not None and self.now - entry[3] > self.ttl:
            m.entries.remove(entry)
            m.expired += 1
            entry = None
        if entry is None:
            m.misses += 1
            expected = None
        else:
            m.hits += 1
            m.entries.remove(entry)
            m.entries.append(entry)
            expected = entry[1]
        assert self.memo.get(key) is expected

    @rule(key=KEYS, nbytes=SIZES)
    def put(self, key: int, nbytes: int) -> None:
        value = self._value(nbytes)
        self._model_put(key, value)
        self.memo.put(key, value)

    @rule(key=KEYS, excess=st.integers(1, 50))
    def put_oversize(self, key: int, excess: int) -> None:
        value = self._value(self.budget + excess)
        evictions = self.memo.stats().evictions
        self._model_put(key, value)
        self.memo.put(key, value)
        # Handed out, never retained, counted as one eviction.
        assert all(v is not value for v, _, _ in self.memo._data.values())
        assert self.memo.stats().evictions == evictions + 1

    @rule()
    def reset(self) -> None:
        self.model = _Model()
        self.memo.clear()

    @rule(dt=st.floats(0.0, 20.0))
    def advance(self, dt: float) -> None:
        self.now += dt

    @rule(budget=st.integers(0, 120))
    def change_budget(self, budget: int) -> None:
        self.budget = budget  # takes effect on the next insert

    @rule(ttl=st.one_of(st.none(), st.floats(1.0, 15.0)))
    def change_ttl(self, ttl: Optional[float]) -> None:
        self.ttl = ttl
        if ttl is not None:
            for entry in self.model.entries:
                entry[3] = self.now
        self.memo.set_policy(ttl, lambda: self.now)

    @invariant()
    def lru_order_matches(self) -> None:
        assert list(self.memo._data) == [e[0] for e in self.model.entries]

    @invariant()
    def counters_match(self) -> None:
        m = self.model
        assert self.memo.stats() == CacheStats(
            hits=m.hits,
            misses=m.misses,
            entries=len(m.entries),
            evictions=m.evictions,
            resident_bytes=m.resident,
            expired=m.expired,
        )

    @invariant()
    def budget_holds(self) -> None:
        assert self.memo.stats().resident_bytes <= self.budget_at_insert
        assert len(self.memo._data) <= MAXSIZE

    @invariant()
    def mirror_equals_stats(self) -> None:
        stats = self.memo.stats()
        snap = registry().snapshot(MIRROR + ".")
        for field in ("hits", "misses", "evictions", "expired", "resident_bytes"):
            assert snap[f"{MIRROR}.{field}"]["value"] == getattr(stats, field), field


TestMemoAgainstModel = MemoMachine.TestCase
TestMemoAgainstModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def test_hit_rate():
    assert CacheStats(hits=3, misses=1, entries=1).hit_rate == 0.75
    assert CacheStats(hits=0, misses=0, entries=0).hit_rate == 0.0


def test_set_cache_policy_rejects_nonpositive_ttl():
    with pytest.raises(ValueError, match="ttl_s must be > 0"):
        set_cache_policy(ttl_s=0.0)


def test_counters_lose_no_update_under_thread_contention():
    memo = Memo(8)
    memo.put("hot", object())
    rounds, workers = 2000, 4

    def hammer():
        for _ in range(rounds):
            memo.get("hot")
            memo.get("cold")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    stats = memo.stats()
    assert stats.hits == stats.misses == rounds * workers
