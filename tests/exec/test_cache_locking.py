"""Cache locking + the TTL policy: the reset-during-recommend regression.

Before the planning service, :func:`reset_plan_cache` /
:func:`reset_placement_cache` raced unsynchronised against lookups —
harmless in single-threaded sweeps, a torn-LRU/desynchronised-counter
hazard once request threads share the caches. These tests hammer resets
against concurrent lookups and pin down the TTL policy semantics on an
injected clock, as one contract run against every cache level.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.mapping.base import SlotSpace
from repro.core.mapping.oblivious import ObliviousMapping
from repro.exec.memo import set_cache_policy
from repro.exec.placementcache import (
    cached_placement,
    placement_cache_stats,
    reset_placement_cache,
)
from repro.exec.plancache import (
    plan_cache_stats,
    reset_plan_cache,
    sequential_plan,
)
from repro.netsim.engine import VECTOR, reset_route_cache, route_cache_stats
from repro.runtime.halo import HaloSpec, halo_messages_array
from repro.runtime.process_grid import ProcessGrid
from repro.topology.torus import Torus3D


def _reset_all():
    set_cache_policy(ttl_s=None)
    reset_plan_cache()
    reset_placement_cache()
    reset_route_cache()


@pytest.fixture(autouse=True)
def _fresh_caches():
    _reset_all()
    yield
    _reset_all()


class _FakeClock:
    def __init__(self) -> None:
        self.now = 50.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _route_lookup():
    """One routed exchange; the routed half is the cached object."""
    grid = ProcessGrid(4, 4)
    batch = halo_messages_array(grid, grid.full_rect(), 64, 64, HaloSpec())
    torus = Torus3D((2, 2, 2))
    nodes = [torus.coord_of(i % torus.num_nodes) for i in range(16)]
    return VECTOR.route_exchange(torus, nodes, batch)[0]


# ----------------------------------------------------------------------
# TTL policy semantics: one contract, bound to each level below
# ----------------------------------------------------------------------
class _TtlContract:
    #: Whether the level sizes its entries (byte-budgeted levels do).
    sized = True

    def lookup(self):
        raise NotImplementedError

    def stats(self):
        raise NotImplementedError

    def test_entries_expire_lazily_on_lookup(self):
        clock = _FakeClock()
        set_cache_policy(ttl_s=10.0, clock=clock)
        first = self.lookup()
        assert self.lookup() is first
        clock.advance(10.5)
        second = self.lookup()
        assert second is not first  # stale entry was dropped and recomputed
        stats = self.stats()
        assert stats.expired == 1
        assert stats.misses == 2  # the expiry counted as a miss too
        assert stats.entries == 1  # recomputed entry is resident again

    def test_entries_survive_within_the_ttl(self):
        clock = _FakeClock()
        set_cache_policy(ttl_s=10.0, clock=clock)
        first = self.lookup()
        clock.advance(9.9)
        assert self.lookup() is first
        assert self.stats().expired == 0

    def test_disabling_the_policy_stops_expiry(self):
        clock = _FakeClock()
        set_cache_policy(ttl_s=10.0, clock=clock)
        first = self.lookup()
        set_cache_policy(ttl_s=None)
        clock.advance(1e6)
        assert self.lookup() is first

    def test_expiry_releases_the_byte_accounting(self):
        clock = _FakeClock()
        set_cache_policy(ttl_s=10.0, clock=clock)
        first = self.lookup()
        assert self.lookup() is first
        resident = self.stats().resident_bytes
        assert (resident > 0) == self.sized
        clock.advance(10.5)
        assert self.lookup() is not first
        stats = self.stats()
        assert stats.expired == 1
        # Expired bytes were released, then the recomputed entry re-added.
        assert stats.resident_bytes == resident

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError, match="ttl_s must be > 0"):
            set_cache_policy(ttl_s=0.0)
        with pytest.raises(ValueError, match="ttl_s must be > 0"):
            set_cache_policy(ttl_s=-5.0)


class TestPlanCacheTtl(_TtlContract):
    sized = False

    @pytest.fixture(autouse=True)
    def _domains(self, pacific, two_siblings):
        self.domains = pacific, two_siblings

    def lookup(self):
        return sequential_plan(ProcessGrid(16, 16), *self.domains)

    def stats(self):
        return plan_cache_stats()


class TestPlacementCacheTtl(_TtlContract):
    def lookup(self):
        return cached_placement(
            ObliviousMapping(), ProcessGrid(8, 4), SlotSpace(Torus3D((4, 4, 2)), 1)
        )

    def stats(self):
        return placement_cache_stats()


class TestRouteCacheTtl(_TtlContract):
    def lookup(self):
        return _route_lookup()

    def stats(self):
        return route_cache_stats()


# ----------------------------------------------------------------------
# The reset-during-lookup hammer
# ----------------------------------------------------------------------
def _hammer(lookup, reset, stats, seconds=1.5, workers=4):
    """Run *lookup* loops on threads while the main thread spams *reset*."""
    stop = threading.Event()
    failures = []

    def worker():
        while not stop.is_set():
            try:
                assert lookup() is not None
            except BaseException as exc:  # noqa: BLE001 - recording, not hiding
                failures.append(exc)
                return

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for t in threads:
        t.start()
    import time

    deadline = time.monotonic() + seconds
    resets = 0
    while time.monotonic() < deadline:
        reset()
        stats()  # stats reads must interleave safely too
        resets += 1
    stop.set()
    for t in threads:
        t.join(timeout=30)
    assert not failures, failures[0]
    assert resets > 0
    return resets


class TestResetDuringLookupHammer:
    def test_plan_cache_reset_races_lookups_safely(self, pacific, two_siblings):
        grid = ProcessGrid(16, 16)

        _hammer(
            lambda: sequential_plan(grid, pacific, two_siblings),
            reset_plan_cache,
            plan_cache_stats,
        )
        # Counters are coherent afterwards: a fresh pair of lookups
        # lands exactly one miss then one hit.
        reset_plan_cache()
        sequential_plan(grid, pacific, two_siblings)
        sequential_plan(grid, pacific, two_siblings)
        stats = plan_cache_stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_placement_cache_reset_races_lookups_safely(self):
        grid = ProcessGrid(8, 4)
        space = SlotSpace(Torus3D((4, 4, 2)), 1)

        _hammer(
            lambda: cached_placement(ObliviousMapping(), grid, space),
            reset_placement_cache,
            placement_cache_stats,
        )
        reset_placement_cache()
        cached_placement(ObliviousMapping(), grid, space)
        cached_placement(ObliviousMapping(), grid, space)
        stats = placement_cache_stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_route_cache_reset_races_lookups_safely(self):
        _hammer(_route_lookup, reset_route_cache, route_cache_stats)
        reset_route_cache()
        _route_lookup()
        _route_lookup()
        stats = route_cache_stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)

    def test_reset_races_a_full_recommend_sweep(self):
        """The service-shaped regression: cache resets mid-recommend
        never corrupt the sweep or change its answer."""
        from repro.analysis.planner import recommend
        from repro.topology.machines import BLUE_GENE_L
        from repro.workloads.paper_configs import table2_domains

        config = table2_domains()
        baseline = recommend(config, BLUE_GENE_L, max_ranks=128, jobs=1)

        result = {}
        done = threading.Event()

        def sweep():
            result["rec"] = recommend(config, BLUE_GENE_L, max_ranks=128, jobs=1)
            done.set()

        t = threading.Thread(target=sweep)
        t.start()
        while not done.is_set():
            reset_plan_cache()
            reset_placement_cache()
        t.join(timeout=60)
        assert result["rec"].fastest == baseline.fastest
        assert result["rec"].recommended == baseline.recommended
        assert [o.time_per_iteration for o in result["rec"].options] == [
            o.time_per_iteration for o in baseline.options
        ]
