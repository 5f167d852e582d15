"""Shared fixtures for the planning-service test suite."""

from __future__ import annotations

import pytest

from repro.exec.memo import set_cache_policy
from repro.exec.placementcache import reset_placement_cache
from repro.exec.plancache import reset_plan_cache
from repro.netsim.engine import reset_route_cache


def _reset_shared_state() -> None:
    set_cache_policy(ttl_s=None)
    reset_plan_cache()
    reset_placement_cache()
    reset_route_cache()


@pytest.fixture
def fresh_caches():
    """Zeroed shared caches with no TTL policy, restored afterwards."""
    _reset_shared_state()
    yield
    _reset_shared_state()


@pytest.fixture
def server(fresh_caches):
    """A running planning server on an ephemeral loopback port."""
    from repro.service import PlanningServer

    with PlanningServer() as srv:
        yield srv


@pytest.fixture
def client(server):
    """A client bound to the running ``server`` fixture."""
    from repro.service import ServiceClient

    return ServiceClient(server.url)
