"""The layer catalogue: which public functions each layer's spans wrap,
and the per-layer metrics a traced run reports.

``install`` patches the program from the outside (no code under
``src/`` knows about the benchmark). Span names are layer names:

=========================  ==================================================
span / layer               wrapped public callable
=========================  ==================================================
planner.recommend          ``analysis.planner.recommend``
plancache                  ``exec.plancache.sequential_plan`` / ``parallel_plan``
                           (allocation and scheduling run inside on a miss)
placement                  ``exec.placementcache.cached_placement``
                           (``core.mapping`` runs inside on a miss)
halo                       ``runtime.halo.halo_batch``
netsim.route               ``netsim.engine.VectorBackend.route_exchange``
netsim.route.key           ``runtime.halo.HaloBatch.digest`` (route-cache key)
netsim.placement_vector    ``netsim.engine.as_placement``
netsim.price               ``netsim.engine.VectorBackend.round_estimate``
perfsim.simulate           ``perfsim.simulate.simulate_iteration``
iosim                      ``iosim.model.IoModel.event_cost``
service.schema             ``service.schemas.parse_payload`` / ``dump_bytes``
service.state              ``service.state.ServiceState.recommend`` /
                           ``simulate`` / ``plan``
ensemble.member            ``ensemble.member.EnsembleMember.tick``
ensemble.memo              ``ensemble.memo.CrossMemberMemo.lookup`` / ``store``
wrf.advance                ``wrf.model.NestedModel.advance``
steering.steer             ``steering.driver.SteeredRun.steer``
workqueue.submit           ``exec.workqueue.AffinityWorkQueue.submit``
workqueue.gather           ``exec.workqueue.AffinityWorkQueue.gather``
=========================  ==================================================

Root spans (one per benchmark operation) are opened by the workloads:
``planner.recommend`` itself in plan-cold, ``service.client`` around each
``ServiceClient.post`` in service-mix (with the server's
``service.handler`` spans nested under it), and ``ensemble.tick`` in
ensemble-steer.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Any, Dict, Iterable, Set, Tuple

from spans import Recorder, Summary

#: (metric name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("planner.recommend.calls", "count", "lower"),
    ("planner.recommend.self_s", "s", "lower"),
    ("plancache.calls", "count", "lower"),
    ("plancache.hits", "count", "higher"),
    ("plancache.misses", "count", "lower"),
    ("plancache.self_s", "s", "lower"),
    ("placement.calls", "count", "lower"),
    ("placement.hits", "count", "higher"),
    ("placement.misses", "count", "lower"),
    ("placement.evictions", "count", "lower"),
    ("placement.resident_mb", "MiB", "lower"),
    ("placement.self_s", "s", "lower"),
    ("halo.calls", "count", "lower"),
    ("halo.messages", "count", "lower"),
    ("halo.self_s", "s", "lower"),
    ("netsim.route.calls", "count", "lower"),
    ("netsim.route.hits", "count", "higher"),
    ("netsim.route.misses", "count", "lower"),
    ("netsim.route.evictions", "count", "lower"),
    ("netsim.route.resident_mb", "MiB", "lower"),
    ("netsim.route.self_s", "s", "lower"),
    ("netsim.route.key_s", "s", "lower"),
    ("netsim.route.saved_s", "s", "higher"),
    ("netsim.placement_vector.calls", "count", "lower"),
    ("netsim.placement_vector.self_s", "s", "lower"),
    ("netsim.price.calls", "count", "lower"),
    ("netsim.price.self_s", "s", "lower"),
    ("netsim.streamed_chunks", "count", "lower"),
    ("perfsim.simulate.calls", "count", "lower"),
    ("perfsim.simulate.self_s", "s", "lower"),
    ("iosim.calls", "count", "lower"),
    ("iosim.self_s", "s", "lower"),
    ("service.requests", "count", "higher"),
    ("service.errors", "count", "lower"),
    ("service.response_bytes", "bytes", "lower"),
    ("service.handler_s", "s", "lower"),
    ("service.recommend.handler_ms", "ms", "lower"),
    ("service.simulate.handler_ms", "ms", "lower"),
    ("service.plan.handler_ms", "ms", "lower"),
    ("service.client_s", "s", "lower"),
    ("service.transport_queue_s", "s", "lower"),
    ("service.schema.self_s", "s", "lower"),
    ("service.state.self_s", "s", "lower"),
    ("service.coalesce.hits", "count", "higher"),
    ("service.coalesce.misses", "count", "lower"),
    ("service.pool.created", "count", "lower"),
    ("service.pool.reused", "count", "higher"),
    ("ensemble.member_ticks", "count", "higher"),
    ("ensemble.memo.local_hits", "count", "higher"),
    ("ensemble.memo.shared_hits", "count", "higher"),
    ("ensemble.memo.misses", "count", "lower"),
    ("ensemble.memo.shared_drops", "count", "lower"),
    ("ensemble.memo.hit_rate", "ratio", "higher"),
    ("ensemble.memo.self_s", "s", "lower"),
    ("ensemble.member.self_s", "s", "lower"),
    ("ensemble.member.busy_s", "s", "lower"),
    ("ensemble.tick.wait_s", "s", "lower"),
    ("steering.steer_self_s", "s", "lower"),
    ("steering.replans", "count", "lower"),
    ("steering.moves", "count", "lower"),
    ("wrf.advance.calls", "count", "lower"),
    ("wrf.advance.self_s", "s", "lower"),
    ("wrf.points_stepped", "count", "lower"),
    ("workqueue.waves", "count", "lower"),
    ("workqueue.submit_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.residual_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Largest allowed (layers + untraced - wall) / wall of a traced run.
RECONCILE_LIMIT = 0.05

#: Layers whose spans give ``<layer>.calls`` / ``<layer>.self_s`` directly.
_SPAN_LAYERS = (
    "planner.recommend",
    "plancache",
    "placement",
    "halo",
    "netsim.route",
    "netsim.placement_vector",
    "netsim.price",
    "perfsim.simulate",
    "iosim",
    "wrf.advance",
)


class Counts:
    """Thread-safe counters the wrappers bump outside their spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values: Dict[str, float] = defaultdict(float)
        #: Span ids of route_exchange calls that missed the route cache.
        self.route_miss_ids: Set[int] = set()
        self._route_misses_seen = 0

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount

    def sync_route(self, misses_now: int) -> None:
        """Start classifying from the route cache's current miss count."""
        with self._lock:
            self._route_misses_seen = misses_now

    def classify_route(self, sid: int, misses_now: int) -> None:
        """Mark span *sid* a miss when the cache's miss counter moved."""
        with self._lock:
            if misses_now > self._route_misses_seen:
                self.route_miss_ids.add(sid)
            self._route_misses_seen = misses_now


def install(rec: Recorder, counts: Counts) -> None:
    """Wrap every layer's public entry points; ``rec.restore()`` undoes it."""
    # Load every module that binds a wrapped function by name (the
    # imports below load the rest), so the patch reaches each call site.
    import repro.ensemble.runtime  # noqa: F401
    import repro.perfsim.commcost  # noqa: F401
    import repro.service.app  # noqa: F401
    from repro.analysis.planner import recommend
    from repro.ensemble.member import EnsembleMember
    from repro.ensemble.memo import CrossMemberMemo
    from repro.exec.placementcache import cached_placement
    from repro.exec.plancache import parallel_plan, sequential_plan
    from repro.exec.workqueue import AffinityWorkQueue
    from repro.iosim.model import IoModel
    from repro.netsim.engine import VectorBackend, as_placement, route_cache_stats
    from repro.perfsim.simulate import simulate_iteration
    from repro.runtime.halo import HaloBatch, halo_batch
    from repro.service.schemas import dump_bytes, parse_payload
    from repro.service.state import ServiceState
    from repro.steering.driver import SteeredRun
    from repro.wrf.model import NestedModel

    def halo_after(out: Any, args: tuple, kwargs: dict, sid: int) -> None:
        counts.add("halo.messages", len(out))

    def route_after(out: Any, args: tuple, kwargs: dict, sid: int) -> None:
        counts.classify_route(sid, route_cache_stats().misses)

    def advance_after(out: Any, args: tuple, kwargs: dict, sid: int) -> None:
        model = args[0]
        points = model.parent_spec.points + sum(
            model.nests[n].spec.points * model.nests[n].spec.steps_per_parent_step
            for n in model.sibling_names
        )
        counts.add("wrf.points_stepped", points)

    counts.sync_route(route_cache_stats().misses)
    rec.patch_function(recommend, "planner.recommend")
    rec.patch_function(sequential_plan, "plancache")
    rec.patch_function(parallel_plan, "plancache")
    rec.patch_function(cached_placement, "placement")
    rec.patch_function(halo_batch, "halo", halo_after)
    rec.patch_function(as_placement, "netsim.placement_vector")
    rec.patch_function(simulate_iteration, "perfsim.simulate")
    rec.patch_function(parse_payload, "service.schema")
    rec.patch_function(dump_bytes, "service.schema")
    rec.patch_method(VectorBackend, "route_exchange", "netsim.route", route_after)
    rec.patch_method(VectorBackend, "round_estimate", "netsim.price")
    rec.patch_method(HaloBatch, "digest", "netsim.route.key")
    rec.patch_method(IoModel, "event_cost", "iosim")
    for endpoint in ("recommend", "simulate", "plan"):
        rec.patch_method(ServiceState, endpoint, "service.state")
    rec.patch_method(EnsembleMember, "tick", "ensemble.member")
    rec.patch_method(CrossMemberMemo, "lookup", "ensemble.memo")
    rec.patch_method(CrossMemberMemo, "store", "ensemble.memo")
    rec.patch_method(NestedModel, "advance", "wrf.advance", advance_after)
    rec.patch_method(SteeredRun, "steer", "steering.steer")
    rec.patch_method(AffinityWorkQueue, "submit", "workqueue.submit")
    rec.patch_method(AffinityWorkQueue, "gather", "workqueue.gather")


def streamed_chunks() -> float:
    """Route expansions streamed in chunks so far (observability registry)."""
    from repro.obs.metrics import registry

    return float(registry().snapshot().get("netsim.route_expand.chunks", {}).get("value", 0))


def span_metrics(summary: Summary, spans: Iterable[tuple], counts: Counts) -> Dict[str, float]:
    """Per-layer values that come straight from the spans.

    Raises ``RuntimeError`` when the layers do not reconcile to the
    lanes' wall within ``RECONCILE_LIMIT``: spans claim time twice (a
    span recorded twice, overlapping operations on one lane) or outside
    their parent (a server handler span that outlasts its client span)
    or outside every lane operation (see :func:`spans.summarize`).
    """
    if abs(summary.residual_frac) > RECONCILE_LIMIT:
        raise RuntimeError(
            f"layers + untraced miss the traced wall by {summary.residual_frac:.1%}"
        )
    out: Dict[str, float] = {}
    for layer in _SPAN_LAYERS:
        calls, self_s = summary.layer(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    out["netsim.route.key_s"] = summary.layer("netsim.route.key")[1]
    out["service.schema.self_s"] = summary.layer("service.schema")[1]
    out["service.state.self_s"] = summary.layer("service.state")[1]
    out["ensemble.member.self_s"] = summary.layer("ensemble.member")[1]
    out["ensemble.memo.self_s"] = summary.layer("ensemble.memo")[1]
    out["steering.steer_self_s"] = summary.layer("steering.steer")[1]
    out["halo.messages"] = counts.values.get("halo.messages", 0.0)
    out["wrf.points_stepped"] = counts.values.get("wrf.points_stepped", 0.0)
    # Time the route cache saved: each hit skipped one miss's worth of
    # routing (a miss's self time: expansion, without key or placement).
    from spans import self_times

    spans = list(spans)
    own = self_times(spans)
    miss_self = [own[s[0]] for s in spans if s[0] in counts.route_miss_ids]
    route_calls = out["netsim.route.calls"]
    hits = route_calls - len(miss_self)
    mean_miss = sum(miss_self) / len(miss_self) if miss_self else 0.0
    out["netsim.route.saved_s"] = hits * mean_miss
    out["trace.wall_s"] = summary.wall_s
    out["trace.untraced_s"] = summary.untraced_s
    out["trace.residual_frac"] = summary.residual_frac
    out["trace.spans"] = summary.spans
    return out


def cache_metrics(plan: Any, placement: Any, route: Any) -> Dict[str, float]:
    """Counts from the three caches' public stats (dataclass or dict form)."""

    def get(obj: Any, key: str) -> float:
        return float(obj[key] if isinstance(obj, dict) else getattr(obj, key))

    return {
        "plancache.hits": get(plan, "hits"),
        "plancache.misses": get(plan, "misses"),
        "placement.hits": get(placement, "hits"),
        "placement.misses": get(placement, "misses"),
        "placement.evictions": get(placement, "evictions"),
        "placement.resident_mb": get(placement, "resident_bytes") / 2**20,
        "netsim.route.hits": get(route, "hits"),
        "netsim.route.misses": get(route, "misses"),
        "netsim.route.evictions": get(route, "evictions"),
        "netsim.route.resident_mb": get(route, "resident_bytes") / 2**20,
    }


def complete(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, in catalogue order; 0 where the layer
    does not run on this workload."""
    known = {name for name, _, _ in PER_LAYER}
    extra = set(values) - known
    if extra:
        raise KeyError(f"per-layer values outside the catalogue: {sorted(extra)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
