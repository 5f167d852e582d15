"""service-mix: two closed-loop keep-alive clients against one warm server.

The server is ``python -m repro serve --port 0`` with its default warm
start, one subprocess. Two client threads, each with its own
``ServiceClient``, send a seeded 2:1:1 mix of ``/simulate``, ``/plan``
and ``/recommend`` over a fixed pool of 32 distinct payloads. Every
payload is sent once before timing (the warm pass), so the pool sits in
the server's caches. One operation is one HTTP request.

A reply is correct when its status is 200 and its body equals the
warm-pass body for that payload byte for byte; after timing, a seeded
sample of payloads is also recomputed in-process on a fresh
``ServiceState`` and must give the same bytes.
"""

from __future__ import annotations

import json
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    OUT_DIR,
    ROOT,
    BenchError,
    child_env,
    cpu_ticks,
    end_to_end,
    steal_note,
    tree_peak_rss_mb,
)

CLIENTS = 2
#: (endpoint, payload count) — 2:1:1 simulate:plan:recommend.
POOL_SHAPE = (("/simulate", 16), ("/plan", 8), ("/recommend", 8))
#: The fixed draw that pairs field values in the payload pool.
POOL_SEED = 0x5E41
#: Payloads recomputed in-process on a fresh ServiceState after timing.
CHECK_SAMPLE = 6
#: Set-ups per run: the run's own plus extra spawn + warm cycles.
SETUPS = 5
#: p90, not p99: across ten-run sets on a shared 2-vCPU host the p99
#: spread 9-26% (it tracks host steal), the p90 7-17%.
TAIL_PERCENTILE = 90.0
#: Requests per throughput window (~1 s each).
RATE_GROUP = 200
#: Header that carries a traced operation's id to the traced server.
OP_HEADER = "X-Perfbench-Op"
#: Scrapes sent with this header stay out of the service's own counters.
SCRAPE_HEADERS = {"X-Repro-Scrape": "internal"}

Payload = Tuple[str, Dict[str, Any]]


def make_pool() -> List[Payload]:
    """The fixed pool: 32 distinct payloads, the same on every run.

    Within each endpoint every config x machine pair appears equally
    often, and so does every value of each other field (ranks, mapping,
    I/O, ...); one fixed draw decides how the values pair up. Only the
    order in which the clients send them depends on the run's seed, so
    runs with different seeds ask the server for the same work.
    """
    import numpy as np

    from repro.service.schemas import (
        CONFIG_NAMES,
        IO_NAMES,
        MACHINE_NAMES,
        MAPPING_NAMES,
        STRATEGY_NAMES,
    )

    rng = np.random.default_rng(POOL_SEED)
    pairs = [(c, m) for c in CONFIG_NAMES for m in MACHINE_NAMES]
    fields = {
        "/simulate": {"ranks": (512, 1024, 2048), "mapping": MAPPING_NAMES, "io": IO_NAMES},
        "/plan": {"ranks": (256, 512, 1024, 2048), "strategy": STRATEGY_NAMES},
        "/recommend": {"min_ranks": (128, 256, 512), "efficiency_floor": (0.5, 0.6, 0.7),
                       "mapping": MAPPING_NAMES, "io": IO_NAMES},
    }
    pool: List[Payload] = []
    for endpoint, count in POOL_SHAPE:
        while True:
            columns = {}
            for name, values in fields[endpoint].items():
                column = (list(values) * count)[:count]
                columns[name] = [column[int(k)] for k in rng.permutation(count)]
            bodies = []
            for i in range(count):
                config, machine = pairs[i % len(pairs)]
                body = {"config": config, "machine": machine}
                body.update({name: col[i] for name, col in columns.items()})
                if endpoint == "/recommend":
                    body["max_ranks"] = 2 * body["min_ranks"]
                bodies.append(body)
            if len({json.dumps(b, sort_keys=True) for b in bodies}) == count:
                break  # all distinct; otherwise draw another pairing
        pool.extend((endpoint, b) for b in bodies)
    return pool


def schedule(seed: int, lane: int, size: int):
    """Endless payload indices for one client: a fresh shuffle per cycle."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x7A5, lane])
    while True:
        yield from (int(i) for i in rng.permutation(size))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """A planning-service subprocess; ``stop()`` ends it and waits."""

    def __init__(self, cmd: Sequence[str]):
        self.proc = subprocess.Popen(
            list(cmd), cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._wait_ready(timeout_s=120.0)

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _wait_ready(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise BenchError("server did not report its address in time")
            if line is None:
                self.stop()
                raise BenchError("server exited before listening: " + " | ".join(self.log))
            self.log.append(line.rstrip())
            if line.startswith("listening on "):
                return line.split("listening on ", 1)[1].strip()

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a benchmark started as a background job
        # hands its children an ignored SIGINT.
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._reader.join(timeout=30)


def serve_cmd() -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def warm_pass(client: Any, pool: Sequence[Payload]) -> List[bytes]:
    bodies = []
    for endpoint, payload in pool:
        reply = client.post(endpoint, payload)
        if reply.status != 200:
            raise BenchError(f"warm pass: {endpoint} {payload} -> {reply.status}")
        bodies.append(reply.body)
    return bodies


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def reply_ok(status: int, body: bytes, expected: bytes) -> bool:
    """A timed reply is correct only if it is the warm-pass body, exactly."""
    return status == 200 and body == expected


def fresh_bodies(pool: Sequence[Payload], indices: Sequence[int]) -> Dict[int, bytes]:
    """Bodies for *indices* computed in-process on a new ``ServiceState``."""
    from repro.service.schemas import (
        PlanRequest,
        RecommendRequest,
        SimulateRequest,
        dump_bytes,
        parse_payload,
    )
    from repro.service.state import ServiceState

    state = ServiceState()
    out = {}
    try:
        for i in indices:
            endpoint, payload = pool[i]
            if endpoint == "/simulate":
                resp = state.simulate(parse_payload(SimulateRequest, payload))
            elif endpoint == "/plan":
                resp = state.plan(parse_payload(PlanRequest, payload))
            else:
                resp = state.recommend(parse_payload(RecommendRequest, payload))[0]
            out[i] = dump_bytes(resp)
    finally:
        state.close()
    return out


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------
class LaneResult:
    def __init__(self) -> None:
        self.lat: List[float] = []
        self.ends: List[float] = []
        self.idx: List[int] = []
        self.failed = 0
        self.start = 0.0
        self.end = 0.0
        self.thread = 0


def drive(
    clients: Sequence[Any],
    pool: Sequence[Payload],
    warm: Sequence[bytes],
    seed: int,
    *,
    deadline_s: Optional[float] = None,
    op_counts: Optional[Sequence[int]] = None,
    recorder: Any = None,
) -> List[LaneResult]:
    """Closed loop on every client at once.

    Each lane stops after *deadline_s* seconds, or after its entry of
    *op_counts* operations (the traced replay of an untraced run).
    With a *recorder*, each request is a ``service.client`` root span
    whose id travels to the server in ``OP_HEADER``.
    """
    from repro.service.client import ServiceConnectionError

    results = [LaneResult() for _ in clients]
    barrier = threading.Barrier(len(clients))
    errors: List[BaseException] = []

    def lane(k: int) -> None:
        try:
            run_lane(k)
        except BaseException as exc:  # re-raised by the caller after join
            errors.append(exc)
            barrier.abort()  # release a lane still waiting to start

    def run_lane(k: int) -> None:
        res = results[k]
        client = clients[k]
        order = schedule(seed, k, len(pool))
        limit = op_counts[k] if op_counts is not None else None
        res.thread = threading.get_ident()
        barrier.wait()
        res.start = time.perf_counter()
        deadline = res.start + deadline_s if deadline_s is not None else None
        while limit is None or len(res.lat) < limit:
            i = next(order)
            endpoint, payload = pool[i]
            token = headers = None
            if recorder is not None:
                token = recorder.begin("service.client")
                headers = {OP_HEADER: str(token[0])}
            a = time.perf_counter()
            try:
                reply = client.post(endpoint, payload, headers=headers)
            except ServiceConnectionError:
                reply = None  # counted as failed below
            b = time.perf_counter()
            if token is not None:
                recorder.end(token)
            res.lat.append(b - a)
            res.ends.append(b)
            res.idx.append(i)
            if reply is None:
                res.failed += 1
                break  # the server is gone; stop this lane
            res.failed += not reply_ok(reply.status, reply.body, warm[i])
            if deadline is not None and b >= deadline:
                break
        res.end = time.perf_counter()

    threads = [threading.Thread(target=lane, args=(k,)) for k in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _series(snapshot: Dict[str, Any], name: str, field: str = "value") -> float:
    return float(snapshot.get(name, {}).get(field, 0.0))


def service_layer_values(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Server-side counts over the timed window, from two /metrics scrapes."""
    import layers

    m0, m1 = before["metrics"], after["metrics"]
    delta = lambda name, field="value": _series(m1, name, field) - _series(m0, name, field)  # noqa: E731
    out: Dict[str, float] = {
        "service.requests": delta("service.requests"),
        "service.errors": delta("service.errors"),
        "service.coalesce.hits": delta("service.coalesce.hits"),
        "service.coalesce.misses": delta("service.coalesce.misses"),
        "netsim.streamed_chunks": delta("netsim.route_expand.chunks"),
    }
    handler_s = 0.0
    response_bytes = 0.0
    for ep in ("recommend", "simulate", "plan"):
        s = delta(f"service.{ep}.latency_s", "sum")
        n = delta(f"service.{ep}.latency_s", "count")
        handler_s += s
        response_bytes += delta(f"service.{ep}.response_bytes")
        out[f"service.{ep}.handler_ms"] = 1000.0 * s / n if n else 0.0
    out["service.handler_s"] = handler_s
    out["service.response_bytes"] = response_bytes
    c0, c1 = before["caches"], after["caches"]
    caches = layers.cache_metrics(c1["plan"], c1["placement"], c1["route"])
    for key, (level, field) in {
        "plancache.hits": ("plan", "hits"),
        "plancache.misses": ("plan", "misses"),
        "placement.hits": ("placement", "hits"),
        "placement.misses": ("placement", "misses"),
        "placement.evictions": ("placement", "evictions"),
        "netsim.route.hits": ("route", "hits"),
        "netsim.route.misses": ("route", "misses"),
        "netsim.route.evictions": ("route", "evictions"),
    }.items():
        caches[key] -= c0[level][field]
    out.update(caches)
    return out


def _setup_cycle(pool: Sequence[Payload], warm: Sequence[bytes]) -> Tuple[float, int]:
    """Spawn, warm and stop one more server: ``(seconds, bodies that differ)``."""
    from repro.service.client import ServiceClient

    t0 = time.perf_counter()
    server = Server(serve_cmd())
    try:
        with ServiceClient(server.url) as client:
            bodies = warm_pass(client, pool)
        elapsed = time.perf_counter() - t0
    finally:
        server.stop()
    return elapsed, sum(a != b for a, b in zip(bodies, warm))


def run(seed: int, seconds: int, trace: bool, t_entry: float):
    import numpy as np

    from repro.service.client import ServiceClient

    pool = make_pool()
    import_s = time.perf_counter() - t_entry
    server = Server(serve_cmd())
    clients = [ServiceClient(server.url) for _ in range(CLIENTS)]
    try:
        warm = warm_pass(clients[0], pool)
        before = clients[0].get("/metrics", headers=SCRAPE_HEADERS).json
        setup_s = time.perf_counter() - t_entry
        ticks0 = cpu_ticks()
        lanes = drive(clients, pool, warm, seed, deadline_s=seconds)
        ticks1 = cpu_ticks()
        after = clients[0].get("/metrics", headers=SCRAPE_HEADERS).json
        peak_rss = tree_peak_rss_mb()
    finally:
        for c in clients:
            c.close()
        server.stop()

    attempted = sum(len(ln.lat) for ln in lanes)
    failed = sum(ln.failed for ln in lanes)
    lat = [x for ln in lanes for x in ln.lat]
    wall = max(ln.end for ln in lanes) - min(ln.start for ln in lanes)
    route_misses = after["caches"]["route"]["misses"] - before["caches"]["route"]["misses"]
    notes = [
        f"service-mix: {len(lat)} requests from {CLIENTS} clients in {wall:.2f} s; "
        f"{route_misses} route-cache misses while timed; {steal_note(ticks0, ticks1)}; "
        f"{failed} of {attempted} requests wrong",
    ]

    # Correctness: a seeded sample recomputed on a fresh in-process state.
    rng = np.random.default_rng([seed, 0xC4EC])
    sample = sorted(int(i) for i in rng.choice(len(pool), size=CHECK_SAMPLE, replace=False))
    fresh = fresh_bodies(pool, sample)
    stale = [i for i in sample if fresh[i] != warm[i]]
    sent = [i for ln in lanes for i in ln.idx]
    failed += sum(sent.count(i) for i in stale)
    notes.append(f"service-mix: fresh in-process recompute differs for payloads {stale or 'none'}")

    setups = [setup_s]
    # Traced runs report no set-up time, so they skip the extra set-ups.
    for _ in range(0 if trace else SETUPS - 1):
        elapsed, differ = _setup_cycle(pool, warm)
        setups.append(import_s + elapsed)
        failed += differ
    failed = min(failed, attempted)

    metrics, note = end_to_end(
        setup_samples=setups,
        t_start=min(ln.start for ln in lanes),
        completions=[(t, 1.0) for ln in lanes for t in ln.ends],
        rate_group=RATE_GROUP,
        latencies_s=lat,
        tail_pref=TAIL_PERCENTILE,
        peak_rss_mb=peak_rss,
    )
    notes.append("service-mix: " + note)
    if trace:
        metrics, trace_notes, traced_failed = traced(pool, warm, seed, lanes, wall)
        notes.extend(trace_notes)
        failed = min(attempted, failed + traced_failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, notes


def traced(pool, warm, seed: int, untraced: Sequence[LaneResult], untraced_wall: float):
    """Replay the same per-lane operations against a traced server."""
    import layers
    from spans import Lane, Recorder, read_spans, summarize, write_spans

    from repro.service.client import ServiceClient

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    server_path = OUT_DIR / f"trace-service-mix-server-{seed}.json"
    server_path.unlink(missing_ok=True)
    server = Server([sys.executable, str(ROOT / "perfbench" / "serve_traced.py"), str(server_path)])
    rec = Recorder()
    clients = [ServiceClient(server.url) for _ in range(CLIENTS)]
    try:
        warm_pass(clients[0], pool)
        before = clients[0].get("/metrics", headers=SCRAPE_HEADERS).json
        lanes = drive(clients, pool, warm, seed, op_counts=[len(ln.lat) for ln in untraced],
                      recorder=rec)
        after = clients[0].get("/metrics", headers=SCRAPE_HEADERS).json
        pools = [c.pool_stats() for c in clients]
    finally:
        for c in clients:
            c.close()
        server.stop()
    rec.restore()
    if not server_path.exists():
        raise BenchError("traced server wrote no spans: " + " | ".join(server.log[-5:]))
    server_spans, meta = read_spans(server_path)
    merged, counts = merge_server_spans(rec.spans, server_spans, meta)
    summary = summarize(merged, [Lane(ln.thread, ln.start, ln.end) for ln in lanes])
    values = layers.span_metrics(summary, merged, counts)
    values.update(service_layer_values(before, after))
    client_s = sum(x for ln in lanes for x in ln.lat)
    values["service.client_s"] = client_s
    values["service.transport_queue_s"] = client_s - values["service.handler_s"]
    values["service.pool.created"] = sum(p.created for p in pools)
    values["service.pool.reused"] = sum(p.reused for p in pools)
    wall = max(ln.end for ln in lanes) - min(ln.start for ln in lanes)
    values["trace.overhead_frac"] = wall / untraced_wall - 1.0
    out_path = OUT_DIR / f"trace-service-mix-{seed}.json"
    write_spans(out_path, merged, {"workload": "service-mix", "seed": seed})
    failed = sum(ln.failed for ln in lanes)
    notes = [
        f"service-mix traced: {sum(len(ln.lat) for ln in lanes)} ops, {summary.spans} spans "
        f"(client + server) -> {out_path.relative_to(ROOT)}; layers + untraced reconcile "
        f"to lane wall within {summary.residual_frac:.2%}; {failed} wrong",
    ]
    return layers.complete(values), notes, failed


def merge_server_spans(client_spans, server_spans, meta):
    """Nest the server's handler spans under the client spans that sent them.

    Server span ids are shifted past the client's; a server root span
    (``service.handler``) becomes the child of the client span whose id
    it carried in ``OP_HEADER``. Server work outside any client
    operation (warm start, warm pass, scrapes) is dropped.
    """
    import layers

    ops = {s[0] for s in client_spans if s[4] == 0}
    offset = max((s[0] for s in client_spans), default=0)
    merged = list(client_spans)
    for sid, name, t0, t1, parent, op, lane in server_spans:
        if op not in ops:
            continue
        merged.append((sid + offset, name, t0, t1, parent + offset if parent else op, op, lane))
    counts = layers.Counts()
    counts.values.update(meta.get("counts", {}))
    counts.route_miss_ids = {sid + offset for sid in meta.get("route_miss_ids", [])}
    return merged, counts
