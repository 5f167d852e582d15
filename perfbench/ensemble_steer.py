"""ensemble-steer: a steered 300-member ensemble on two workers.

``EnsembleDriver(..., jobs=2)`` runs 300 ``default_member_spec`` members
in 12 seed families, each priced at 131072 BG/P ranks with pnetcdf
history I/O, through the storyline of the fabric's own benchmark:
branch member 0 at tick 1, kill member 1 and spawn a new member at
tick 2. One operation is one ensemble tick (all live members advance,
steer and, on a state change, re-price); throughput counts
member-ticks. The tick count is fixed by ``--seconds`` (about
``TICKS_PER_SECOND`` per second on a 2-core box), so a seed always
yields the same trajectory.

Correct means the run's ``snapshot_json()`` digest equals the digest of
the same ensemble run inline (``jobs=1``, the fabric's determinism
oracle). The oracle is computed once per (program source, this file,
seed, tick count) after timing and cached under ``.perfbench_out/``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from common import (
    OUT_DIR,
    ROOT,
    SRC,
    SetupProbes,
    cpu_ticks,
    end_to_end,
    steal_note,
    tree_peak_rss_mb,
)

MEMBERS = 300
FAMILIES = 12
RANKS = 131072
JOBS = 2
#: Ticks per second of ``--seconds`` (jobs=2 on a 2-core box runs ~2.5).
TICKS_PER_SECOND = 2.5
MIN_TICKS = 12
#: Extra fresh-process set-ups per run (plus the run's own), spread over
#: the ticks.
SETUP_PROBES = 4
TAIL_PERCENTILE = 70.0


def make_inputs(seed: int):
    """The members' specs and the kill/spawn/branch storyline for *seed*."""
    import numpy as np

    from repro.ensemble import EnsembleEvent, default_member_spec

    rng = np.random.default_rng([seed, 0xE45E])
    families = [int(s) + 1 for s in rng.choice(10**6, size=FAMILIES, replace=False)]
    specs = [
        default_member_spec(
            families[i % FAMILIES], parent_nx=20, parent_ny=16, nests=1,
            nest_px=6, refinement=3, amplitude=2.0,
        )
        for i in range(MEMBERS)
    ]
    events = [
        EnsembleEvent(tick=1, action="branch", member=0),
        EnsembleEvent(tick=2, action="kill", member=1),
        EnsembleEvent(tick=2, action="spawn", seed=int(rng.integers(1, 10**6))),
    ]
    return specs, events


def policy():
    from repro.ensemble import EnsemblePolicy

    return EnsemblePolicy(machine="bgp", ranks=RANKS, io="pnetcdf")


def tick_count(seconds: int) -> int:
    return max(MIN_TICKS, round(seconds * TICKS_PER_SECOND))


def expected_member_ticks(ticks: int) -> int:
    """300 at tick 0, then 301 (one branch; one kill, one spawn)."""
    return MEMBERS + (MEMBERS + 1) * (ticks - 1)


class TickClock:
    """Tick boundaries and wave membership, read off the public driver API.

    ``created`` is stamped when the first work-queue wave (member
    creation) returns, each progress frame stamps the end of a tick,
    and every ``advance_wave`` submission records which members a
    worker ran at which tick. With *probes*, set-up probes run between
    ticks at their marks and every stamp leaves their time out.
    """

    def __init__(self, probes: Optional[SetupProbes] = None) -> None:
        self.probes = probes
        self.now = probes.now if probes is not None else time.perf_counter
        #: Called once, right after member creation (traced passes
        #: snapshot cache counters there).
        self.on_created: Any = None
        self.created = 0.0
        self.stamps: List[float] = []
        self.waves: List[Tuple[int, int, Tuple[int, ...]]] = []  # (tick, worker, members)
        self.peak_rss_mb = 0.0

    def progress(self, frame: Any) -> None:
        self.stamps.append(self.now())
        if frame.tick == frame.ticks - 1:
            self.peak_rss_mb = tree_peak_rss_mb()  # workers are still alive
        elif self.probes is not None:
            self.probes.at(frame.tick + 1)

    @property
    def latencies(self) -> List[float]:
        edges = [self.created, *self.stamps]
        return [b - a for a, b in zip(edges, edges[1:])]

    @property
    def wall(self) -> float:
        return self.stamps[-1] - self.created


@contextmanager
def tick_clock(probes: Optional[SetupProbes] = None) -> Iterator[TickClock]:
    from repro.ensemble import runtime
    from repro.exec.workqueue import AffinityWorkQueue

    clock = TickClock(probes)
    gather, submit = AffinityWorkQueue.gather, AffinityWorkQueue.submit

    def stamping_gather(self):
        out = gather(self)
        if not clock.created:
            clock.created = clock.now()
            if clock.on_created is not None:
                clock.on_created()
        return out

    def recording_submit(self, affinity, fn, payload):
        if fn is runtime.advance_wave:
            clock.waves.append((payload[0], self.worker_for(affinity), payload[1]))
        return submit(self, affinity, fn, payload)

    AffinityWorkQueue.gather = stamping_gather
    AffinityWorkQueue.submit = recording_submit
    try:
        yield clock
    finally:
        AffinityWorkQueue.gather = gather
        AffinityWorkQueue.submit = submit


def tick_completions(result: Any, clock: TickClock) -> List[Tuple[float, float]]:
    """``(end of tick, member-ticks in it)`` for every tick."""
    per_tick: Dict[int, int] = {}
    for record in result.records:
        per_tick[record.tick] = per_tick.get(record.tick, 0) + 1
    return [(t, float(per_tick[k])) for k, t in enumerate(clock.stamps)]


def run_ensemble(specs, events, ticks: int, jobs: int, probes: Optional[SetupProbes] = None):
    from repro.ensemble import EnsembleDriver

    with tick_clock(probes) as clock:
        driver = EnsembleDriver(specs, policy=policy(), jobs=jobs, events=events,
                                progress=clock.progress)
        result = driver.run(ticks)
    return result, clock


def snapshot_digest(result: Any) -> str:
    return hashlib.sha256(result.snapshot_json().encode("utf-8")).hexdigest()


def failed_ticks(result: Any, ticks: int, oracle: str) -> int:
    """Every tick counts as failed unless the snapshot is the oracle's,
    byte for byte, and the member-tick count is the storyline's."""
    if result.member_ticks != expected_member_ticks(ticks):
        return ticks
    return 0 if snapshot_digest(result) == oracle else ticks


def source_digest() -> str:
    """Digest of the program's sources, so a cached oracle never outlives them."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def oracle_path(seed: int, ticks: int):
    # This file defines the inputs (member specs, storyline, policy), so
    # a change to it must not reuse an oracle computed for the old ones.
    inputs = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
    key = f"{source_digest()}-{inputs}-{seed}-{ticks}"
    name = hashlib.sha256(key.encode()).hexdigest()[:24]
    return OUT_DIR / f"oracle-ensemble-steer-{name}.txt"


def oracle_digest(specs, events, seed: int, ticks: int) -> Tuple[str, bool]:
    """``(digest, from cache)`` of the inline jobs=1 run of this ensemble."""
    path = oracle_path(seed, ticks)
    if path.exists():
        return path.read_text().strip(), True
    result, _ = run_ensemble(specs, events, ticks, jobs=1)
    digest = snapshot_digest(result)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return digest, False


def setup_probe(seed: int, seconds: int, t_entry: float) -> float:
    """One set-up as a fresh process pays it: imports, inputs, workers and
    members (the probe then runs one tick so the driver shuts down cleanly)."""
    import repro.ensemble  # noqa: F401

    specs, events = make_inputs(seed)
    _, clock = run_ensemble(specs, events, 1, jobs=JOBS)
    return clock.created - t_entry


def run(seed: int, seconds: int, trace: bool, t_entry: float):
    import repro.ensemble  # noqa: F401  (counted in set-up, as a user pays it)

    specs, events = make_inputs(seed)
    ticks = tick_count(seconds)
    # Traced runs report no set-up time, so they skip the extra set-ups.
    probes = SetupProbes("ensemble-steer", seed, seconds, 0 if trace else SETUP_PROBES, ticks)
    cpu0 = cpu_ticks()
    result, clock = run_ensemble(specs, events, ticks, jobs=JOBS, probes=probes)
    cpu1 = cpu_ticks()
    setup_s = clock.created - t_entry
    setups = [setup_s, *probes.finish()]
    notes = [
        f"ensemble-steer: {ticks} ticks, {result.member_ticks} member-ticks in "
        f"{clock.wall:.2f} s at jobs={JOBS}; memo hit rate {result.memo.hit_rate:.3f}; "
        f"{steal_note(cpu0, cpu1)}",
    ]
    if trace:
        metrics, trace_notes, oracle = traced(specs, events, seed, ticks, clock, result)
        notes.extend(trace_notes)
        cached = False
    else:
        oracle, cached = oracle_digest(specs, events, seed, ticks)
        metrics, note = end_to_end(
            setup_samples=setups,
            t_start=clock.created,
            completions=tick_completions(result, clock),
            rate_group=1,
            latencies_s=clock.latencies,
            tail_pref=TAIL_PERCENTILE,
            peak_rss_mb=clock.peak_rss_mb,
        )
        notes.append("ensemble-steer: " + note)
    failed = failed_ticks(result, ticks, oracle)
    notes.append(
        f"ensemble-steer: {'all' if failed else 'no'} ticks failed against the jobs=1 "
        f"oracle ({'cached' if cached else 'computed this run'})"
    )
    result_doc = {"correct": failed == 0, "attempted": ticks, "failed": failed, "metrics": metrics}
    return result_doc, notes


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def adopt_ticks(spans: List[tuple], clock: TickClock, lane: int) -> List[tuple]:
    """Add one ``ensemble.tick`` root span per tick and nest the driver's
    root spans that start inside it; spans outside every tick (member
    creation, final summaries) are dropped.
    """
    edges = [clock.created, *clock.stamps]
    next_id = max((s[0] for s in spans), default=0) + 1
    ticks = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        ticks.append((next_id + k, "ensemble.tick", a, b, 0, next_id + k, lane))
    out = list(ticks)
    tick_of: Dict[int, int] = {}
    roots = sorted((s for s in spans if s[4] == 0), key=lambda s: s[2])
    for s in roots:
        for t in ticks:
            if t[2] <= s[2] < t[3]:
                tick_of[s[0]] = t[0]
                out.append((s[0], s[1], s[2], s[3], t[0], t[0], s[6]))
                break
    # Children follow their root into the tick (op id = the tick's id).
    op_of = dict(tick_of)
    for s in sorted((s for s in spans if s[4] != 0), key=lambda s: s[0]):
        if s[4] in op_of:
            op_of[s[0]] = op_of[s[4]]
            out.append((s[0], s[1], s[2], s[3], s[4], op_of[s[0]], s[6]))
    return out


def _traced_pass(specs, events, ticks: int, jobs: int):
    import layers
    from spans import Lane, Recorder, summarize

    from repro.exec.placementcache import placement_cache_stats
    from repro.exec.plancache import plan_cache_stats
    from repro.netsim.engine import route_cache_stats
    from plan_cold import reset_caches

    reset_caches()
    chunks0 = layers.streamed_chunks()
    rec = Recorder()
    counts = layers.Counts()
    from repro.ensemble import EnsembleDriver

    at_created: Dict[str, Any] = {}

    def snapshot_caches() -> None:
        at_created.update(plan=plan_cache_stats(), placement=placement_cache_stats(),
                          route=route_cache_stats())

    with tick_clock() as clock:
        clock.on_created = snapshot_caches
        layers.install(rec, counts)
        try:
            driver = EnsembleDriver(specs, policy=policy(), jobs=jobs, events=events,
                                    progress=clock.progress)
            result = driver.run(ticks)
        finally:
            rec.restore()
    lane = threading.get_ident()
    spans = adopt_ticks(rec.spans, clock, lane)
    summary = summarize(spans, [Lane(lane, clock.created, clock.stamps[-1])])
    # A tick's own time is the driver's time outside every layer span.
    summary.untraced_s += summary.self_s.pop("ensemble.tick", 0.0)
    summary.calls.pop("ensemble.tick", None)
    values = layers.span_metrics(summary, spans, counts)
    # Cache traffic of the ticks only (member creation also plans and places).
    end = layers.cache_metrics(plan_cache_stats(), placement_cache_stats(), route_cache_stats())
    start = layers.cache_metrics(at_created["plan"], at_created["placement"], at_created["route"])
    for key, value in end.items():
        values[key] = value if key.endswith("resident_mb") else value - start[key]
    values["netsim.streamed_chunks"] = layers.streamed_chunks() - chunks0
    return result, clock, spans, summary, values


def traced(specs, events, seed: int, ticks: int, untraced_clock: TickClock, untraced_result):
    """A traced jobs=2 run (driver side) plus a traced jobs=1 pass (worker side).

    Work inside forked workers (wrf, steering, member pricing) cannot be
    seen from the driver, so those layers' self times and the cache
    counts come from the inline jobs=1 pass of the same ensemble, whose
    snapshot is also the correctness oracle.
    """
    import layers
    from spans import write_spans

    r2, c2, spans2, s2, _ = _traced_pass(specs, events, ticks, JOBS)
    r1, c1, spans1, s1, v1 = _traced_pass(specs, events, ticks, 1)
    oracle = snapshot_digest(r1)

    values = dict(v1)
    values["workqueue.submit_s"] = s2.layer("workqueue.submit")[1]
    values["workqueue.waves"] = s2.layer("workqueue.gather")[0]
    memo = r2.memo
    values.update({
        "ensemble.member_ticks": r2.member_ticks,
        "ensemble.memo.local_hits": memo.local_hits,
        "ensemble.memo.shared_hits": memo.shared_hits,
        "ensemble.memo.misses": memo.misses,
        "ensemble.memo.shared_drops": memo.shared_drops,
        "ensemble.memo.hit_rate": memo.hit_rate,
        "steering.replans": r2.metrics["ensemble.steer.replans"]["value"],
        "steering.moves": r2.metrics["ensemble.steer.moves"]["value"],
    })
    # Busy time per worker per tick from the members' own wall clocks.
    wall_ns = {(t.tick, t.member_id): t.wall_ns for t in r2.records}
    busy: Dict[Tuple[int, int], float] = {}
    for tick, worker, members in c2.waves:
        busy[(tick, worker)] = sum(wall_ns[(tick, m)] for m in members) / 1e9
    values["ensemble.member.busy_s"] = sum(busy.values())
    wait = 0.0
    for k, lat in enumerate(c2.latencies):
        wait += lat - max((b for (t, _), b in busy.items() if t == k), default=0.0)
    values["ensemble.tick.wait_s"] = wait
    values["trace.wall_s"] = s2.wall_s + s1.wall_s
    values["trace.untraced_s"] = s2.untraced_s + s1.untraced_s
    values["trace.residual_frac"] = max(s2.residual_frac, s1.residual_frac)
    values["trace.spans"] = s2.spans + s1.spans
    values["trace.overhead_frac"] = c2.wall / untraced_clock.wall - 1.0

    out = OUT_DIR / f"trace-ensemble-steer-{seed}.json"
    write_spans(out, spans2 + spans1, {"workload": "ensemble-steer", "seed": seed,
                                      "passes": {"jobs2_spans": len(spans2),
                                                 "jobs1_spans": len(spans1)}})
    notes = [
        f"ensemble-steer traced: jobs={JOBS} pass {c2.wall:.2f} s ({s2.spans} driver spans), "
        f"jobs=1 pass {c1.wall:.2f} s ({s1.spans} spans) -> {out.relative_to(ROOT)}; "
        f"wrf/steering/pricing/cache layers are from the jobs=1 pass; each pass "
        f"reconciles to wall within {values['trace.residual_frac']:.2%}",
    ]
    if snapshot_digest(r2) != snapshot_digest(untraced_result):
        notes.append("ensemble-steer traced: traced jobs=2 snapshot differs from untraced")
        oracle = "traced-run-differs"
    return layers.complete(values), notes, oracle
