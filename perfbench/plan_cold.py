"""plan-cold: a closed loop of ``recommend()`` over never-repeating storms.

One operation is one ``recommend(cfg, machine, min_ranks=64,
max_ranks=8192, jobs=1)`` call, single-threaded and in-process. The
configurations come from the paper's Sec 4.1.2 generator
(``random_parent`` + ``random_siblings``: 2-4 siblings, 94x124 to
415x445 points, aspect 0.5-1.5). The sibling count cycles 2, 3, 4 and
the machine alternates BG/L, BG/P, so every run sees the same mix of
shapes; only the draws inside each shape depend on the seed.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import SetupProbes, cpu_ticks, end_to_end, steal_note, tree_peak_rss_mb

MIN_RANKS = 64
MAX_RANKS = 8192
#: Rank counts each recommend sweeps (64..8192, powers of two) x 3 options.
OPTIONS_PER_RECOMMEND = 3 * (int(math.log2(MAX_RANKS // MIN_RANKS)) + 1)
#: Inputs generated per second of run; a 2-core box does ~4 recommends/s.
CONFIGS_PER_SECOND = 8
#: Placement attempts per draw before it is redrawn; the generator's own
#: 2000 makes input generation (part of set-up) slow and seed-dependent.
PLACEMENT_ATTEMPTS = 200
#: Operations recomputed from empty caches by the correctness check.
CHECK_SAMPLE = 6
#: Extra fresh-interpreter set-ups per run (plus the run's own), spread
#: over the timed phase.
SETUP_PROBES = 8
TAIL_PERCENTILE = 80.0
#: Recommends per throughput window (~3 s each; smaller windows mostly
#: measure which storms landed in them).
RATE_GROUP = 12


def make_inputs(seed: int, count: int) -> List[Tuple[Any, Any]]:
    """*count* seeded ``(Configuration, Machine)`` pairs; never repeating."""
    import numpy as np

    from repro.errors import ConfigurationError
    from repro.topology.machines import BLUE_GENE_L, BLUE_GENE_P
    from repro.workloads.generator import random_parent, random_siblings
    from repro.workloads.regions import Configuration

    rng = np.random.default_rng([seed, 0x9C01D])
    out: List[Tuple[Any, Any]] = []
    while len(out) < count:
        i = len(out)
        draw = int(rng.integers(2**31 - 2))
        parent = random_parent(draw)
        try:
            siblings = random_siblings(
                parent, 2 + i % 3, seed=draw + 1, max_attempts=PLACEMENT_ATTEMPTS
            )
        except ConfigurationError:
            continue  # parent too small for this many disjoint nests
        machine = BLUE_GENE_L if i % 2 == 0 else BLUE_GENE_P
        out.append((Configuration(f"storm-{seed}-{i}", parent, tuple(siblings)), machine))
    return out


def output_digest(rec: Any) -> str:
    """Byte identity of one recommendation (``repr`` keeps every float bit)."""
    return hashlib.sha256(repr(rec).encode("utf-8")).hexdigest()


def output_ok(rec: Any) -> bool:
    """Shape and sanity of one recommendation."""
    opts = rec.options
    return (
        len(opts) == OPTIONS_PER_RECOMMEND
        and rec.recommended in opts
        and rec.fastest == opts[0]
        and all(math.isfinite(o.time_per_iteration) and o.time_per_iteration > 0 for o in opts)
    )


def _loop(
    inputs: Sequence[Tuple[Any, Any]],
    seconds: float,
    recommend,
    probes: Optional[SetupProbes] = None,
) -> Dict[str, Any]:
    """Run the closed loop for *seconds* (or until the inputs run out).

    With *probes*, set-up probes run between operations at their marks
    and the loop's clock leaves their time out.
    """
    clock = probes.now if probes is not None else time.perf_counter
    lat: List[float] = []
    ends: List[float] = []
    digests: List[str] = []
    bad = 0
    t_start = clock()
    for cfg, machine in inputs:
        a = clock()
        rec = recommend(cfg, machine, min_ranks=MIN_RANKS, max_ranks=MAX_RANKS, jobs=1)
        b = clock()
        lat.append(b - a)
        ends.append(b)
        digests.append(output_digest(rec))
        bad += not output_ok(rec)
        if b - t_start >= seconds:
            break
        if probes is not None:
            probes.at(b - t_start)
    return {
        "t_start": t_start,
        "wall": clock() - t_start,
        "lat": lat,
        "ends": ends,
        "digests": digests,
        "bad": bad,
    }


def reset_caches() -> None:
    from repro.exec.placementcache import reset_placement_cache
    from repro.exec.plancache import reset_plan_cache
    from repro.netsim.engine import reset_route_cache

    reset_plan_cache()
    reset_placement_cache()
    reset_route_cache()


def recheck(inputs: Sequence[Tuple[Any, Any]], digests: Sequence[str], seed: int) -> List[int]:
    """Recompute a seeded sample from empty caches; the indices that differ.

    Guards against a stale structural cache key: a warm cache that
    returns another input's value would change the bytes.
    """
    import numpy as np

    from repro.analysis.planner import recommend

    rng = np.random.default_rng([seed, 0xC4EC])
    k = min(CHECK_SAMPLE, len(digests))
    sample = sorted(int(i) for i in rng.choice(len(digests), size=k, replace=False))
    wrong = []
    for i in sample:
        reset_caches()
        cfg, machine = inputs[i]
        rec = recommend(cfg, machine, min_ranks=MIN_RANKS, max_ranks=MAX_RANKS, jobs=1)
        if output_digest(rec) != digests[i]:
            wrong.append(i)
    return wrong


def setup_probe(seed: int, seconds: int, t_entry: float) -> float:
    """One set-up as a fresh process pays it: imports + input generation."""
    import repro.analysis.planner  # noqa: F401

    make_inputs(seed, seconds * CONFIGS_PER_SECOND)
    return time.perf_counter() - t_entry


def run(seed: int, seconds: int, trace: bool, t_entry: float) -> Tuple[Dict[str, Any], List[str]]:
    from repro.analysis.planner import recommend

    inputs = make_inputs(seed, seconds * CONFIGS_PER_SECOND)
    setup_s = time.perf_counter() - t_entry
    # Traced runs report no set-up time, so they skip the extra set-ups.
    probes = SetupProbes("plan-cold", seed, seconds, 0 if trace else SETUP_PROBES, seconds)
    ticks0 = cpu_ticks()
    timed = _loop(inputs, seconds, recommend, probes)
    ticks1 = cpu_ticks()
    setups = [setup_s, *probes.finish()]
    peak_rss = tree_peak_rss_mb()
    done = len(timed["lat"])
    notes = [f"plan-cold: {done} recommends in {timed['wall']:.2f} s "
             f"({len(inputs)} inputs generated); {steal_note(ticks0, ticks1)}"]
    if done == len(inputs):
        notes.append("plan-cold: inputs ran out before the deadline")

    wrong = recheck(inputs, timed["digests"], seed)
    notes.append(f"plan-cold: recheck from empty caches differs at {wrong or 'no'} sample(s)")
    metrics, note = end_to_end(
        setup_samples=setups,
        t_start=timed["t_start"],
        completions=[(t, 1.0) for t in timed["ends"]],
        rate_group=RATE_GROUP,
        latencies_s=timed["lat"],
        tail_pref=TAIL_PERCENTILE,
        peak_rss_mb=peak_rss,
    )
    notes.append("plan-cold: " + note)
    traced_wrong = 0
    if trace:
        metrics, trace_notes, traced_wrong = traced(
            inputs[:done], timed["digests"], timed["wall"], seed
        )
        notes.extend(trace_notes)
    failed = min(done, timed["bad"] + len(wrong) + traced_wrong)
    result = {"correct": failed == 0, "attempted": done, "failed": failed, "metrics": metrics}
    return result, notes


def traced(
    inputs: Sequence[Tuple[Any, Any]],
    digests: Sequence[str],
    untraced_wall: float,
    seed: int,
):
    """Re-run the same operations from empty caches with every layer wrapped.

    Returns the per-layer metrics, notes, and how many traced outputs
    differ from the untraced ones (tracing must not change a byte).
    """
    import threading

    import layers
    from common import OUT_DIR, ROOT
    from spans import Lane, Recorder, summarize, write_spans

    from repro.exec.placementcache import placement_cache_stats
    from repro.exec.plancache import plan_cache_stats
    from repro.netsim.engine import route_cache_stats

    reset_caches()
    chunks0 = layers.streamed_chunks()
    rec = Recorder()
    counts = layers.Counts()
    layers.install(rec, counts)
    import repro.analysis.planner as planner

    try:
        timed = _loop(inputs, math.inf, planner.recommend)
    finally:
        rec.restore()
    lane = Lane(threading.get_ident(), timed["t_start"], timed["t_start"] + timed["wall"])
    summary = summarize(rec.spans, [lane])
    values = layers.span_metrics(summary, rec.spans, counts)
    values.update(layers.cache_metrics(plan_cache_stats(), placement_cache_stats(), route_cache_stats()))
    values["netsim.streamed_chunks"] = layers.streamed_chunks() - chunks0
    values["trace.overhead_frac"] = timed["wall"] / untraced_wall - 1.0
    path = OUT_DIR / f"trace-plan-cold-{seed}.json"
    write_spans(path, rec.spans, {"workload": "plan-cold", "seed": seed, "ops": len(inputs)})
    notes = [
        f"plan-cold traced: {len(inputs)} ops, {summary.spans} spans -> "
        f"{path.relative_to(ROOT)}; layers + untraced reconcile to "
        f"wall within {summary.residual_frac:.2%}",
    ]
    wrong = sum(a != b for a, b in zip(timed["digests"], digests)) + timed["bad"]
    if wrong:
        notes.append(f"plan-cold traced: {wrong} traced output(s) differ from untraced")
    return layers.complete(values), notes, wrong
