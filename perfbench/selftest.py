"""Self-test of the correctness gates: corrupted outputs must count as failed.

Each workload's gate is fed one deliberately corrupted output through
the same code path its timed loop uses, and must count it as a failed
operation. Every benchmark run calls :func:`check` for its workload
after measuring (a gate that lets a corruption through aborts the run),
together with the traced run's span reconciliation;
``python3 perfbench/selftest.py`` checks all of them.
"""

from __future__ import annotations

import dataclasses
import sys
import types

import ensemble_steer
import plan_cold
import service_mix


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


class _FlippingClient:
    """Replays known bodies, flipping one byte of the *bad*-th reply."""

    def __init__(self, pool, bodies, bad: int):
        self.pool = pool
        self.bodies = bodies
        self.bad = bad
        self.calls = 0

    def post(self, endpoint, payload, headers=None):
        from repro.service.client import ServiceReply

        body = self.bodies[self.pool.index((endpoint, payload))]
        if self.calls == self.bad:
            body = _flip(body, len(body) // 2)
        self.calls += 1
        return ServiceReply(status=200, headers={}, body=body)


def check_service_mix() -> None:
    pool = service_mix.make_pool()[:4]
    bodies = [f'{{"payload":{i}}}'.encode() for i in range(len(pool))]
    client = _FlippingClient(pool, bodies, bad=5)
    lanes = service_mix.drive([client], pool, bodies, seed=0, op_counts=[12])
    assert len(lanes[0].lat) == 12, "lane stopped early"
    assert lanes[0].failed == 1, f"flipped byte counted {lanes[0].failed} failures, not 1"
    assert not service_mix.reply_ok(500, bodies[0], bodies[0]), "non-200 passed"


def check_plan_cold() -> None:
    inputs = plan_cold.make_inputs(0, 1)
    cfg, machine = inputs[0]
    from repro.analysis.planner import recommend

    rec = recommend(cfg, machine, min_ranks=plan_cold.MIN_RANKS,
                    max_ranks=plan_cold.MAX_RANKS, jobs=1)
    good = plan_cold.output_digest(rec)
    corrupted = dataclasses.replace(
        rec.options[3], time_per_iteration=rec.options[3].time_per_iteration * (1 + 2**-40)
    )
    bad_rec = dataclasses.replace(rec, options=rec.options[:3] + (corrupted,) + rec.options[4:])
    assert plan_cold.output_digest(bad_rec) != good, "a one-ulp change kept the digest"
    assert plan_cold.recheck(inputs, [good], seed=0) == [], "clean output flagged"
    bad_digest = plan_cold.output_digest(bad_rec)
    assert plan_cold.recheck(inputs, [bad_digest], seed=0) == [0], "corruption passed recheck"
    negative = dataclasses.replace(rec.options[0], time_per_iteration=-1.0)
    assert not plan_cold.output_ok(dataclasses.replace(rec, options=(negative,) + rec.options[1:]))


def check_ensemble_steer() -> None:
    ticks = 3
    snapshot = '{"ticks":3,"records":[1,2,3]}'

    def result(text: str):
        return types.SimpleNamespace(
            member_ticks=ensemble_steer.expected_member_ticks(ticks),
            snapshot_json=lambda: text,
        )

    oracle = ensemble_steer.snapshot_digest(result(snapshot))
    assert ensemble_steer.failed_ticks(result(snapshot), ticks, oracle) == 0, "clean run failed"
    flipped = _flip(snapshot.encode(), 12).decode()
    assert ensemble_steer.failed_ticks(result(flipped), ticks, oracle) == ticks, (
        "a flipped snapshot byte passed the oracle check"
    )


def check_reconcile() -> None:
    """The traced run's reconciliation rejects spans that claim time twice
    or outside their parent, lane or operation."""
    import layers
    from spans import Lane, summarize

    lane = Lane(lane=1, start=0.0, end=10.0)
    # (id, name, start, end, parent, op, lane): two operations on lane 1,
    # the first with a child on another thread (a server handler).
    good = [
        (1, "service.client", 1.0, 4.0, 0, 1, 1),
        (2, "service.handler", 2.0, 3.0, 1, 1, 7),
        (3, "service.client", 5.0, 9.0, 0, 3, 1),
    ]
    summary = summarize(good, [lane])
    assert abs(summary.residual_frac) < 1e-12, f"clean spans left {summary.residual_frac}"
    layers.span_metrics(summary, good, layers.Counts())
    broken = {
        "a handler span that outlasts its client span": [
            good[0], (2, "service.handler", 2.0, 4.6, 1, 1, 7), good[2]],
        "a span recorded twice": good + [(4, "service.client", 1.0, 4.0, 0, 1, 1)],
        "overlapping operations on one lane": [
            good[0], good[1], (3, "service.client", 3.0, 9.0, 0, 3, 1)],
        "a span outside every lane operation": good + [(4, "halo", 9.2, 9.9, 0, 0, 7)],
    }
    for what, spans in broken.items():
        try:
            layers.span_metrics(summarize(spans, [lane]), spans, layers.Counts())
        except RuntimeError:
            continue
        raise AssertionError(f"{what} passed the reconciliation")


CHECKS = {
    "plan-cold": check_plan_cold,
    "service-mix": check_service_mix,
    "ensemble-steer": check_ensemble_steer,
}


def check(workload: str) -> None:
    """Raise ``AssertionError`` if *workload*'s gate, or the traced run's
    reconciliation, misses a corruption."""
    CHECKS[workload]()
    check_reconcile()


def check_manifest() -> None:
    """``BENCHMARK.json`` is what ``suite.py --write-manifest`` writes, so it
    lists exactly the metrics the runs print."""
    import json

    import suite
    from common import ROOT

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == suite.manifest(), "BENCHMARK.json is stale: run suite.py --write-manifest"


def main() -> int:
    from common import prepare_program

    prepare_program()
    check_manifest()
    print("BENCHMARK.json matches the metrics the runs print")
    for name, fn in CHECKS.items():
        fn()
        print(f"{name}: corrupted output counted as failed")
    check_reconcile()
    print("traced-run reconciliation rejects misplaced spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
