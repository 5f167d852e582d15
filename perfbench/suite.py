"""Run every workload once and print one table of end-to-end metrics.

Usage (from the root of a checkout)::

    python3 perfbench/suite.py --seed 1 [--seconds 15] [--write-manifest]

Each workload runs in its own process exactly as the benchmark command
does (``perfbench/run.py --workload W --seed N --seconds S --trace 0``).
The exit status is non-zero if any workload fails or reports a wrong
output. ``--write-manifest`` instead (re)writes ``BENCHMARK.json`` from
the metric catalogues in ``common.py`` and ``layers.py`` and the
workloads and bounds below, and exits.
"""

import argparse
import json
import subprocess
import sys

import layers
from common import END_TO_END, ROOT, child_env

RUN_SECONDS = 15
WORKLOADS = {
    "plan-cold": "never-repeating storms through recommend(): caches miss and churn, so "
                 "route expansion, mapping, halo build, key digests and pricing do the work",
    "service-mix": "warm resident HTTP service, 2 keep-alive clients, 2:1:1 "
                   "simulate/plan/recommend: caches hit, so keying, pricing, schema, "
                   "transport and GIL contention dominate",
    "ensemble-steer": "300 steered members on 2 workers at 131k BG/P ranks: the only path "
                      "through the WRF solver, steering, cross-member memo, work queue and "
                      "131k-rank netsim",
}
#: Share of the parent's median by which each metric may worsen.
BOUNDS = {
    "throughput_per_s": ("higher", 0.25),
    "p50_ms": ("lower", 0.25),
    "tail_ms": ("lower", 0.25),
    "peak_rss_mb": ("lower", 0.1),
    "setup_s": ("lower", 0.25),
}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": BOUNDS[n][0], "bound": BOUNDS[n][1]}
            for n, unit in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        print("wrote BENCHMARK.json")
        return 0

    ok = True
    print(f"{'workload':16s} {'metric':18s} {'value':>12s} unit")
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        for name, m in result["metrics"].items():
            print(f"{workload:16s} {name:18s} {m['value']:12.4f} {m['unit']}")
        print(f"{workload:16s} {'attempted/failed':18s} {result['attempted']:>7d}/{result['failed']:<4d}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
