"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 15 --trace 0

Workloads: ``plan-cold``, ``service-mix``, ``ensemble-steer`` (see
``perfbench/README.md``). ``--trace 0`` prints the end-to-end metrics
measured with tracing off; ``--trace 1`` additionally runs the same
operations with every layer wrapped and prints the per-layer metrics.
The last stdout line is always ``{"correct", "attempted", "failed",
"metrics"}``. Without the program's sources under ``src/`` the run
exits with status 2 and prints no result.
"""

import time

#: Every set-up time is measured from here (before any heavy import).
T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402

#: Workload name -> the module in this directory that runs it.
WORKLOADS = {
    "plan-cold": "plan_cold",
    "service-mix": "service_mix",
    "ensemble-steer": "ensemble_steer",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up (plan-cold, ensemble-steer) and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    from common import BenchError, become_subreaper, emit, prepare_program, reap_children

    try:
        prepare_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    become_subreaper()
    try:
        mod = importlib.import_module(WORKLOADS[args.workload])
        if args.setup_probe:
            print(repr(mod.setup_probe(args.seed, args.seconds, T_ENTRY)))
            return 0
        result, notes = mod.run(args.seed, args.seconds, bool(args.trace), T_ENTRY)
        import selftest

        selftest.check(args.workload)  # a gate that misses a corruption aborts the run
        notes.append(f"{args.workload}: correctness-gate self-test passed")
    finally:
        reap_children()  # on every way out, before the result line
    emit(result, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
