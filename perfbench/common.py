"""Shared plumbing for the benchmark: program import, stats, memory, output.

Nothing here imports the program at module import time; ``prepare_program``
puts the checkout's ``src/`` first on ``sys.path`` and refuses to run
against anything else.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs and cached oracle digests go (inside the checkout).
OUT_DIR = ROOT / ".perfbench_out"

#: Unit of every end-to-end metric (the ``BENCHMARK.json`` ``end_to_end`` list).
END_TO_END = {
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Candidate tail percentiles, highest first. A run reports the highest
#: one at or below the workload's preferred percentile that leaves at
#: least ``MIN_BEYOND`` samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 60.0, 50.0)
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


def prepare_program() -> None:
    """Import the program from ``<checkout>/src`` and nowhere else.

    ``REPRO_*`` variables are dropped so the program runs with its
    defaults, whatever the caller's environment holds.
    """
    init = SRC / "repro" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"program source not found: {init.relative_to(ROOT)}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported repro from {where}, not from the checkout")


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` on the
    path (``prepare_program`` has already dropped ``REPRO_*``)."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def probe_setup(workload: str, seed: int, seconds: int) -> float:
    """Set-up time of one fresh benchmark process (``--setup-probe``).

    The probe imports the program and builds its inputs exactly as a
    real run does, then reports the seconds from its entry point to
    where the run's first timed operation would start.
    """
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class SetupProbes:
    """Set-up probes spread evenly over a timed phase, kept out of its time.

    A timed phase of *span* units (seconds, ticks) calls :meth:`at` as it
    goes; each time it passes one of *count* evenly spaced marks, one
    fresh-process set-up (:func:`probe_setup`) runs while the phase
    waits. :meth:`now` is the phase's clock with that waiting taken out,
    so latencies, windows and wall time never include a probe. Spreading
    the probes samples the host's speed across the whole run instead of
    in one burst after it.
    """

    def __init__(self, workload: str, seed: int, seconds: int, count: int, span: float):
        self._args = (workload, seed, seconds)
        self.marks = [span * (k + 1) / (count + 1) for k in range(count)]
        self.samples: List[float] = []
        self.paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def at(self, progress: float) -> None:
        """Run the probes whose marks *progress* has reached."""
        while self.marks and progress >= self.marks[0]:
            self.marks.pop(0)
            t0 = time.perf_counter()
            self.samples.append(probe_setup(*self._args))
            self.paused += time.perf_counter() - t0

    def finish(self) -> List[float]:
        """Run any probes the phase ended before reaching; every sample."""
        self.at(float("inf"))
        return self.samples


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def become_subreaper() -> None:
    """Adopt this run's orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A process whose parent exits first (a server's worker, a probe's
    resource tracker) is then re-parented to this process instead of to
    init, so :func:`reap_children` can still stop it and wait for it.
    """
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: reap_children still covers direct children


def _reap_exited() -> bool:
    """Collect every child that has ended; ``True`` once none is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def reap_children(grace_s: float = 20.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Pool workers are joined, the ``multiprocessing`` resource tracker
    (started by the ensemble's shared memo table and by queues) is told
    to stop and waited for, and anything still alive after that gets
    SIGTERM, then SIGKILL after *grace_s*.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the tracker's pipe and waits for it to exit
    sig = signal.SIGTERM
    deadline = time.monotonic() + grace_s
    while not _reap_exited():
        for pid in descendant_pids(os.getpid()):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float], preferred: float) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the reported tail.

    The highest ladder percentile at or below *preferred* that has at
    least ``MIN_BEYOND`` samples above it; the median when even that
    is out of reach.
    """
    for pct in TAIL_LADDER:
        if pct > preferred:
            continue
        value = percentile(values, pct)
        beyond = sum(1 for v in values if v > value)
        if beyond >= MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, value, beyond
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def vmhwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def descendant_pids(pid: int) -> List[int]:
    """Every live descendant of *pid* (children, grandchildren, ...)."""
    out: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(x) for x in fh.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            frontier.extend(kids)
    return out


def tree_peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak RSS summed over *pid* (default: this process) and its descendants."""
    root = os.getpid() if pid is None else pid
    total = 0.0
    for p in [root, *descendant_pids(root)]:
        try:
            total += vmhwm_mb(p)
        except (FileNotFoundError, ProcessLookupError):
            pass  # exited between listing and reading
    return total


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the whole machine, from ``/proc/stat``.

    Steal is time the hypervisor ran someone else on our virtual CPUs;
    the runs print its share of the timed phase so a slow run on a
    crowded host can be told from a slow program.
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU time stolen between two :func:`cpu_ticks` readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def steal_note(before: Tuple[int, int], after: Tuple[int, int]) -> str:
    return f"host steal while timed: {steal_share(before, after):.1%} of CPU time"


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> Dict[str, object]:
    if not math.isfinite(value):
        raise BenchError(f"non-finite metric value {value!r}")
    return {"value": float(value), "unit": unit}


def median_rate(
    t_start: float, completions: Sequence[Tuple[float, float]], group: int
) -> float:
    """Median over windows of *group* consecutive completions of work/second.

    *completions* are ``(time, work)`` pairs of a closed loop that began
    at *t_start*. Each window runs from the previous window's last
    completion to its own last one, so windows tile the timed phase; the
    median keeps a few seconds of stolen CPU from moving the figure.
    """
    done = sorted(completions)
    group = max(1, min(group, len(done)))  # a very short run is one window
    rates = []
    prev = t_start
    for lo in range(0, len(done) - group + 1, group):
        window = done[lo:lo + group]
        end = window[-1][0]
        rates.append(sum(w for _, w in window) / (end - prev))
        prev = end
    return median(rates)


def end_to_end(
    *,
    setup_samples: Sequence[float],
    t_start: float,
    completions: Sequence[Tuple[float, float]],
    rate_group: int,
    latencies_s: Sequence[float],
    tail_pref: float,
    peak_rss_mb: float,
) -> Tuple[Dict[str, Dict[str, object]], str]:
    """The five end-to-end metrics plus a human-readable summary line.

    *completions* are the timed phase's ``(completion time, work)``
    pairs; work is what ``throughput_per_s`` counts (operations, or
    member-ticks for the ensemble).
    """
    lat_ms = [x * 1000.0 for x in latencies_s]
    pct, tail_ms, beyond = tail(lat_ms, tail_pref)
    wall = max(t for t, _ in completions) - t_start
    mean_rate = sum(w for _, w in completions) / wall
    values = {
        "setup_s": median(setup_samples),
        "throughput_per_s": median_rate(t_start, completions, rate_group),
        "p50_ms": median(lat_ms),
        "tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    note = (
        f"tail_ms is p{pct:g} over {len(lat_ms)} samples "
        f"({beyond} beyond it; p75/p90/p95/p99 = "
        + "/".join(f"{percentile(lat_ms, q):.1f}" for q in (75, 90, 95, 99))
        + f" ms); throughput_per_s is the median over windows of {rate_group} "
        f"operations (whole-run mean {mean_rate:.2f}/s); setup_s is the median of "
        f"{len(setup_samples)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setup_samples)
    )
    return metrics, note


def emit(result: Dict[str, object], notes: Sequence[str]) -> None:
    """Print the notes, then the result as the last stdout line."""
    for line in notes:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
