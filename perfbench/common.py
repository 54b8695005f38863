"""Shared helpers: locating the source tree, statistics, result lines."""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import sys
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Run artifacts (job files, traces, per-run reports); ignored by git.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Percentiles a tail may be reported at, highest first.  A run reports
#: the highest one with at least ten samples beyond it, so the tail of
#: a fixed-size sample is always read at the same percentile.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)

#: The CPUs the benchmark was started with (before ``pin_to_one_cpu``).
ALL_CPUS = frozenset(os.sched_getaffinity(0)) if hasattr(
    os, "sched_getaffinity") else frozenset()


def require_source() -> None:
    """Exit 2 unless the program's source tree sits next to the
    benchmark; put it first on ``sys.path``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts afterwards, on
    one CPU.

    Every gateway request passes through three processes.  Spread over
    the CPUs of a shared virtual machine, each hand-off wakes an idle
    virtual CPU, and how long that takes varies up to 2x from one
    minute to the next.  On one CPU a hand-off is a context switch,
    and the host-speed loop (calib.py) runs on the CPU the work runs
    on."""
    if ALL_CPUS:
        os.sched_setaffinity(0, {min(ALL_CPUS)})


@contextlib.contextmanager
def on_all_cpus():
    """Run the block, and the processes started in it, on every CPU the
    benchmark was started with."""
    if not ALL_CPUS:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def source_env() -> dict:
    """The environment for child processes that import the program."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return env


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 of ``count`` samples
    beyond it (None when there are fewer than 20 samples)."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) >= 1000.0 - 1e-6:
            return pct
    return None


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, tail, the tail's percentile and the sample count."""
    pct = tail_percentile(len(samples))
    return {
        "p50": statistics.median(samples) if samples else 0.0,
        "tail": percentile(samples, pct) if pct is not None else max(
            samples, default=0.0),
        "tail_pct": pct if pct is not None else 100.0,
        "n": len(samples),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest reaped child process tree
    member (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, dict]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True)


def report(lines: List[str]) -> None:
    """Human-readable lines on stdout, before the result line."""
    for line in lines:
        print(line)
    sys.stdout.flush()
