"""Shared measurement helpers: percentiles, set-up time, memory, host drift.

Nothing here imports ``repro``: these helpers time the program from the
outside, and the host reference loop must stay free of repro code.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, spans and other run products (git-ignored).
OUT = ROOT / "perfbench" / "out"

#: Fresh-process start-ups whose median is ``setup_s``.
SETUP_SAMPLES = 9


def child_env() -> Dict[str, str]:
    """The environment for every process the benchmark starts: the
    checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else f"{SRC}{os.pathsep}{existing}"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KiB).
    For ``RUSAGE_CHILDREN`` it is the largest reaped descendant."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_setup_s(modules: Sequence[str], samples: int = SETUP_SAMPLES) -> List[float]:
    """Wall time of ``samples`` fresh interpreters that import ``modules``:
    what a user pays before the first operation of a cold process."""
    code = "; ".join(f"import {name}" for name in modules)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=child_env(), check=True,
            stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def host_ref_loop_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop that uses no repro
    code: a drift gauge for the host, not for the program."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


@dataclass
class Outcome:
    """The observable behaviour of one run plus its dynamic check counts.

    ``trap`` is the runtime error class name (``None`` for a return);
    bounds traps also carry ``kind``/``index``/``length``.  Check ids are
    not compared: the reference and the optimized build number checks
    independently.
    """

    value: object = None
    trap: Optional[str] = None
    message: str = ""
    kind: Optional[str] = None
    index: Optional[int] = None
    length: Optional[int] = None
    checks_total: int = 0
    checks_upper: int = 0
    checks_speculative: int = 0
    instructions: int = 0

    def behaviour(self) -> tuple:
        return (self.value, self.trap, self.kind, self.index, self.length)


@dataclass
class WorkloadResult:
    """What one run of one workload measured."""

    attempted: int = 0
    #: Operation index → why it failed its correctness check.
    failures: Dict[int, str] = field(default_factory=dict)
    #: Run-level problems (self-test missed a planted fault, a lost
    #: response, ...): any entry makes ``correct`` false.
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Dynamic checks the reference executed minus those the optimized
    #: runs executed, summed over the operations that passed.
    dyn_removed: int = 0
    dyn_upper_removed: int = 0
    notes: List[str] = field(default_factory=list)


def e2e_metrics(
    setup: Sequence[float],
    pass_s: float,
    op_seconds: Sequence[float],
    static_eliminated: int,
    rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics every workload prints, from its raw figures.

    ``op_seconds`` holds one latency per operation of the pass; throughput
    is operations over the pass's wall time.
    """
    ms = [s * 1000.0 for s in op_seconds]
    return {
        "setup_s": statistics.median(setup),
        "corpus_s": pass_s,
        "program_ms_geomean": geomean(ms),
        "throughput_per_s": len(ms) / pass_s,
        "latency_ms_p50": percentile(ms, 50),
        "latency_ms_p90": percentile(ms, 90),
        "static_checks_eliminated": static_eliminated,
        "peak_rss_mb": rss_mb,
    }
