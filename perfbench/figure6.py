"""``figure6``: the paper's experiment, the 15-program Figure-6 corpus.

Each program goes through the harness (``repro.bench.harness.
run_benchmark``): compile, profiling run, unoptimized run, ABCD+PRE,
optimized run.  One operation is one program through the harness.  The
first round is the whole corpus and gives ``corpus_s``; two more rounds
run the seven programs that take under half a second, so their times
are medians of three runs (a single sample that short is mostly host
jitter).
The work is the same on every seed.
"""

from __future__ import annotations

import statistics
import time

from common import Outcome, WorkloadResult, e2e_metrics, import_setup_s, peak_rss_mb
from reference import reference_outcome, verdict
from spans import instrumented, root_span

SETUP_MODULES = ("repro.bench.harness",)
REPEATED = (
    "bubbleSort", "biDirBubbleSort", "Qsort", "Hanoi", "Dhrystone", "toba", "bytemark",
)
ROUNDS = 3


def run(seed: int, seconds: int, tracer) -> WorkloadResult:
    from repro.bench.corpus import CORPUS
    from repro.bench.harness import run_benchmark

    setup = import_setup_s(SETUP_MODULES)
    ops = list(CORPUS) + [p for _ in range(ROUNDS - 1) for p in CORPUS if p.name in REPEATED]
    result = WorkloadResult(attempted=len(ops))

    outputs, times = [], []
    with instrumented(tracer):
        start = time.perf_counter()
        for index, program in enumerate(ops):
            if index == len(CORPUS):
                pass_s = time.perf_counter() - start
            began = time.perf_counter()
            try:
                with root_span(tracer, "bench.program", program.name):
                    outputs.append(run_benchmark(program))
            except Exception as exc:  # any escape fails this operation only
                outputs.append(exc)
            times.append(time.perf_counter() - began)

    # The compiled tier runs the reference: jess takes ~25 s on the
    # interpreter and ~4 s compiled, with the same check counters.
    references = {p.name: reference_outcome(p.source(), engine="compiled") for p in CORPUS}
    static = 0
    per_program = {p.name: [] for p in CORPUS}
    for index, (program, out, took) in enumerate(zip(ops, outputs, times)):
        per_program[program.name].append(took)
        if isinstance(out, Exception):
            result.failures[index] = f"{program.name}: {type(out).__name__}: {out}"
            continue
        optimized = Outcome(
            value=out.opt_value,
            checks_total=out.opt_stats.total_checks,
            checks_speculative=out.opt_stats.speculative_checks,
        )
        base = Outcome(value=out.base_value, checks_total=out.base_stats.total_checks)
        reference = references[program.name]
        reason = verdict(optimized, reference) or verdict(base, reference)
        if reason is not None:
            result.failures[index] = f"{program.name}: {reason}"
        elif index < len(CORPUS):
            static += out.report.eliminated_count()
            result.dyn_removed += out.base_stats.total_checks - (
                out.opt_stats.total_checks + out.opt_stats.speculative_checks
            )
            # Figure 6's numerator: PRE's speculative upper checks count as kept.
            result.dyn_upper_removed += out.dynamic_upper_base - out.dynamic_upper_opt

    medians = [statistics.median(per_program[p.name]) for p in CORPUS]
    result.end_to_end = e2e_metrics(setup, pass_s, medians, static, peak_rss_mb())
    result.notes.append(
        "program ms (median): " + ", ".join(
            f"{p.name} {t * 1000:.0f}" for p, t in zip(CORPUS, medians)
        )
    )
    return result
