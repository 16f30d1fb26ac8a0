"""``compile-unique``: a stream of distinct generated programs, each
compiled and optimized once in-process.

The list is drawn from ``repro.fuzz.generator`` by the workload seed: the
default profile, with two ``deep-chain`` programs in every 40.  Even
positions compile plain, odd ones certified, so the deep chains split
evenly between the modes.  Nothing is executed in the timed phase: the
programs are compiled in chunks, and each chunk runs against its
references after it is timed.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass

from common import (
    SETUP_SAMPLES, Outcome, WorkloadResult, e2e_metrics, import_setup_s, peak_rss_mb,
)
from reference import TOO_LARGE, execute, reference_outcome, verdict
from spans import instrumented, root_span

SETUP_MODULES = ("repro.passes.session",)

#: List length per measured second: the nominal compile rate of the
#: reference host, so a run of ``--seconds 30`` compiles 780 programs.
OPS_PER_SECOND = 26
#: Operations timed between two checking phases.  Checking each chunk
#: right after it is compiled keeps the compiled programs of one chunk
#: alive, not of the whole run: holding all of them made every cyclic
#: garbage collection in the timed phase scan them, which cost 15% of a
#: 520-program pass and grew with the run.
CHUNK = 26
DEEP_PERIOD = 40
DEEP_SLOTS = (5, 26)
CHAIN_DEPTH = 200
#: Generated programs mostly run a few hundred instructions; this bounds
#: the rare long-running one.
FUEL = 1_000_000
#: Reference traps that are properties of the input, not of the compiler:
#: such a program is replaced by the next one drawn.
RESOURCE_TRAPS = ("TrapLimitExceeded", "CallDepthExceeded", TOO_LARGE)
#: An allocation whose size is not a literal.  ABCD takes ``len(a) = n``,
#: hence ``n >= 0``, from ``a = new int[n]`` and also applies it at checks
#: that run before the allocation, so it can remove the lower-bound check
#: of an index that is negative there and sizes an array later.  That
#: removal depends on the seed (2 of 780 programs on seed 204, none on
#: most seeds), so such a program is left out, and each run counts how
#: many were.
VARIABLE_ALLOCATION = re.compile(r"new int\[(?!\d+\])")


@dataclass
class Item:
    source: str
    certify: bool
    deep: bool
    reference: Outcome


def miscompiled(source: str, certify: bool) -> bool:
    """Whether ABCD removes a check that an execution of ``source`` needs."""
    from repro.core.abcd import ABCDConfig
    from repro.passes.session import CompilationSession

    session = CompilationSession(config=ABCDConfig(certify=certify))
    program = session.compile(source)
    session.optimize(program)
    return "UNSOUND" in execute(program, fuel=FUEL).message


def build_inputs(
    seed: int, count: int, deep_slots=DEEP_SLOTS, exclude=(), max_instructions=FUEL
):
    """``count`` distinct programs drawn by ``seed``, none in ``exclude``
    and none whose reference run exceeds ``max_instructions``, each with
    its reference outcome; and how many drawn programs were left out
    because ABCD miscompiles them (see ``VARIABLE_ALLOCATION``)."""
    from repro.fuzz.generator import DEFAULT_CONFIG, GeneratorConfig, generate_source

    deep_config = GeneratorConfig(profile="deep-chain", chain_depth=CHAIN_DEPTH)
    rng = random.Random(seed)
    seen, items, miscompiles = set(exclude), [], 0
    while len(items) < count:
        deep = len(items) % DEEP_PERIOD in deep_slots
        source = generate_source(
            rng.randrange(2**31), deep_config if deep else DEFAULT_CONFIG
        )
        if source in seen:
            continue
        reference = reference_outcome(source, fuel=FUEL, bounded=True)
        if reference.trap in RESOURCE_TRAPS or reference.instructions > max_instructions:
            continue
        seen.add(source)
        certify = len(items) % 2 == 1
        if VARIABLE_ALLOCATION.search(source) and miscompiled(source, certify):
            miscompiles += 1
            continue
        items.append(Item(source, certify, deep, reference))
    return items, miscompiles


def check_chunk(result: WorkloadResult, first: int, chunk, outputs) -> int:
    """Check one chunk's outputs against their references, recording
    failures and removed checks in ``result``; returns the checks ABCD
    eliminated in the passing operations."""
    static = 0
    for index, (item, out) in enumerate(zip(chunk, outputs), first):
        if isinstance(out, Exception):
            result.failures[index] = f"{type(out).__name__}: {out}"
            continue
        program, report = out
        reason = None
        if item.certify and (
            report.certificates_rejected
            or report.certificates_accepted != report.certificates_emitted
        ):
            reason = (
                f"{report.certificates_rejected} of "
                f"{report.certificates_emitted} certificates rejected"
            )
        optimized = execute(program, fuel=FUEL)
        reason = reason or verdict(optimized, item.reference)
        if reason is not None:
            result.failures[index] = reason
            continue
        static += report.eliminated_count()
        result.dyn_removed += item.reference.checks_total - (
            optimized.checks_total + optimized.checks_speculative
        )
        result.dyn_upper_removed += item.reference.checks_upper - optimized.checks_upper
    return static


def run(seed: int, seconds: int, tracer) -> WorkloadResult:
    from repro.core.abcd import ABCDConfig
    from repro.passes.session import CompilationSession

    # Half the start-ups before the pass and half after, so their median
    # spans the run's host drift as the pass does.
    setup = import_setup_s(SETUP_MODULES, SETUP_SAMPLES // 2 + 1)
    items, miscompiles = build_inputs(seed, OPS_PER_SECOND * seconds)
    result = WorkloadResult(attempted=len(items))

    pass_s, times, static = 0.0, [], 0
    for first in range(0, len(items), CHUNK):
        chunk = items[first:first + CHUNK]
        outputs = []
        with instrumented(tracer):
            start = time.perf_counter()
            for index, item in enumerate(chunk, first):
                began = time.perf_counter()
                try:
                    with root_span(tracer, "bench.compile", index):
                        session = CompilationSession(config=ABCDConfig(certify=item.certify))
                        program = session.compile(item.source)
                        outputs.append((program, session.optimize(program)))
                except Exception as exc:  # any escape fails this operation only
                    outputs.append(exc)
                times.append(time.perf_counter() - began)
            pass_s += time.perf_counter() - start
        static += check_chunk(result, first, chunk, outputs)
    setup += import_setup_s(SETUP_MODULES, SETUP_SAMPLES // 2)

    result.end_to_end = e2e_metrics(setup, pass_s, times, static, peak_rss_mb())
    deep = sum(item.deep for item in items)
    result.notes.append(
        f"{len(items)} programs: {deep} deep-chain (depth {CHAIN_DEPTH}), "
        f"{sum(item.certify for item in items)} certified; "
        f"{miscompiles} drawn programs left out: ABCD removed a check they need"
    )
    return result
