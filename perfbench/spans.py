"""Spans for the traced run, recorded from the benchmark's own code.

The program carries no spans of its own, so the traced run wraps public
functions of each layer (module attributes and class methods) with a
span-recording shim while the measured phase runs, and restores the
originals afterwards.  Spans are kept in memory and written once, at the
end, as one JSON file; self time per layer is a span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Layers in report order; every span belongs to exactly one.  ``bench``
#: is the benchmark's own code between calls into the program.
LAYERS = (
    "frontend", "ir", "passes", "core", "certify", "runtime",
    "robustness", "store", "serve", "protocol", "bench",
)


class Span:
    __slots__ = ("index", "name", "layer", "start", "end", "parent", "rid")

    def __init__(self, index, name, layer, start, parent, rid) -> None:
        self.index = index
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        self._restore: List[tuple] = []
        #: Wall time the shims themselves spent (bookkeeping and counting
        #: around each wrapped call): the tracing overhead of the run.
        self.overhead_s = 0.0

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str, rid=None):
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        record = Span(
            len(self.spans), name, layer, time.perf_counter(),
            parent.index if parent is not None else None, rid,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, layer: str, start: float, end: float, rid=None) -> None:
        """A span the caller timed itself: work outside this process's call
        stack, such as a request's service interval in the server."""
        record = Span(len(self.spans), name, layer, start, None, rid)
        record.end = end
        self.spans.append(record)

    def bump(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- wrapping public functions --------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        layer,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a shim recording a span named
        ``<layer>.<name>`` around each call.

        ``layer`` may be a callable of the call's arguments, for functions
        whose layer depends on them (optimize with or without certify).
        ``before(args)`` runs first and its result reaches
        ``after(args, result, token)`` when the call ends, also when it
        raises (``result`` is then ``None``): that is where counts are read.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span_layer = layer(args) if callable(layer) else layer
            token = before(args) if before is not None else None
            result = None
            inner = 0.0
            try:
                with tracer.span(f"{span_layer}.{name}", span_layer):
                    began = time.perf_counter()
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        inner = time.perf_counter() - began
                return result
            finally:
                # Outside the span: counting is the benchmark's cost.
                if after is not None:
                    after(args, result, token)
                tracer.overhead_s += time.perf_counter() - entered - inner

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived figures ------------------------------------------------

    def total(self, name: str, exclude_parent: Optional[str] = None) -> float:
        """Summed duration of spans called ``name`` (optionally leaving out
        those directly under a span called ``exclude_parent``)."""
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            if exclude_parent is not None and span.parent is not None:
                if self.spans[span.parent].name == exclude_parent:
                    continue
            total += span.seconds
        return total

    def _child_time(self) -> Dict[int, float]:
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        return child_time

    def self_total(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        child_time = self._child_time()
        return sum(
            s.seconds - child_time[s.index] for s in self.spans if s.name == name
        )

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: span durations minus the time their children cover."""
        child_time = self._child_time()
        per_layer = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            per_layer[span.layer] += span.seconds - child_time[span.index]
        return per_layer

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": s.name, "layer": s.layer, "start": s.start,
                "end": s.end, "parent": s.parent, "rid": s.rid,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counters": self.counters}))


def instrument_repro(tracer: Tracer) -> None:
    """Wrap the public entry points of every in-process layer.

    ``CompilationSession.compile`` calls parse/check/lower/verify through
    its module's globals, so wrapping those names nests the frontend and
    IR spans under the compile span and leaves the pass pipeline (e-SSA
    and the standard optimizations) as the compile span's self time.
    ``Interpreter.run`` is wrapped on the class, so it catches the
    profiling run inside ``collect_profile`` as well.
    """
    from repro.bench import harness
    from repro.ir import parser, verifier
    from repro.ir.function import Program
    from repro.passes import session as session_module
    from repro.robustness import differential
    from repro.runtime.interpreter import Interpreter
    from repro.store import fingerprint
    from repro.store.store import CertStore

    bump = tracer.bump

    def count_lines(args, result, token):
        bump("frontend.lines", args[0].count("\n"))

    def count_lowered(args, result, token):
        if result is not None:
            bump("ir.instructions", sum(
                sum(1 for _ in fn.all_instructions())
                for fn in result.functions.values()
            ))

    def visits(args):
        return sum(e.instructions_visited for e in args[0].stats.passes.values())

    def count_visits(args, result, token):
        bump("passes.instructions_visited", visits(args) - token)

    def solver_steps(args):
        counters = args[0].stats.counters
        return counters.get("solver.steps.upper", 0) + counters.get("solver.steps.lower", 0)

    def count_optimize(args, result, token):
        bump("core.solver_steps", solver_steps(args) - token)
        if result is not None:
            bump("core.checks_analyzed", result.analyzed)
            bump("certify.certificates", result.certificates_emitted)

    def count_run(args, result, token):
        bump("runtime.instructions", args[0].stats.instructions)

    def optimize_layer(args):
        return "certify" if args[0].config.certify else "core"

    session_cls = session_module.CompilationSession
    wrap = tracer.wrap
    wrap(session_module, "parse_source", "parse", "frontend", after=count_lines)
    wrap(session_module, "check_program", "check", "frontend")
    wrap(session_module, "lower_program", "lower", "ir", after=count_lowered)
    wrap(session_module, "verify_program", "verify", "ir")
    wrap(verifier, "verify_program", "verify", "ir")
    wrap(parser, "parse_ir_program", "parse", "ir")
    wrap(session_cls, "compile", "compile", "passes", visits, count_visits)
    wrap(session_cls, "optimize", "optimize", optimize_layer, solver_steps, count_optimize)
    wrap(Program, "clone", "clone", "ir")
    wrap(harness, "collect_profile", "profile", "runtime")
    wrap(Interpreter, "run", "run", "runtime", after=count_run)
    wrap(differential, "gated_optimize", "gate", "robustness")
    wrap(fingerprint, "store_fingerprint", "fingerprint", "store")
    wrap(CertStore, "load", "load", "store")
    wrap(CertStore, "put", "put", "store")


def layer_metrics(tracer: Tracer, pass_s: float) -> Dict[str, float]:
    """The in-process per-layer metrics of one traced run, from its spans
    and counters.  Layers the workload never entered read 0."""
    c = tracer.counters
    frontend_s = tracer.total("frontend.parse") + tracer.total("frontend.check")
    run_all_s = tracer.total("runtime.run")
    metrics = {
        "frontend.s": frontend_s,
        "frontend.lines_per_s": c["frontend.lines"] / frontend_s if frontend_s else 0.0,
        "ir.lower_s": tracer.total("ir.lower"),
        "ir.clone_s": tracer.total("ir.clone"),
        "ir.instructions": c["ir.instructions"],
        "passes.compile_s": tracer.self_total("passes.compile"),
        "passes.instructions_visited": c["passes.instructions_visited"],
        "core.optimize_s": tracer.total("core.optimize"),
        "core.solver_steps": c["core.solver_steps"],
        "core.checks_analyzed": c["core.checks_analyzed"],
        "certify.optimize_s": tracer.total("certify.optimize"),
        "certify.certificates": c["certify.certificates"],
        "runtime.profile_s": tracer.total("runtime.profile"),
        "runtime.run_s": tracer.total("runtime.run", exclude_parent="runtime.profile"),
        "runtime.instructions": c["runtime.instructions"],
        "runtime.minstr_per_s": (
            c["runtime.instructions"] / run_all_s / 1e6 if run_all_s else 0.0
        ),
        "robustness.gate_s": tracer.total("robustness.gate"),
        "store.load_s": tracer.total("store.load"),
        "store.put_s": tracer.total("store.put"),
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": tracer.overhead_s,
        "trace.corpus_s": pass_s,
    }
    for layer, seconds in tracer.self_seconds().items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


@contextmanager
def instrumented(tracer: Optional[Tracer]):
    """Wrap the program's layers for the duration of a measured phase
    (a no-op on an untraced run)."""
    if tracer is None:
        yield
        return
    instrument_repro(tracer)
    try:
        yield
    finally:
        tracer.unwrap_all()


def root_span(tracer: Optional[Tracer], name: str, rid):
    """A benchmark-level span around one operation, or nothing."""
    return nullcontext() if tracer is None else tracer.span(name, "bench", rid=rid)
