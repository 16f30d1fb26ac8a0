"""Correctness references, computed apart from the optimizer.

The reference of a source is the same source compiled with
``standard_opts=False`` and no ABCD (every bounds check in place) and
executed.  An optimized operation passes when its outcome (value, or
trap class with the failing bound's kind/index/length) equals the
reference's, it never hit the interpreter's ``UNSOUND`` unchecked-access
error, and it executed no more dynamic checks than the reference did.
"""

from __future__ import annotations

from typing import List, Optional

from common import Outcome

#: Instruction budget of every reference and checking run.
FUEL = 50_000_000
#: A bounded run traps with :data:`TOO_LARGE` once an arithmetic result
#: needs more bits, or an allocation more elements, than these.
MAX_BITS = 256
MAX_ELEMENTS = 1 << 16
TOO_LARGE = "InputTooLarge"


def execute(
    program, engine: str = "interpreter", fuel: int = FUEL, bounded: bool = False
) -> Outcome:
    """Run ``main()`` of ``program`` and capture its outcome and checks.

    ``engine="compiled"`` runs the compiled tier (``runtime/codegen.py``),
    which keeps the interpreter's check counters but has no fuel.
    ``bounded`` runs the interpreter of :func:`_bounded`.
    """
    from repro.errors import BoundsCheckError, MiniJRuntimeError
    from repro.runtime.codegen import compile_to_python
    from repro.runtime.interpreter import Interpreter

    if engine == "compiled":
        runner = compile_to_python(program)
    elif bounded:
        runner = _bounded(program, fuel)
    else:
        runner = Interpreter(program, fuel=fuel)
    outcome = Outcome()
    try:
        outcome.value = runner.run("main").value
    except BoundsCheckError as exc:
        outcome.trap = type(exc).__name__
        outcome.message = str(exc)
        outcome.kind, outcome.index, outcome.length = exc.kind, exc.index, exc.length
    except MiniJRuntimeError as exc:
        outcome.trap = type(exc).__name__
        outcome.message = str(exc)
    stats = runner.stats
    outcome.checks_total = stats.total_checks
    outcome.checks_upper = stats.upper_checks
    outcome.checks_speculative = stats.speculative_checks
    outcome.instructions = stats.instructions
    return outcome


def _bounded(program, fuel: int):
    """An interpreter that traps once an arithmetic result needs more than
    :data:`MAX_BITS` bits or an allocation more than :data:`MAX_ELEMENTS`
    elements.  MiniJ integers are unbounded, so a loop that squares a value
    doubles the cost of each step, and one ``new int[n]`` can take
    gigabytes: fuel, which counts instructions, bounds neither, and a 1 KB
    generated program can run for minutes or fill the memory.  Screening
    inputs by size, not by time, keeps the input lists the same on every
    host."""
    from repro.errors import MiniJRuntimeError
    from repro.ir.instructions import ArrayNew, BinOp
    from repro.runtime.interpreter import Interpreter

    class InputTooLarge(MiniJRuntimeError):
        pass

    class Bounded(Interpreter):
        def _execute(self, fn, env, guards, instr) -> None:
            if type(instr) is ArrayNew and self._value(env, instr.length) > MAX_ELEMENTS:
                raise InputTooLarge(f"{instr.dest} needs more than {MAX_ELEMENTS} elements")
            super()._execute(fn, env, guards, instr)
            if type(instr) is BinOp and abs(env[instr.dest]).bit_length() > MAX_BITS:
                raise InputTooLarge(f"{instr.dest} needs more than {MAX_BITS} bits")

    assert InputTooLarge.__name__ == TOO_LARGE
    return Bounded(program, fuel=fuel)


def reference_outcome(
    source: str, engine: str = "interpreter", fuel: int = FUEL, bounded: bool = False
) -> Outcome:
    from repro.passes.session import CompilationSession

    program = CompilationSession().compile(source, standard_opts=False)
    return execute(program, engine, fuel, bounded)


def outcome_from_response(response: dict) -> Outcome:
    """The outcome a ``repro serve`` ``run`` response reports."""
    checks = response.get("checks") or {}
    return Outcome(
        value=response.get("value"),
        trap=response.get("trap"),
        message=response.get("trap_message") or "",
        kind=response.get("kind"),
        index=response.get("index"),
        length=response.get("length"),
        checks_total=checks.get("total", 0),
        checks_upper=checks.get("upper", 0),
        checks_speculative=checks.get("speculative", 0),
    )


def verdict(optimized: Outcome, reference: Outcome) -> Optional[str]:
    """``None`` when ``optimized`` passes, else why it fails."""
    if "UNSOUND" in optimized.message:
        return f"unchecked access: {optimized.message}"
    if optimized.behaviour() != reference.behaviour():
        return (
            f"outcome {optimized.behaviour()} differs from the reference "
            f"{reference.behaviour()}"
        )
    executed = optimized.checks_total + optimized.checks_speculative
    if executed > reference.checks_total:
        return (
            f"{executed} dynamic checks after optimization, "
            f"{reference.checks_total} before"
        )
    return None


#: A loop whose every access is in bounds; it returns 6.
_SUM_SOURCE = """fn main(): int {
  let a: int[] = new int[4];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) { a[i] = i; s = s + a[i]; }
  return s;
}
"""

#: One access past the end: the upper-bound check must trap.
_PAST_END_SOURCE = """fn main(): int {
  let a: int[] = new int[3];
  let i: int = len(a);
  return a[i];
}
"""


def selftest() -> List[str]:
    """Plant a wrong answer and a wrongly removed check; each must fail
    :func:`verdict`.  Returns the plants that went unnoticed."""
    from repro.ir.instructions import CheckUpper
    from repro.passes.session import CompilationSession

    missed = []
    reference = reference_outcome(_SUM_SOURCE)
    session = CompilationSession()
    optimized = execute(session.compile(_SUM_SOURCE))
    if verdict(optimized, reference) is not None:
        missed.append("an honest optimized run was rejected")
    optimized.value = optimized.value + 1
    if verdict(optimized, reference) is None:
        missed.append("a wrong answer passed")

    reference = reference_outcome(_PAST_END_SOURCE)
    program = session.compile(_PAST_END_SOURCE)
    for fn in program.functions.values():
        for label, block in list(fn.blocks.items()):
            for instr in list(block.body):
                if isinstance(instr, CheckUpper):
                    fn.remove_instr(label, instr)
    if verdict(execute(program), reference) is None:
        missed.append("a wrongly removed check passed")
    return missed
