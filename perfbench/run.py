"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0

Workloads: ``compile-unique`` and ``serve-mixed``, the two in
``BENCHMARK.json``, and ``figure6`` (see ``perfbench/README.md``).  The program is imported from ``src/`` of the
checkout this file sits in; nothing is installed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0`` and its per-layer metrics with ``--trace 1``.  Lines before
it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import OUT, ROOT, SRC, host_ref_loop_ms

#: Workload name → module.  ``BENCHMARK.json`` lists the first two.
WORKLOADS = {
    "compile-unique": "compile_unique",
    "serve-mixed": "serve_mixed",
    "figure6": "figure6",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    sys.path.insert(0, str(SRC))

    from reference import selftest
    from spans import Tracer, layer_metrics

    host_before = host_ref_loop_ms()
    missed = selftest()
    tracer = Tracer() if args.trace else None
    workload = importlib.import_module(WORKLOADS[args.workload])
    result = workload.run(args.seed, args.seconds, tracer)
    host_ms = (host_before + host_ref_loop_ms()) / 2
    result.problems += [f"self-test: {m}" for m in missed]

    if tracer is None:
        metrics = result.end_to_end
    else:
        import serve_mixed

        metrics = dict.fromkeys(serve_mixed.CLIENT_METRICS, 0)
        metrics.update(layer_metrics(tracer, result.end_to_end["corpus_s"]))
        metrics.update(result.per_layer)
        metrics.update({
            "host.ref_loop_ms": host_ms,
            "core.dyn_checks_removed": result.dyn_removed,
            "core.dyn_upper_checks_removed": result.dyn_upper_removed,
        })
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(spans_path)
        result.notes.append(f"{len(tracer.spans)} spans written to {spans_path}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        result.problems.append(f"metrics not measured: {', '.join(missing)}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in sorted(metrics):
        if name in units:
            print(f"  {name:<34} {metrics[name]:>14.4f} {units[name]}")
    print(f"  dyn_checks_removed {result.dyn_removed} count, "
          f"dyn_upper_checks_removed {result.dyn_upper_removed} count")
    print(f"  host.ref_loop_ms {host_ms:.2f} ms")
    print("  self-test: " + (
        "; ".join(missed) if missed
        else "a planted wrong answer and a planted removed check both fail"
    ))
    for note in result.notes:
        print(f"  {note}")
    for index, reason in sorted(result.failures.items()):
        print(f"  FAILED op {index}: {reason}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
