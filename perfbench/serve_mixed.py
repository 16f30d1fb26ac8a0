"""``serve-mixed``: ``repro serve`` over stdio, 2 workers, a fresh
certificate store, and one closed-loop client keeping 2 requests in flight.

The request list is fixed by the workload seed: ``18 × seconds`` requests
(540 at ``--seconds 30``).  A fifth of them are unique generated programs:
store writes (compile, certify, capture, the two-run differential gate,
execution).  The rest repeat a pool of 12 programs: the first request of
each is a store write, the others are store reads (load, certificate
replay, one execution), about three quarters of all requests.  The pool
holds the 5 corpus programs whose unoptimized run takes at most 100 K
instructions and 7 generated programs; generated programs are screened
to the same bound.  Larger corpus programs stay out: jess interprets for
~21 s, past the supervisor's 10 s deadline; compress takes ~1.8 s per
interpretation and a store write runs three; the other 8 would halve the
request rate.
"""

from __future__ import annotations

import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import compile_unique
from common import OUT, ROOT, WorkloadResult, child_env, e2e_metrics, peak_rss_mb, percentile
from reference import execute, outcome_from_response, reference_outcome, verdict
from spans import instrumented, root_span

WORKERS = 2
IN_FLIGHT = 2
#: The server's default, pinned: each worker is recycled three or four
#: times per 540-request run, so recycling and worker boot are on the
#: measured path.
RECYCLE_AFTER = 64
#: Requests per measured second, and the floor that keeps at least ten
#: samples beyond the 90th percentile.
REQUESTS_PER_SECOND = 18
MIN_REQUESTS = 100
#: Every program in the list interprets in at most this many instructions
#: (unoptimized), which keeps one store write under ~0.4 s.  The corpus
#: programs that qualify are fixed; generated ones are screened by their
#: reference run.
MAX_INSTRUCTIONS = 100_000
POOL_CORPUS = ("bubbleSort", "biDirBubbleSort", "Qsort", "Hanoi", "Dhrystone")
#: The generated part of the repeat pool is the same on every seed, so
#: the store reads, which are most requests, do the same work each run;
#: the seed draws the unique programs and the send order.
POOL_GENERATED = 7
POOL_SEED = 20_000
SERVER_STARTS = 5
#: A response slower than this means the server is stuck: the run stops.
RESPONSE_TIMEOUT_S = 60.0

#: Per-layer metrics only a server run measures; other workloads read 0.
CLIENT_METRICS = (
    "store.hits", "store.misses", "serve.roundtrip_ms_p50", "serve.wait_ms_p50",
    "serve.overhead_ms_p50", "serve.worker_boot_ms", "serve.recycled",
    "serve.respawned", "protocol.encode_us", "protocol.decode_us",
)

#: Warm-up request: degraded mode (no optimizer, no store), so it only
#: proves that a worker has booted.
WARMUP_SOURCE = "fn main(): int { return 1; }\n"


class ServerClient:
    """One ``repro serve`` process and its NDJSON pipes."""

    def __init__(self, store_dir) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--workers", str(WORKERS),
            "--cache-dir", str(store_dir),
            "--recycle-after", str(RECYCLE_AFTER),
        ]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        )
        self._buffer = b""

    def send(self, data: bytes) -> None:
        self.proc.stdin.write(data)
        self.proc.stdin.flush()

    def read_line(self, timeout: float = RESPONSE_TIMEOUT_S) -> bytes:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no response within {timeout:.0f} s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise EOFError("server closed its output")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def close(self) -> None:
        """EOF on stdin drains the server; kill it if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_server(store_dir) -> tuple:
    """Start a server and wait until both workers have answered once.
    Returns the client and the seconds that took."""
    from repro.serve.protocol import encode_frame

    began = time.perf_counter()
    client = ServerClient(store_dir)
    try:
        for k in range(WORKERS):
            client.send(encode_frame(
                {"op": "run", "id": f"warm{k}", "source": WARMUP_SOURCE, "optimize": False}
            ))
        for _ in range(WORKERS):
            client.read_line()
    except BaseException:
        client.close()
        raise
    return client, time.perf_counter() - began


def build_requests(seed: int, count: int):
    """The request sources in send order, each distinct source's reference
    outcome, and how many drawn programs were left out as miscompiled."""
    from repro.bench.corpus import get

    references = {}
    for name in POOL_CORPUS:
        source = get(name).source()
        references[source] = reference_outcome(source)
    pool = list(references)
    generated, pool_miscompiles = compile_unique.build_inputs(
        POOL_SEED, POOL_GENERATED, deep_slots=(), max_instructions=MAX_INSTRUCTIONS
    )
    for item in generated:
        references[item.source] = item.reference
        pool.append(item.source)
    unique, miscompiles = compile_unique.build_inputs(
        seed, count // 5, deep_slots=(), exclude=pool, max_instructions=MAX_INSTRUCTIONS
    )
    references.update((item.source, item.reference) for item in unique)
    sources = [item.source for item in unique]
    repeats, extra = divmod(count - len(unique), len(pool))
    for k, source in enumerate(pool):
        # The remainder goes to the generated end of the pool.
        sources += [source] * (repeats + (k >= len(pool) - extra))
    random.Random(seed).shuffle(sources)
    return sources, references, pool_miscompiles + miscompiles


def drive(client: ServerClient, sources: List[str], tracer) -> Dict:
    """The closed loop: keep ``IN_FLIGHT`` requests outstanding until every
    request has its response.  Responses are matched by ``id``."""
    from repro.serve.protocol import decode_frame, encode_frame

    count = len(sources)
    sent_at: Dict[int, float] = {}
    received_at: Dict[int, float] = {}
    responses: Dict[int, dict] = {}
    arrival: List[int] = []
    encode_s = decode_s = 0.0
    next_id = 0
    start = time.perf_counter()
    while len(responses) < count:
        while next_id < count and next_id - len(responses) < IN_FLIGHT:
            began = time.perf_counter()
            data = encode_frame(
                {"op": "run", "id": next_id, "source": sources[next_id],
                 "fn": "main", "args": []}
            )
            encoded = time.perf_counter()
            encode_s += encoded - began
            if tracer is not None:
                tracer.record("protocol.encode", "protocol", began, encoded, rid=next_id)
            client.send(data)
            sent_at[next_id] = time.perf_counter()
            next_id += 1
        line = client.read_line()
        received = time.perf_counter()
        response = decode_frame(line)
        decoded = time.perf_counter()
        decode_s += decoded - received
        rid = response.get("id")
        if tracer is not None:
            tracer.record("protocol.decode", "protocol", received, decoded, rid=rid)
        if rid not in sent_at or rid in responses:
            raise RuntimeError(f"unexpected response id {rid!r}")
        responses[rid] = response
        received_at[rid] = received
        arrival.append(rid)
    pass_s = time.perf_counter() - start

    # The supervisor serves one request at a time, so a request's service
    # starts when it was sent or when the previous response left, whichever
    # is later; the time before that it waited behind the other request.
    waits: Dict[int, float] = {}
    previous = start
    for rid in arrival:
        begun = max(sent_at[rid], previous)
        waits[rid] = begun - sent_at[rid]
        if tracer is not None:
            tracer.record("serve.request", "serve", begun, received_at[rid], rid=rid)
        previous = received_at[rid]
    return {
        "pass_s": pass_s,
        "responses": responses,
        "latency": {i: received_at[i] - sent_at[i] for i in range(count)},
        "wait": waits,
        "encode_us": encode_s / count * 1e6,
        "decode_us": decode_s / count * 1e6,
    }


def status(client: ServerClient) -> dict:
    from repro.serve.protocol import decode_frame, encode_frame

    client.send(encode_frame({"op": "status", "id": "status"}))
    return decode_frame(client.read_line())


def worker_boot_ms(samples: int = 3) -> float:
    """Median time from spawning a bare worker to its first answer."""
    from repro.serve.protocol import encode_frame

    times = []
    for _ in range(samples):
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        )
        try:
            proc.stdin.write(encode_frame(
                {"op": "run", "id": 0, "source": WARMUP_SOURCE, "mode": "degraded"}
            ))
            proc.stdin.flush()
            proc.stdout.readline()
            times.append((time.perf_counter() - began) * 1000.0)
        finally:
            proc.stdin.close()
            proc.wait(timeout=15)
            proc.stdout.close()
    return statistics.median(times)


def replay(sources: List[str], store_dir, tracer) -> List[float]:
    """Each request's work, in send order, through the public functions the
    supervisor and worker call, in this process and on a fresh store.
    Returns the seconds each took."""
    from repro.core.abcd import ABCDConfig
    # Module attributes, not imported names, where the traced run wraps them.
    from repro.ir import parser, verifier
    from repro.passes.session import CompilationSession
    from repro.robustness import differential
    from repro.store import fingerprint as store_key
    from repro.store.capture import StoreCapture
    from repro.store.service import certifying_config
    from repro.store.store import CertStore

    store = CertStore(store_dir)
    seconds = []
    with instrumented(tracer):
        for rid, source in enumerate(sources):
            began = time.perf_counter()
            with root_span(tracer, "bench.replay", rid):
                config = ABCDConfig()
                fingerprint = store_key.store_fingerprint(source, config, standard_opts=True)
                loaded = store.load(fingerprint, config)
                if loaded.hit:
                    program = parser.parse_ir_program(loaded.ir_text)
                    verifier.verify_program(program)
                else:
                    capture = StoreCapture()
                    session = CompilationSession(config=certifying_config(config))
                    program = session.compile(source)
                    gated = differential.gated_optimize(
                        program, session.config, inputs=((),), capture=capture
                    )
                    entry = None if gated.reverted else capture.build_entry(
                        fingerprint, program
                    )
                    if entry is not None:
                        store.put(entry)
                execute(program)
            seconds.append(time.perf_counter() - began)
    return seconds


def run(seed: int, seconds: int, tracer) -> WorkloadResult:
    count = max(MIN_REQUESTS, REQUESTS_PER_SECOND * seconds)
    sources, references, miscompiles = build_requests(seed, count)
    result = WorkloadResult(attempted=count)

    run_dir = OUT / f"serve-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup, client = [], None
        for k in range(SERVER_STARTS):
            if client is not None:
                client.close()
            client, took = start_server(run_dir / f"store{k}")
            setup.append(took)
        try:
            driven = drive(client, sources, tracer)
            final = status(client)
        finally:
            client.close()
        if tracer is not None:
            replayed = replay(sources, run_dir / "replay", tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    static = hits = 0
    for rid, source in enumerate(sources):
        response = driven["responses"][rid]
        if response.get("status") != "ok":
            result.failures[rid] = (
                f"status {response.get('status')}: {response.get('message') or response.get('reason')}"
            )
            continue
        optimized = outcome_from_response(response)
        reference = references[source]
        reason = verdict(optimized, reference)
        if reason is not None:
            result.failures[rid] = reason
            continue
        hits += response.get("cache") == "hit"
        static += response["report"]["eliminated"]
        result.dyn_removed += reference.checks_total - (
            optimized.checks_total + optimized.checks_speculative
        )
        result.dyn_upper_removed += reference.checks_upper - optimized.checks_upper

    store_stats = final.get("cache", {}).get("store", {})
    if store_stats.get("quarantine_files") or final.get("cache", {}).get("invariant_violations"):
        result.problems.append(f"certificate store rejected entries: {store_stats}")
    counters = final.get("counters", {})

    latencies = [driven["latency"][i] for i in range(count)]
    result.end_to_end = e2e_metrics(
        setup, driven["pass_s"], latencies, static,
        peak_rss_mb(resource.RUSAGE_CHILDREN),
    )
    result.notes.append(
        f"{count} requests: {hits} store hits, "
        f"{len(set(sources))} distinct sources, "
        f"recycled {counters.get('serve.recycled', 0)}, "
        f"respawned {counters.get('serve.respawned', 0)}, "
        f"degraded {counters.get('serve.degraded', 0) - WORKERS}, "
        f"degradation ladder max level {final.get('overload', {}).get('max_level')}; "
        f"{miscompiles} drawn programs left out: ABCD removed a check they need"
    )
    if tracer is not None:
        service = [
            driven["latency"][i] - driven["wait"][i] for i in range(count)
        ]
        result.per_layer = {
            "store.hits": store_stats.get("store.hits", 0),
            "store.misses": store_stats.get("store.misses", 0),
            "serve.roundtrip_ms_p50": percentile(latencies, 50) * 1000.0,
            "serve.wait_ms_p50": percentile(list(driven["wait"].values()), 50) * 1000.0,
            "serve.overhead_ms_p50": percentile(
                [s - r for s, r in zip(service, replayed)], 50
            ) * 1000.0,
            "serve.worker_boot_ms": worker_boot_ms(),
            "serve.recycled": counters.get("serve.recycled", 0),
            "serve.respawned": counters.get("serve.respawned", 0),
            "protocol.encode_us": driven["encode_us"],
            "protocol.decode_us": driven["decode_us"],
        }
    return result
