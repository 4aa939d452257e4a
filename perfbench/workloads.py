"""The benchmark's workloads against the corroboration service.

* ``ingest-deep`` — in-process, one caller, closed loop: a deep base of
  restaurant facts, then many small batches of new facts.
* ``ingest-wide`` — in-process, closed loop: a small sparse-synthetic
  base, then a few large batches of new facts (not gated in
  ``BENCHMARK.json``; see the README).
* ``http-mixed`` — ``repro serve`` in its own process; one keep-alive
  writer connection posts batches on an open-loop schedule while one
  keep-alive reader connection runs a closed loop of reads.

Each workload draws from one generated world with a fixed seed: the
first facts of the world form the base, and ``--seed`` draws the batch
facts, their order and the read sequence from the rest.  The base and
the world's structure stay the same across seeds, so runs on different
seeds do comparable work; the program sees only the generated vote rows.
Each workload sizes its schedule from ``--seconds``, so a run does a
fixed amount of work for a given seed and length.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import http.client
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from analysis import layer_metrics
from tracing import TRACE_HEADER, TRACE_ID_HEADER, Recorder, installed, read_chrome_trace

#: The service core every workload runs — the one place to retarget it.
CORE = "stream"
#: Seed of the generated worlds; ``--seed`` samples the batches from them.
WORLD_SEED = 0
#: The seed a claimed gain must also hold on (never used while tuning).
HOLDOUT_SEED = 7919
#: The world holds this many times the facts the batches need.
POOL_FACTOR = 2
#: In-run set-ups whose median is ``setup_s``.
SETUP_REPEATS = 3
#: Facts per small batch (ingest-deep and http-mixed).
BATCH_FACTS = 40
#: Share of reads that ask for unknown ids (answered with None / 404).
UNKNOWN_READ_SHARE = 0.05
#: Share of reads that ask for a source's trust.
TRUST_READ_SHARE = 0.15
#: Mean distance, in facts, of a fact read from the newest written fact.
RECENT_FACTS = 200
#: An in-process write loop stops once it has run this many times
#: ``--seconds``; the batches it did not send count as failed.
GUARD_FACTOR = 3


def make_service(ledger):
    from repro.serve import CorroborationService

    return CorroborationService(ledger, core=CORE)


def serve_args(store: Path) -> list[str]:
    return ["serve", "--store", str(store), "--port", "0", "--engine", CORE]


@dataclass
class Run:
    """What one workload run measured and checked."""

    setups_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    traced_write_s: list[float] = field(default_factory=list)
    untraced_write_s: list[float] = field(default_factory=list)
    write_lags_s: list[float] = field(default_factory=list)
    write_window_s: float = 0.0
    votes: int = 0
    read_s: list[float] = field(default_factory=list)
    read_window_s: float = 0.0
    verify_s: float = 0.0
    peak_rss_mb: float = 0.0
    bytes_per_vote: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted operation, failed unless ``ok``."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(message)
        return ok

    def skip(self, count: int, message: str) -> None:
        """Operations the schedule could not send count as failed."""
        with self._lock:
            self.attempted += count
            self.failed += count
            self.failures.append(message)

    def write(self, latency: float, lag: float, traced: bool) -> None:
        self.write_s.append(latency)
        self.write_lags_s.append(lag)
        (self.traced_write_s if traced else self.untraced_write_s).append(latency)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        ms = 1e3
        return {
            "setup_s": (statistics.median(self.setups_s), "s"),
            "write_p50_ms": (statistics.median(self.write_s) * ms, "ms"),
            "write_p95_ms": (_p95(self.write_s) * ms, "ms"),
            "votes_per_s": (self.votes / self.write_window_s, "votes/s"),
            "verify_s": (self.verify_s, "s"),
            "read_p50_ms": (statistics.median(self.read_s) * ms, "ms"),
            "read_p95_ms": (_p95(self.read_s) * ms, "ms"),
            "reads_per_s": (len(self.read_s) / self.read_window_s, "ops/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        return layer_metrics(
            self.spans,
            write_lags_s=self.write_lags_s,
            traced_write_s=self.traced_write_s,
            untraced_write_s=self.untraced_write_s,
            bytes_per_vote=self.bytes_per_vote,
        )


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def freeze_inputs() -> None:
    """Move the generated inputs out of the collector's reach.

    In-process, the benchmark's own objects share the heap with the
    program's; without this, full collections walk them too and the
    program's timings swing with how much input the run holds.
    """
    gc.collect()
    gc.freeze()


def rows_for(matrix, facts) -> list[tuple[str, str, str]]:
    return [
        (fact, source, vote.value)
        for fact in facts
        for source, vote in sorted(matrix.votes_on(fact).items())
    ]


def draw_inputs(matrix, base: int, batches: int, batch_facts: int, seed: int):
    """Base rows, the seeded batch rows, and the sampled batch facts."""
    facts = list(matrix.facts)
    drawn = random.Random(seed).sample(facts[base:], batches * batch_facts)
    batch_rows = [
        rows_for(matrix, drawn[i * batch_facts:(i + 1) * batch_facts])
        for i in range(batches)
    ]
    return rows_for(matrix, facts[:base]), batch_rows, facts[:base] + drawn


def read_target(rng: random.Random, pool: list[str], sources: list[str], n: int):
    """``(kind, id, known)`` of read ``n``: recent-leaning facts, trust, unknowns."""
    u = rng.random()
    if u < UNKNOWN_READ_SHARE:
        kind = "fact" if n % 2 else "source"
        return kind, f"unknown-{kind}-{n}", False
    if u < UNKNOWN_READ_SHARE + TRUST_READ_SHARE:
        return "source", rng.choice(sources), True
    back = min(int(rng.expovariate(1 / RECENT_FACTS)), len(pool) - 1)
    return "fact", pool[len(pool) - 1 - back], True


def store_bytes(path: Path) -> int:
    return sum(
        p.stat().st_size
        for p in (path, path.with_name(path.name + "-wal"))
        if p.exists()
    )


def remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            path.with_name(path.name + suffix).unlink()


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def restaurants(num_facts: int):
    from repro.datasets import generate_restaurants

    return generate_restaurants(num_facts=num_facts, seed=WORLD_SEED).dataset.matrix


def sparse_synthetic(num_facts: int):
    from repro.datasets import generate_sparse_synthetic

    return generate_sparse_synthetic(
        num_facts=num_facts,
        num_sources=80,
        num_templates=1000,
        num_hubs=16,
        seed=WORLD_SEED,
    ).dataset.matrix


@dataclass(frozen=True)
class InProcessSpec:
    name: str
    world: Callable[[int], object]
    base_facts: int
    batch_facts: int
    batches_per_s: float
    reads: int


INGEST_DEEP = InProcessSpec("ingest-deep", restaurants, 32_000, BATCH_FACTS, 8.0, 1000)
INGEST_WIDE = InProcessSpec("ingest-wide", sparse_synthetic, 2_000, 1_000, 0.4, 1000)


def run_inprocess(
    spec: InProcessSpec, seed: int, seconds: float, trace: bool, workdir: Path,
    root: Path,
) -> Run:
    from repro.serve import RefreshDecision
    from repro.store import VoteLedger

    run = Run()
    batches = max(2, round(spec.batches_per_s * seconds))
    base = spec.base_facts
    matrix = spec.world(base + POOL_FACTOR * batches * spec.batch_facts)
    base_rows, batch_rows, facts = draw_inputs(
        matrix, base, batches, spec.batch_facts, seed
    )
    sources = list(matrix.sources)
    freeze_inputs()
    ledger = store = None
    for k in range(1 if trace else SETUP_REPEATS):
        if ledger is not None:
            ledger.close()
            remove_store(store)
        store = workdir / f"{spec.name}-{k}.db"
        started = time.perf_counter()
        ledger = VoteLedger(store)
        ledger.ingest_votes(base_rows)
        service = make_service(ledger)
        decision = service.guarded_refresh()
        run.setups_s.append(time.perf_counter() - started)
        run.check(
            getattr(decision, "action", None) == "stream",
            f"bootstrap refresh {decision!r}",
        )
    recorder = Recorder()
    rng = random.Random(f"{seed}:reads")
    reads_per_batch = max(1, spec.reads // batches)
    posted = base
    with installed(recorder) if trace else contextlib.nullcontext():
        started_all = previous = time.perf_counter()
        for i, rows in enumerate(batch_rows):
            start = time.perf_counter()
            if start - started_all > GUARD_FACTOR * seconds:
                run.skip(batches - i, f"write loop cut after {i} of {batches} batches")
                break
            traced = trace and i % 2 == 0
            try:
                with recorder.op("bench.write", f"w{i}", traced):
                    batch, outcome = service.apply_votes(rows)
            except Exception as exc:  # noqa: BLE001 — counted as a failure
                run.check(False, f"batch {i}: {type(exc).__name__}: {exc}")
                previous = time.perf_counter()
                continue
            end = time.perf_counter()
            run.write(end - start, start - previous, traced)
            ok = (
                isinstance(outcome, RefreshDecision)
                and outcome.action == "stream"
                and batch.votes_added == len(rows)
            )
            if run.check(ok, f"batch {i}: {outcome!r}, {batch.votes_added} votes"):
                run.votes += batch.votes_added
                posted += spec.batch_facts
            pool = facts[:posted]
            for _ in range(reads_per_batch):
                _read_inprocess(run, recorder, service, rng, pool, sources, trace)
            previous = time.perf_counter()
        run.write_window_s = previous - started_all - run.read_window_s

        labels = ledger.labels_map()
        run.check(
            all(fact in labels for fact in pool),
            "a posted fact has no label",
        )
        run.check(ledger.counts()["pending"] == 0, "facts left pending")
        gc.collect()
        start = time.perf_counter()
        try:
            with recorder.op("bench.verify", "verify", trace):
                checked = service.verify()
            run.check(checked == len(pool), f"verify checked {checked} facts")
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            run.check(False, f"verify: {type(exc).__name__}: {exc}")
        run.verify_s = time.perf_counter() - start
    run.bytes_per_vote = store_bytes(store) / ledger.counts()["votes"]
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ledger.close()
    remove_store(store)
    run.spans = recorder.finish()
    return run


def _read_inprocess(run, recorder, service, rng, pool, sources, trace) -> None:
    """One closed-loop read; its time counts toward the reader's window."""
    n = len(run.read_s)
    kind, ident, known = read_target(rng, pool, sources, n)
    start = time.perf_counter()
    with recorder.op("bench.read", f"r{n}", trace):
        if kind == "fact":
            record = service.fact(ident)
        else:
            record = service.source_trust(ident)
    elapsed = time.perf_counter() - start
    run.read_s.append(elapsed)
    run.read_window_s += elapsed
    run.check(_read_ok(kind, record, known), f"read {kind} {ident}: {record!r}")


def _read_ok(kind: str, record: dict | None, known: bool) -> bool:
    if not known:
        return record is None
    if record is None:
        return False
    if kind == "fact":
        return record.get("status") == "corroborated"
    return record.get("trust") is not None


# ----------------------------------------------------------------------
# http-mixed
# ----------------------------------------------------------------------
HTTP_BASE_FACTS = 8_000
HTTP_WRITES_PER_S = 8.0


class Server:
    """``repro serve`` in a child process (traced through the launcher)."""

    def __init__(self, root: Path, store: Path, spans: Path | None, log: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve_args(store)]
        else:
            launcher = root / "perfbench" / "traced_serve.py"
            cmd = [sys.executable, str(launcher), str(spans), *serve_args(store)]
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError("server never became healthy")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """Drain with SIGTERM (kill after 30 s); returns the exit code."""
        if self.proc.returncode is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
            self._log.close()
        return self.proc.returncode


def _request(conn, method: str, path: str, body: bytes | None, headers: dict):
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def run_http_mixed(seed: int, seconds: float, trace: bool, workdir: Path, root: Path) -> Run:
    from repro.store import VoteLedger

    run = Run()
    writes = max(2, round(HTTP_WRITES_PER_S * seconds))
    matrix = restaurants(HTTP_BASE_FACTS + POOL_FACTOR * writes * BATCH_FACTS)
    base_rows, batches, facts = draw_inputs(
        matrix, HTTP_BASE_FACTS, writes, BATCH_FACTS, seed
    )
    sources = list(matrix.sources)
    freeze_inputs()
    spans_path = workdir / "server-spans.json" if trace else None
    server = store = None
    try:
        for k in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
                remove_store(store)
            store = workdir / f"http-mixed-{k}.db"
            started = time.perf_counter()
            with VoteLedger(store) as ledger:
                ledger.ingest_votes(base_rows)
            server = Server(root, store, spans_path, workdir / "server.log")
            server.wait_healthy()
            run.setups_s.append(time.perf_counter() - started)
            run.check(True, "set-up")
        recorder = Recorder()
        _drive_http(run, recorder, server.port, batches, facts, sources, seed, seconds, trace)
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            run.check(server.stop() == 0, "server did not stop cleanly")
    size = store_bytes(store)
    with VoteLedger(store) as ledger:
        counts = ledger.counts()
        run.bytes_per_vote = size / counts["votes"]
        run.check(
            counts["votes"] == len(base_rows) + run.votes,
            f"stored {counts['votes']} votes, acked {len(base_rows) + run.votes}",
        )
        run.check(counts["pending"] == 0, f"{counts['pending']} facts pending")
        service = make_service(ledger)
        gc.collect()
        start = time.perf_counter()
        try:
            with installed(recorder) if trace else contextlib.nullcontext():
                with recorder.op("bench.verify", "verify", trace):
                    checked = service.verify()
            run.check(checked == counts["facts"], f"verify checked {checked} facts")
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            run.check(False, f"verify: {type(exc).__name__}: {exc}")
        run.verify_s = time.perf_counter() - start
    remove_store(store)
    run.spans = recorder.finish()
    if trace:
        run.spans += read_chrome_trace(spans_path)
    return run


def _drive_http(run, recorder, port, batches, facts, sources, seed, seconds, trace):
    """Open-loop writer (this thread) beside a closed-loop reader thread."""
    pool = facts[:HTTP_BASE_FACTS]
    stop = threading.Event()

    def headers(trace_id: str, traced: bool) -> dict:
        out = {TRACE_ID_HEADER: trace_id, "Content-Type": "application/json"}
        if traced:
            out[TRACE_HEADER] = "1"
        return out

    def reader() -> None:
        rng = random.Random(f"{seed}:reads")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        n = 0
        try:
            while not stop.is_set():
                kind, ident, known = read_target(rng, pool, sources, n)
                path = f"/facts/{ident}" if kind == "fact" else f"/sources/{ident}/trust"
                start = time.perf_counter()
                with recorder.op("bench.read", f"r{n}", trace):
                    status, body = _request(conn, "GET", path, None, headers(f"r{n}", trace))
                run.read_s.append(time.perf_counter() - start)
                record = json.loads(body) if status == 200 else None
                run.check(
                    status == (200 if known else 404) and _read_ok(kind, record, known),
                    f"GET {path}: {status}",
                )
                n += 1
        except (OSError, http.client.HTTPException) as exc:
            run.check(False, f"reader: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    bodies = [
        json.dumps(
            {"votes": [{"fact": f, "source": s, "vote": v} for f, s, v in rows]}
        ).encode()
        for rows in batches
    ]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    thread = threading.Thread(target=reader, name="bench-reader")
    read_started = time.perf_counter()
    thread.start()
    try:
        started_all = last = time.perf_counter()
        for i, body in enumerate(bodies):
            due = started_all + i / HTTP_WRITES_PER_S
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = time.perf_counter()
            if start - due > seconds:
                run.skip(len(bodies) - i, f"writer fell {start - due:.1f}s behind at write {i}")
                break
            traced = trace and i % 2 == 0
            with recorder.op("bench.write", f"w{i}", traced):
                status, raw = _request(conn, "POST", "/votes", body, headers(f"w{i}", traced))
            last = time.perf_counter()
            run.write(last - due, start - due, traced)
            payload = json.loads(raw)
            ok = (
                status == 200
                and (payload.get("refresh") or {}).get("action") == "stream"
                and payload.get("votes_added") == len(batches[i])
            )
            if run.check(ok, f"POST /votes {i}: {status} {payload.get('reason')}"):
                run.votes += payload["votes_added"]
                pool.extend(payload["new_facts"])
        run.write_window_s = last - started_all
    finally:
        stop.set()
        thread.join(timeout=60)
        conn.close()
    run.read_window_s = time.perf_counter() - read_started


#: Every workload as ``run(seed, seconds, trace, workdir, root) -> Run``.
WORKLOADS = {
    "ingest-deep": functools.partial(run_inprocess, INGEST_DEEP),
    "ingest-wide": functools.partial(run_inprocess, INGEST_WIDE),
    "http-mixed": run_http_mixed,
}
