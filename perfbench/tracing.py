"""Outside-in span tracing for the traced benchmark run.

The program under test is not modified: :func:`installed` replaces the
public methods of each layer with thin wrappers for the duration of one
run and puts the original functions back afterwards.  A wrapper records a
span only inside a traced operation — one opened by the load generator
with :meth:`Recorder.op`, or an HTTP request carrying the
``X-Bench-Trace: 1`` header — so untraced operations of the same run pay
one context-variable lookup per wrapped call and nothing else.

Spans live in memory as ``(pid, id, parent, name, layer, start_ns,
end_ns, trace_id, tid, value)`` tuples and are written out at the end as
a Chrome trace-event file that Perfetto opens.  Timestamps come from
``time.monotonic_ns``, the system-wide ``CLOCK_MONOTONIC`` on Linux, so
the spans of the benchmark process and of the server process share one
time line and join by trace id.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import threading
import time
from collections.abc import Callable, Iterator

#: Span layers, named after the modules they wrap.
HTTP, SERVICE, LEDGER, ENGINE, CORE, LOADGEN = (
    "serve.http",
    "serve.service",
    "store.ledger",
    "stream.engine",
    "core",
    "bench.loadgen",
)
PROGRAM_LAYERS = (HTTP, SERVICE, LEDGER, ENGINE, CORE)

#: Request headers the HTTP wrapper reads.
TRACE_HEADER = "X-Bench-Trace"
TRACE_ID_HEADER = "X-Trace-Id"


def _state_bytes(result) -> int | None:
    """Size of the continuation state ``load_session_state`` returned."""
    if result is None:
        return None
    return len(json.dumps(result[1], separators=(",", ":")))


def _trajectory_rows(result: dict) -> int:
    return result["rows_appended"] + result["rows_backfilled"]


def _trajectory_len(result: dict | None) -> int | None:
    return None if result is None else len(result["trajectory"])


def targets() -> list[tuple[type, str, str, Callable | None]]:
    """``(class, method, layer, measure)`` for every wrapped method.

    ``measure`` turns the call's return value into the span's ``value``;
    it runs when the spans are written out, never inside a timed call.
    """
    from repro.core.selection import IncEstHeu
    from repro.core.session import CorroborationSession
    from repro.serve.http import CorroborationRequestHandler
    from repro.serve.service import CorroborationService
    from repro.store.ledger import VoteLedger
    from repro.stream.engine import StreamEngine

    service = [
        "apply_votes",
        "guarded_refresh",
        "refresh",
        "verify",
        "fact",
        "source_trust",
    ]
    ledger = [
        "ingest_votes",
        "pending_facts",
        "load_session_state",
        "max_batch_id",
        "sources_up_to_batch",
        "votes_on",
        "record_stream_epoch",
        "fact_record",
        "source_record",
        "label_row",
        "labels_map",
        "list_epochs",
        "facts_in_epoch",
        "counts",
    ]
    measures = {
        "load_session_state": _state_bytes,
        "record_stream_epoch": _trajectory_rows,
        "source_record": _trajectory_len,
    }
    return (
        [(CorroborationRequestHandler, m, HTTP, None) for m in ("do_GET", "do_POST")]
        + [(CorroborationService, m, SERVICE, None) for m in service]
        + [(VoteLedger, m, LEDGER, measures.get(m)) for m in ledger]
        + [
            (StreamEngine, "run_epoch", ENGINE, None),
            (CorroborationSession, "step", CORE, None),
            (IncEstHeu, "select", CORE, None),
        ]
    )


#: ``(trace_id, span_id)`` of the innermost open span of the current
#: thread; ``None`` outside a traced operation.
_CURRENT: contextvars.ContextVar[tuple[str, int] | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Collects spans in memory; one per process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(
        self, name: str, layer: str, trace_id: str | None = None
    ) -> Iterator[None]:
        """Record one span; a root span when ``trace_id`` is given."""
        if trace_id is None:
            trace_id, parent_id = _CURRENT.get()
        else:
            parent_id = None
        span_id = next(self._ids)
        token = _CURRENT.set((trace_id, span_id))
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            _CURRENT.reset(token)
            self.spans.append(
                [self.pid, span_id, parent_id, name, layer, start, end,
                 trace_id, threading.get_ident(), None]
            )

    def op(self, name: str, trace_id: str, traced: bool = True):
        """A load-generator operation; only traced ones record spans."""
        if not traced:
            return contextlib.nullcontext()
        return self.span(name, LOADGEN, trace_id)

    def _wrap(self, fn: Callable, name: str, layer: str, measure) -> Callable:
        spans, ids = self.spans, self._ids
        pid = self.pid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is None:
                return fn(*args, **kwargs)
            trace_id, parent_id = parent
            span_id = next(ids)
            token = _CURRENT.set((trace_id, span_id))
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                _CURRENT.reset(token)
                spans.append(
                    [pid, span_id, parent_id, name, layer, start, end,
                     trace_id, threading.get_ident(),
                     None if measure is None else (measure, result)]
                )

        return wrapper

    def _wrap_http(self, fn: Callable, name: str) -> Callable:
        """``do_GET``/``do_POST``: a root span for requests asking for one."""

        @functools.wraps(fn)
        def wrapper(handler):
            if handler.headers.get(TRACE_HEADER) != "1":
                return fn(handler)
            trace_id = handler.headers.get(TRACE_ID_HEADER) or "-"
            with self.span(name, HTTP, trace_id):
                return fn(handler)

        return wrapper

    def finish(self) -> list[list]:
        """Resolve deferred measurements; returns the span list."""
        for span in self.spans:
            value = span[9]
            if isinstance(value, tuple):
                measure, result = value
                span[9] = None if result is None else measure(result)
        return self.spans


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every target method for the block; restore them afterwards."""
    saved = []
    try:
        for cls, method, layer, measure in targets():
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            name = f"{cls.__name__}.{method}"
            if layer == HTTP:
                wrapper = recorder._wrap_http(original, name)
            else:
                wrapper = recorder._wrap(original, name, layer, measure)
            setattr(cls, method, wrapper)
        yield
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)


# ----------------------------------------------------------------------
# Chrome trace-event files (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def write_chrome_trace(spans: list[list], path: os.PathLike) -> None:
    events = [
        {
            "name": name,
            "cat": layer,
            "ph": "X",
            "ts": start / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": {"span": sid, "parent": parent, "trace_id": trace_id,
                     "value": value},
        }
        for pid, sid, parent, name, layer, start, end, trace_id, tid, value
        in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def read_chrome_trace(path: os.PathLike) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for e in events:
        args = e["args"]
        start = round(e["ts"] * 1000)
        spans.append(
            [e["pid"], args["span"], args["parent"], e["name"], e["cat"],
             start, start + round(e["dur"] * 1000), args["trace_id"],
             e["tid"], args["value"]]
        )
    return spans
