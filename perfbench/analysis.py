"""Per-layer metrics derived from the spans of one traced run.

Every load-generator operation (``bench.write``, ``bench.read``,
``bench.verify``) is a root span.  Program spans hang below it: in the
same process by parent id, and across the process boundary by trace id
(the HTTP handler's root span carries the trace id the client sent).
A span's *self time* is its duration minus the part of it that its child
spans cover; the self time of an operation span is the time that no
wrapped layer accounts for.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import LOADGEN, PROGRAM_LAYERS

PID, ID, PARENT, NAME, LAYER, START, END, TRACE, TID, VALUE = range(10)

#: Ledger reads that make up the replay inside ``verify``.
VERIFY_READS = {
    "VoteLedger.labels_map",
    "VoteLedger.list_epochs",
    "VoteLedger.facts_in_epoch",
    "VoteLedger.votes_on",
    "VoteLedger.sources_up_to_batch",
}
#: Ledger reads that build the epoch's delta during a refresh.
DELTA_READS = {"VoteLedger.sources_up_to_batch", "VoteLedger.votes_on"}


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _ms(ns: float) -> float:
    return ns / 1e6


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanTree:
    """Parent/child index over the merged spans of both processes."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: dict[tuple, list[list]] = defaultdict(list)
        ops = {s[TRACE]: s for s in spans if s[LAYER] == LOADGEN}
        for s in spans:
            if s[PARENT] is not None:
                self.children[(s[PID], s[PARENT])].append(s)
            elif s[LAYER] != LOADGEN and s[TRACE] in ops:
                op = ops[s[TRACE]]
                self.children[(op[PID], op[ID])].append(s)
        self.ops = [s for s in spans if s[LAYER] == LOADGEN]

    def kids(self, span: list) -> list[list]:
        return self.children.get((span[PID], span[ID]), [])

    def self_ns(self, span: list) -> int:
        intervals = [(c[START], c[END]) for c in self.kids(span)]
        return span[END] - span[START] - _covered(span[START], span[END], intervals)

    def subtree(self, span: list) -> list[list]:
        out, stack = [], [span]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self.kids(node))
        return out

    def ops_named(self, name: str) -> list[list]:
        return [s for s in self.ops if s[NAME] == name]


def _dur(span: list) -> int:
    return span[END] - span[START]


def _sum(spans: list[list], names: set[str]) -> tuple[int, int]:
    """(total duration, count) of the spans called one of ``names``."""
    hits = [s for s in spans if s[NAME] in names]
    return sum(_dur(s) for s in hits), len(hits)


def _one(spans: list[list], names: set[str]) -> list | None:
    for s in spans:
        if s[NAME] in names:
            return s
    return None


def shares(tree: SpanTree, op_name: str) -> dict[str, float]:
    """Each layer's self time as a share of the ``op_name`` operations."""
    totals = defaultdict(int)
    wall = 0
    for op in tree.ops_named(op_name):
        wall += _dur(op)
        for s in tree.subtree(op):
            layer = "unattributed" if s[LAYER] == LOADGEN else s[LAYER]
            totals[layer] += tree.self_ns(s)
    if not wall:
        return {}
    return {
        layer: round(totals[layer] / wall, 4)
        for layer in (*PROGRAM_LAYERS, "unattributed")
    }


def layer_metrics(
    spans: list[list],
    *,
    write_lags_s: list[float],
    traced_write_s: list[float],
    untraced_write_s: list[float],
    bytes_per_vote: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    tree = SpanTree(spans)
    per = defaultdict(list)
    for op in tree.ops_named("bench.write"):
        sub = tree.subtree(op)
        apply = _one(sub, {"CorroborationService.apply_votes"})
        refresh = _one(sub, {"CorroborationService.refresh"})
        per["http.write_overhead_ms"].append(_ms(_dur(op) - _dur(apply)))
        per["service.apply_self_ms"].append(
            _ms(sum(tree.self_ns(s) for s in tree.subtree(apply)
                    if s[LAYER] == "serve.service"))
        )
        per["ledger.ingest_ms"].append(_ms(_sum(sub, {"VoteLedger.ingest_votes"})[0]))
        per["ledger.pending_ms"].append(_ms(_sum(sub, {"VoteLedger.pending_facts"})[0]))
        delta_ns, delta_calls = _sum(tree.subtree(refresh), DELTA_READS)
        per["ledger.delta_read_ms"].append(_ms(delta_ns))
        per["ledger.delta_read_calls"].append(delta_calls)
        persist = [s for s in sub if s[NAME] == "VoteLedger.record_stream_epoch"]
        per["ledger.persist_ms"].append(_ms(sum(_dur(s) for s in persist)))
        per["ledger.trajectory_rows"].append(sum(s[VALUE] or 0 for s in persist))
        loads = [s for s in sub if s[NAME] == "VoteLedger.load_session_state"]
        per["ledger.state_load_ms"].append(_ms(sum(_dur(s) for s in loads)))
        per["ledger.state_bytes"].append(max(s[VALUE] or 0 for s in loads))
        per["stream.epoch_ms"].append(_ms(_sum(sub, {"StreamEngine.run_epoch"})[0]))
        per["core.rounds"].append(_sum(sub, {"CorroborationSession.step"})[1])
        per["core.select_ms"].append(_ms(_sum(sub, {"IncEstHeu.select"})[0]))
    read_waits = []
    for op in tree.ops_named("bench.read"):
        sub = tree.subtree(op)
        query = _one(sub, {"CorroborationService.fact",
                           "CorroborationService.source_trust"})
        record = _one(sub, {"VoteLedger.fact_record", "VoteLedger.source_record"})
        per["http.read_overhead_ms"].append(_ms(_dur(op) - _dur(query)))
        read_waits.append(_ms(_dur(query) - _dur(record)))
        if record[NAME] == "VoteLedger.fact_record":
            per["ledger.fact_read_ms"].append(_ms(_dur(record)))
        else:
            per["ledger.trust_read_ms"].append(_ms(_dur(record)))
            if record[VALUE] is not None:
                per["ledger.trajectory_len"].append(record[VALUE])
    (verify,) = tree.ops_named("bench.verify")
    vsub = tree.subtree(verify)
    ops = tree.ops
    units = {
        "http.read_overhead_ms": "ms", "http.write_overhead_ms": "ms",
        "service.apply_self_ms": "ms", "ledger.ingest_ms": "ms",
        "ledger.pending_ms": "ms", "ledger.delta_read_ms": "ms",
        "ledger.delta_read_calls": "count", "ledger.persist_ms": "ms",
        "ledger.trajectory_rows": "count", "ledger.state_load_ms": "ms",
        "ledger.state_bytes": "bytes", "ledger.fact_read_ms": "ms",
        "ledger.trust_read_ms": "ms", "ledger.trajectory_len": "count",
        "stream.epoch_ms": "ms", "core.rounds": "count", "core.select_ms": "ms",
    }
    out = {name: (statistics.median(per[name]), unit) for name, unit in units.items()}
    out["service.read_wait_p95_ms"] = (percentile(read_waits, 95), "ms")
    out["ledger.verify_read_ms"] = (_ms(_sum(vsub, VERIFY_READS)[0]), "ms")
    out["ledger.bytes_per_vote"] = (bytes_per_vote, "B/vote")
    out["core.verify_compute_ms"] = (
        _ms(_sum(vsub, {"CorroborationSession.step"})[0]), "ms"
    )
    out["loadgen.write_lag_p95_ms"] = (percentile(write_lags_s, 95) * 1e3, "ms")
    out["unattributed_frac"] = (
        sum(tree.self_ns(op) for op in ops) / sum(_dur(op) for op in ops),
        "ratio",
    )
    out["trace.overhead_frac"] = (
        statistics.median(traced_write_s) / statistics.median(untraced_write_s) - 1,
        "ratio",
    )
    return out
