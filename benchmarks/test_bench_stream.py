"""Streaming-core performance baseline — regenerates ``BENCH_stream.json``.

Streams the same vote batches into stores refreshed two ways — ``full``
(verify the whole log cold, then run the epoch) and ``stream`` (run the
epoch from the stored state) — and rewrites the machine-readable
baseline at the repository root.  The schema is documented in
:mod:`repro.eval.bench`; the CI stream-smoke validates the same schema
from a ``--quick`` run in seconds.

The carry/graft leg is timed here, not in the library: the epoch-replay
reference of the differential oracle (``tests/stream_oracle.py``) runs
the identical harness, and its record lands under ``reference`` with the
``stream_vs_incremental`` and ``state_ratio`` summary numbers.
"""

from __future__ import annotations

import json
import pathlib

from repro.eval.bench import (
    measure_stream_mode,
    run_stream_bench,
    stream_bench_workload,
    validate_stream_payload,
    write_stream_bench,
)

from tests.stream_oracle import ReplayReference

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def add_reference_leg(payload: dict, repeats: int, quick: bool) -> None:
    """Time the carry/graft reference and add it to ``payload``."""
    dataset, name, batches, batch_facts = stream_bench_workload(quick)
    reference = measure_stream_mode(
        dataset,
        name,
        "stream",
        batches,
        batch_facts,
        repeats=repeats,
        make_service=ReplayReference,
    )
    reference["mode"] = "incremental"
    stream = next(r for r in payload["records"] if r["mode"] == "stream")
    payload["reference"] = reference
    payload["summary"]["stream_vs_incremental"] = round(
        reference["seconds"] / stream["seconds"], 2
    )
    payload["summary"]["state_ratio"] = round(
        reference["state_bytes"] / stream["state_bytes"], 2
    )


def test_bench_stream_json(benchmark):
    def run():
        payload = run_stream_bench(repeats=3)
        add_reference_leg(payload, repeats=3, quick=False)
        return payload

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    validate_stream_payload(payload)
    summary = payload["summary"]
    # The stream core's claim: bounded per-refresh work must beat a
    # refresh that verifies the whole log cold by a wide margin
    # (acceptance: >= 4.5x) and never lose to carry/graft continuation.
    assert summary["stream_speedup"] >= 4.5, summary
    assert summary["stream_vs_incremental"] >= 1.0, summary
    # O(sources) continuation vs the replay carry's full history.
    assert summary["state_ratio"] >= 4.0, summary
    (REPO_ROOT / "BENCH_stream.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


def test_bench_stream_quick_schema(tmp_path):
    """The --stream --quick path (the CI smoke) emits a schema-valid file."""
    payload = write_stream_bench(
        tmp_path / "BENCH_stream.json", repeats=1, quick=True
    )
    validate_stream_payload(payload)
    assert (tmp_path / "BENCH_stream.json").exists()
    assert payload["summary"]["stream_speedup"] is not None
    add_reference_leg(payload, repeats=1, quick=True)
    assert payload["reference"]["actions"] == {"incremental": 3}
    assert payload["summary"]["state_ratio"] >= 4.0
