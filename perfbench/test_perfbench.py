"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Smoke runs use shrunken workloads so the whole file runs in about a
minute; they check that every workload runs clean, that the metric names
match ``BENCHMARK.json``, and that tracing leaves the program untouched.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import analysis  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _tiny(spec: workloads.InProcessSpec) -> workloads.InProcessSpec:
    return dataclasses.replace(spec, base_facts=300, reads=60)


@pytest.fixture(scope="module", params=["ingest-deep", "ingest-wide", "http-mixed"])
def smoke(request, tmp_path_factory, monkeypatch_module):
    """One untraced and one traced tiny run of each workload."""
    name = request.param
    runs = {}
    for trace in (False, True):
        workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
        if name == "http-mixed":
            monkeypatch_module.setattr(workloads, "HTTP_BASE_FACTS", 400)
            run = workloads.run_http_mixed(3, 1.0, trace, workdir, ROOT)
        else:
            spec = _tiny(
                workloads.INGEST_DEEP if name == "ingest-deep" else workloads.INGEST_WIDE
            )
            run = workloads.run_inprocess(spec, 3, 5.0, trace, workdir, ROOT)
        runs[trace] = run
    return runs


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as patch:
        yield patch


def test_smoke_runs_are_correct(smoke):
    for run in smoke.values():
        assert run.failures == []
        assert run.failed == 0
        assert run.attempted > 0


def test_metric_names_match_benchmark_json(smoke):
    assert list(smoke[False].end_to_end()) == END_TO_END
    assert list(smoke[True].per_layer()) == PER_LAYER


def test_metric_values_are_finite_numbers(smoke):
    values = [v for v, _ in smoke[False].end_to_end().values()]
    values += [v for v, _ in smoke[True].per_layer().values()]
    assert all(isinstance(v, (int, float)) and v == v for v in values)


def test_untraced_run_records_no_spans(smoke):
    assert smoke[False].spans == []


def test_wrappers_are_removed_after_the_run():
    before = {
        (cls, name): cls.__dict__[name] for cls, name, _, _ in tracing.targets()
    }
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        for (cls, name), original in before.items():
            assert cls.__dict__[name] is not original
            assert cls.__dict__[name].__wrapped__ is original
    for (cls, name), original in before.items():
        assert cls.__dict__[name] is original


def test_wrappers_are_removed_when_the_block_raises():
    cls, name, _, _ = tracing.targets()[0]
    original = cls.__dict__[name]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Recorder()):
            raise RuntimeError("boom")
    assert cls.__dict__[name] is original


def test_wrappers_record_only_inside_traced_operations():
    from repro.store import VoteLedger

    recorder = tracing.Recorder()
    with tracing.installed(recorder), VoteLedger(":memory:") as ledger:
        ledger.counts()
        with recorder.op("bench.read", "t1", traced=False):
            ledger.counts()
        with recorder.op("bench.read", "t2"):
            ledger.counts()
    names = [(s[analysis.NAME], s[analysis.TRACE]) for s in recorder.finish()]
    assert names == [("VoteLedger.counts", "t2"), ("bench.read", "t2")]


def test_chrome_trace_round_trip(tmp_path):
    spans = [
        [1, 1, None, "bench.write", tracing.LOADGEN, 1_000, 9_000, "w0", 7, None],
        [1, 2, 1, "VoteLedger.ingest_votes", tracing.LEDGER, 2_000, 5_000, "w0", 7, 3],
    ]
    tracing.write_chrome_trace(spans, tmp_path / "t.json")
    assert tracing.read_chrome_trace(tmp_path / "t.json") == spans


def test_self_time_subtracts_the_union_of_children():
    op = [1, 1, None, "bench.read", tracing.LOADGEN, 0, 100, "r", 1, None]
    spans = [
        op,
        [1, 2, 1, "a", tracing.SERVICE, 10, 40, "r", 1, None],
        [1, 3, 1, "b", tracing.SERVICE, 30, 60, "r", 1, None],
        # a root span of another process joins by trace id
        [2, 1, None, "c", tracing.HTTP, 70, 80, "r", 5, None],
    ]
    tree = analysis.SpanTree(spans)
    assert tree.self_ns(op) == 100 - 50 - 10


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_command_prints_the_result_line_last():
    command = BENCHMARK["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "http-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
