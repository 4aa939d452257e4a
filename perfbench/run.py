"""Run one benchmark workload against the corroboration service.

    python3 perfbench/run.py --workload ingest-deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``).  The lines before it are a readable
summary.  Stores and traces go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from analysis import SpanTree, shares
from tracing import write_chrome_trace
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, ROOT
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:14.6g} {unit}")
    print(f"{'failed_frac':28} {run.failed / run.attempted:14.6g} ratio")
    for message in run.failures[:10]:
        print(f"FAILED: {message}", file=sys.stderr)
    if args.trace:
        stem = f"{args.workload}-seed{args.seed}"
        write_chrome_trace(run.spans, OUT / f"trace-{stem}.json")
        tree = SpanTree(run.spans)
        shape = {op: shares(tree, f"bench.{op}") for op in ("write", "read", "verify")}
        (OUT / f"shape-{stem}.json").write_text(json.dumps(shape, indent=2) + "\n")
        for op, layer_shares in shape.items():
            print(f"self-time shares of {op}: {layer_shares}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
