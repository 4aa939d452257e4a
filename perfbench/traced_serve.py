"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/traced_serve.py SPANS.json serve --store STORE ...

Everything after ``SPANS.json`` is handed to the ``repro`` command line
unchanged.  Requests that carry ``X-Bench-Trace: 1`` are traced; the
spans are written to ``SPANS.json`` as a Chrome trace-event file once the
server has stopped (SIGTERM drains it as usual).
"""

from __future__ import annotations

import sys

from tracing import Recorder, installed, write_chrome_trace


def main(argv: list[str]) -> int:
    spans_path, *cli_args = argv
    from repro.cli import main as repro_main

    recorder = Recorder()
    with installed(recorder):
        code = repro_main(cli_args)
    write_chrome_trace(recorder.finish(), spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
