"""Streaming-native incremental core: vote in → bounded deltas out.

:class:`StreamEngine` runs one refresh epoch of the paper's incremental
algorithm *without* replaying or grafting any history: the whole carried
state is the per-source counter triples ``[correct, total, trust]`` plus
three scalars (:class:`StreamState`), and each epoch emits only its own
new label rows and trajectory rows (:class:`StreamDelta`).  It is the
only continuation core of :mod:`repro.serve`; the differential suite in
``tests/test_stream_oracle.py`` pins it bit for bit to an independent
epoch-replay reference on both backends.  See ``docs/streaming.md``.
"""

from repro.stream.engine import (
    REPLAY_CARRY_FORMAT,
    STREAM_METHODS,
    STREAM_STATE_FORMAT,
    CompactionPolicy,
    StreamDelta,
    StreamEngine,
    StreamState,
    counters_from_snapshot,
    stream_graft,
)

__all__ = [
    "CompactionPolicy",
    "REPLAY_CARRY_FORMAT",
    "STREAM_METHODS",
    "STREAM_STATE_FORMAT",
    "StreamDelta",
    "StreamEngine",
    "StreamState",
    "counters_from_snapshot",
    "stream_graft",
]
