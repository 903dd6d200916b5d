"""Streaming workload subsystem.

Bounded-memory trace ingestion (:mod:`repro.stream.sources`,
:mod:`repro.stream.ingest`) and windowed phase analysis
(:mod:`repro.stream.windows`): million-event allocation logs stream
through chunked compilation and segment replay without ever being
materialised, producing results byte-identical to the in-memory paths,
and a per-window Pareto analysis shows which configurations dominate each
traffic phase.  See ``docs/workloads.md``.
"""

from .ingest import (
    DEFAULT_SEGMENT_EVENTS,
    StreamOutcome,
    compile_stream,
    iter_event_chunks,
    stream_profile,
)
from .sources import (
    ProfilingLogSource,
    StreamFormatError,
    SyntheticSource,
    TraceFileSource,
    TraceSource,
    open_event_stream,
)
from .windows import (
    WindowSpec,
    WindowedAnalysis,
    windowed_exploration,
)

__all__ = [
    "DEFAULT_SEGMENT_EVENTS",
    "ProfilingLogSource",
    "StreamFormatError",
    "StreamOutcome",
    "SyntheticSource",
    "TraceFileSource",
    "TraceSource",
    "WindowSpec",
    "WindowedAnalysis",
    "compile_stream",
    "iter_event_chunks",
    "open_event_stream",
    "stream_profile",
    "windowed_exploration",
]
