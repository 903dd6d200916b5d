"""Trace file I/O.

Traces can be saved to and loaded from a compact line-oriented text format so
that expensive workload generation runs once and the exact same trace is fed
to every configuration (and can be shipped alongside experiment results).

Format: one event per line, ``A <id> <size> <timestamp> [tag]`` for
allocations and ``F <id> <timestamp> [tag]`` for frees; ``#`` starts a
comment.  A ``.gz`` path is gzipped on write and on read.  The reader is
:class:`~repro.stream.sources.TraceFileSource`; :func:`load_trace` collects
its events into a whole trace.
"""

from __future__ import annotations

from pathlib import Path

from ..profiling.tracer import AllocationTrace
from ..stream.sources import TraceFileSource, TraceFormatError, open_text  # noqa: F401  (re-exported)


def save_trace(trace: AllocationTrace, path: str | Path) -> int:
    """Write ``trace`` to ``path``; returns the number of lines written."""
    lines = 0
    with open_text(path, "w") as handle:
        handle.write(f"# trace {trace.name}\n")
        lines += 1
        for event in trace:
            if event.is_alloc:
                record = f"A {event.request_id} {event.size} {event.timestamp}"
            else:
                record = f"F {event.request_id} {event.timestamp}"
            if event.tag:
                record += f" {event.tag}"
            handle.write(record + "\n")
            lines += 1
    return lines


def load_trace(path: str | Path, validate: bool = True) -> AllocationTrace:
    """Read a whole trace written by :func:`save_trace`.

    A whole-file load promises a complete trace, so a malformed torn tail,
    which a streaming :class:`TraceFileSource` skips, raises
    :class:`TraceFormatError` here.
    """
    source = TraceFileSource(path)
    events = list(source.events())
    if source.tail_error is not None:
        raise source.tail_error
    trace = AllocationTrace(events, name=source.name)
    if validate:
        trace.validate()
    return trace


def round_trip_equal(first: AllocationTrace, second: AllocationTrace) -> bool:
    """True when two traces contain the same events in the same order."""
    return first.events == second.events
