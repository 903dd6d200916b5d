"""Chunked compilation and segment replay: the streaming pipeline core.

One segment at a time: a chunk of events is compiled into a columnar
:class:`~repro.profiling.compiled.CompiledTrace` segment by the
carry-state :class:`~repro.profiling.compiled.SegmentedTraceCompiler`,
replayed through a :class:`~repro.profiling.profiler.SegmentReplaySession`
(which keeps pool state across segment boundaries), and then dropped.
Peak memory is bounded by the segment size plus the live allocation set —
never by the stream length — while the produced
:class:`~repro.profiling.metrics.ProfileResult` is byte-identical to a
whole-trace compile-and-replay (``tests/test_stream.py`` proves it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..allocator.composed import ComposedAllocator
from ..memhier.energy import EnergyModel
from ..memhier.mapping import PoolMapping
from ..profiling.compiled import CompiledTrace, SegmentedTraceCompiler
from ..profiling.events import AllocationEvent
from ..profiling.metrics import ProfileResult
from ..profiling.profiler import Profiler, SegmentReplaySession

#: Default events per compiled segment.  Large enough that the per-segment
#: replay setup cost vanishes, small enough that a segment's columns stay
#: comfortably inside cache-friendly territory.
DEFAULT_SEGMENT_EVENTS = 65536


def iter_event_chunks(
    events: Iterable[AllocationEvent], segment_events: int
) -> Iterator[list[AllocationEvent]]:
    """Split an event iterable into lists of at most ``segment_events``."""
    if segment_events < 1:
        raise ValueError("segment_events must be >= 1")
    chunk: list[AllocationEvent] = []
    for event in events:
        chunk.append(event)
        if len(chunk) >= segment_events:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _event_iterator(source) -> Iterator[AllocationEvent]:
    """Events of a :class:`TraceSource`, or of any plain event iterable."""
    events = getattr(source, "events", None)
    if callable(events):
        return iter(events())
    return iter(source)


def compile_stream(
    source,
    name: str | None = None,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    compiler: SegmentedTraceCompiler | None = None,
) -> Iterator[CompiledTrace]:
    """Compile a source into :class:`CompiledTrace` segments, lazily.

    ``source`` is a :class:`~repro.stream.sources.TraceSource` or any
    iterable of events.  Pass your own ``compiler`` to read the stream
    fingerprint and event totals after the generator is exhausted; the
    concatenated segment columns equal a one-shot
    :func:`~repro.profiling.compiled.compile_trace` of the same events.
    """
    if compiler is None:
        compiler = SegmentedTraceCompiler(name or getattr(source, "name", "stream"))
    for chunk in iter_event_chunks(_event_iterator(source), segment_events):
        yield compiler.feed(chunk)


@dataclass
class StreamOutcome:
    """What one streamed profiling run produced.

    ``fingerprint`` is the same content hash
    :meth:`~repro.profiling.tracer.AllocationTrace.fingerprint` would give
    the full trace, so streamed results key the result store and artefact
    provenance identically to in-memory runs.
    """

    result: ProfileResult
    fingerprint: str
    events: int
    segments: int
    oom_failures: int


def stream_profile(
    source,
    mapping: PoolMapping,
    allocator: ComposedAllocator,
    energy_model: EnergyModel | None = None,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    configuration_id: str = "",
    name: str | None = None,
) -> StreamOutcome:
    """Profile a streamed trace in bounded memory.

    The streaming counterpart of :meth:`repro.profiling.profiler.Profiler.run`:
    compiles and replays one segment at a time, so only one segment's
    columns (plus the allocator's live state) are ever resident.  The
    returned result is byte-identical to profiling the fully materialised
    trace through the same allocator, and is named as
    :func:`~repro.workloads.traces.load_trace` names that trace: ``name``,
    else the source's name once the stream is consumed.
    """
    profiler = Profiler(mapping, energy_model=energy_model)
    compiler = SegmentedTraceCompiler(name or getattr(source, "name", "stream"))
    session = SegmentReplaySession(profiler, allocator)
    for segment in compile_stream(
        source, segment_events=segment_events, compiler=compiler
    ):
        session.replay_segment(segment)
    # A source may learn its name from the stream itself (a trace file's
    # ``# trace NAME`` header), so read it once the stream is consumed.
    session.name = name or getattr(source, "name", "stream")
    result = session.finish(configuration_id)
    return StreamOutcome(
        result=result,
        fingerprint=compiler.fingerprint(),
        events=compiler.events_seen,
        segments=compiler.segments,
        oom_failures=session.oom_failures,
    )
