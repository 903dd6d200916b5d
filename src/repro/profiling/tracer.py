"""Allocation trace container and validation.

:class:`AllocationTrace` wraps an ordered list of
:class:`~repro.profiling.events.AllocationEvent` with the consistency checks
and summary statistics the exploration relies on (well-formedness, live-byte
profile, size histogram, hot sizes).

Because the same trace is replayed once per explored configuration, the
trace caches its columnar form, :meth:`AllocationTrace.compiled` — the
:class:`~repro.profiling.compiled.CompiledTrace` the fast replay loop and
the process-pool backend consume.  The compile pass also hashes the events,
so :meth:`AllocationTrace.fingerprint` (the content hash keying the result
store and artefact provenance) is read off the same cached object.

The cache is invalidated by :meth:`append`/:meth:`extend` (or an
assignment to :attr:`events`).  Mutating the ``events`` list in place
bypasses the invalidation — call :meth:`invalidate_caches` afterwards if
you must do that.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .compiled import CompiledTrace, compile_trace
from .events import AllocationEvent, EventKind


class TraceError(ValueError):
    """Raised when a trace is malformed (free-before-alloc, double free...)."""


@dataclass
class TraceSummary:
    """Aggregate statistics of a trace (used by reports and workload tests)."""

    event_count: int
    alloc_count: int
    free_count: int
    total_requested_bytes: int
    peak_live_bytes: int
    peak_live_blocks: int
    distinct_sizes: int
    max_size: int
    min_size: int
    leaked_blocks: int

    def as_dict(self) -> dict:
        return {
            "event_count": self.event_count,
            "alloc_count": self.alloc_count,
            "free_count": self.free_count,
            "total_requested_bytes": self.total_requested_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "peak_live_blocks": self.peak_live_blocks,
            "distinct_sizes": self.distinct_sizes,
            "max_size": self.max_size,
            "min_size": self.min_size,
            "leaked_blocks": self.leaked_blocks,
        }


class AllocationTrace:
    """Ordered sequence of allocation events produced by one application run.

    A trace can be constructed from an event list (the usual case) or from a
    :class:`~repro.profiling.compiled.CompiledTrace` via
    :meth:`from_compiled`; in the latter case the event objects are only
    materialised on first access to :attr:`events` (replay and length
    queries never need them), which is what keeps worker-process traces
    cheap.
    """

    def __init__(
        self, events: list[AllocationEvent] | None = None, name: str = "trace"
    ) -> None:
        self._events: list[AllocationEvent] | None = (
            events if events is not None else []
        )
        self.name = name
        self._compiled: CompiledTrace | None = None

    @property
    def events(self) -> list[AllocationEvent]:
        """The event list (materialised from the compiled form on demand)."""
        if self._events is None:
            assert self._compiled is not None
            self._events = self._compiled.events()
        return self._events

    @events.setter
    def events(self, value: list[AllocationEvent]) -> None:
        self._events = value
        self.invalidate_caches()

    def __len__(self) -> int:
        if self._events is None and self._compiled is not None:
            return len(self._compiled)
        return len(self.events)

    def __iter__(self) -> Iterator[AllocationEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> AllocationEvent:
        return self.events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationTrace):
            return NotImplemented
        return self.name == other.name and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"AllocationTrace(name={self.name!r}, events=<{len(self)} events>)"

    def append(self, event: AllocationEvent) -> None:
        self.events.append(event)
        self.invalidate_caches()

    def extend(self, events: Iterable[AllocationEvent]) -> None:
        self.events.extend(events)
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop the cached compiled form (and its fingerprint) after a mutation."""
        self._compiled = None

    # -- compiled (columnar) form ------------------------------------------

    def compiled(self) -> CompiledTrace:
        """The columnar form of this trace (computed once, then cached).

        The compiled form is what the profiler's fast replay loop iterates
        and what the process-pool backend ships to workers; it carries the
        trace's :meth:`fingerprint` so a receiver can key caches without
        rehashing the events.
        """
        if self._compiled is None:
            self._compiled = compile_trace(self.events, name=self.name)
        return self._compiled

    @classmethod
    def from_compiled(cls, compiled: CompiledTrace) -> "AllocationTrace":
        """Wrap a compiled trace without materialising event objects.

        The returned trace replays, measures ``len`` and fingerprints
        without ever touching :attr:`events`; accessing :attr:`events`
        reconstructs the objects (tags are not preserved by the compiled
        form).
        """
        trace = cls.__new__(cls)
        trace._events = None
        trace.name = compiled.name
        trace._compiled = compiled
        return trace

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check well-formedness; raises :class:`TraceError` on violations.

        Rules: a FREE must refer to a previously allocated, not-yet-freed
        request id; an ALLOC must introduce a fresh id; timestamps must be
        non-decreasing.
        """
        live: set[int] = set()
        seen: set[int] = set()
        last_timestamp = 0
        for index, event in enumerate(self.events):
            if event.timestamp < last_timestamp:
                raise TraceError(
                    f"event {index}: timestamp {event.timestamp} goes backwards "
                    f"(previous {last_timestamp})"
                )
            last_timestamp = event.timestamp
            if event.is_alloc:
                if event.request_id in seen:
                    raise TraceError(
                        f"event {index}: request id {event.request_id} allocated twice"
                    )
                seen.add(event.request_id)
                live.add(event.request_id)
            else:
                if event.request_id not in seen:
                    raise TraceError(
                        f"event {index}: free of never-allocated id {event.request_id}"
                    )
                if event.request_id not in live:
                    raise TraceError(
                        f"event {index}: double free of id {event.request_id}"
                    )
                live.remove(event.request_id)

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of the event stream (hex SHA-256).

        Two traces with the same events — whatever their :attr:`name` — map
        to the same fingerprint, so a renamed copy of a workload trace still
        hits the persistent result store.  The fingerprint covers everything
        that can influence profiling (kind, request id, size, timestamp and
        tag of every event, in order); it is the trace component of the
        result-store key and of result-artefact provenance.

        The hash is computed by the compile pass and cached with
        :meth:`compiled`; :meth:`append`/:meth:`extend` invalidate it.  A
        compiled form without a fingerprint (a
        :meth:`~repro.profiling.compiled.CompiledTrace.prefix`) is
        recompiled from its events on demand.
        """
        if not self.compiled().fingerprint:
            self._compiled = compile_trace(self.events, name=self.name)
        return self._compiled.fingerprint

    # -- statistics -----------------------------------------------------------

    def summary(self) -> TraceSummary:
        """Compute aggregate statistics (single pass)."""
        live_bytes = 0
        live_blocks = 0
        peak_live_bytes = 0
        peak_live_blocks = 0
        total_requested = 0
        alloc_count = 0
        free_count = 0
        sizes: Counter[int] = Counter()
        size_of: dict[int, int] = {}
        for event in self.events:
            if event.is_alloc:
                alloc_count += 1
                total_requested += event.size
                sizes[event.size] += 1
                size_of[event.request_id] = event.size
                live_bytes += event.size
                live_blocks += 1
                peak_live_bytes = max(peak_live_bytes, live_bytes)
                peak_live_blocks = max(peak_live_blocks, live_blocks)
            else:
                free_count += 1
                live_bytes -= size_of.get(event.request_id, 0)
                live_blocks -= 1
        return TraceSummary(
            event_count=len(self.events),
            alloc_count=alloc_count,
            free_count=free_count,
            total_requested_bytes=total_requested,
            peak_live_bytes=peak_live_bytes,
            peak_live_blocks=peak_live_blocks,
            distinct_sizes=len(sizes),
            max_size=max(sizes) if sizes else 0,
            min_size=min(sizes) if sizes else 0,
            leaked_blocks=alloc_count - free_count,
        )

    def size_histogram(self) -> dict[int, int]:
        """Allocation count per requested size (descending by count)."""
        counts = Counter(event.size for event in self.events if event.is_alloc)
        return dict(counts.most_common())

    def hot_sizes(self, top: int = 5) -> list[int]:
        """The ``top`` most frequently allocated sizes (most frequent first).

        These are the sizes the paper's methodology gives dedicated pools to.
        """
        if top <= 0:
            raise ValueError(f"top must be positive, got {top}")
        counts = Counter(event.size for event in self.events if event.is_alloc)
        return [size for size, _count in counts.most_common(top)]

    def live_profile(self) -> list[tuple[int, int]]:
        """(timestamp, live bytes) after every event — the footprint lower bound."""
        profile: list[tuple[int, int]] = []
        live_bytes = 0
        size_of: dict[int, int] = {}
        for event in self.events:
            if event.is_alloc:
                size_of[event.request_id] = event.size
                live_bytes += event.size
            else:
                live_bytes -= size_of.get(event.request_id, 0)
            profile.append((event.timestamp, live_bytes))
        return profile

    def slice(self, start: int, stop: int) -> "AllocationTrace":
        """Return a sub-trace of events[start:stop] (no validation)."""
        return AllocationTrace(events=self.events[start:stop], name=f"{self.name}[{start}:{stop}]")
