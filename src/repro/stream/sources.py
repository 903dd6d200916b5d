"""Bounded-memory event sources for streaming trace ingestion.

The paper's profiling step produces raw allocation logs that "can reach
Gigabytes for one single configuration" — far beyond what the in-memory
:class:`~repro.profiling.tracer.AllocationTrace` container was built for.
This module is the input half of the streaming pipeline: every source
yields :class:`~repro.profiling.events.AllocationEvent` objects one at a
time from a file, a compressed archive or a generator, never holding more
than one line (or one live-set entry) in memory.  The other half —
chunked compilation and segment replay — lives in
:mod:`repro.stream.ingest`.

Three concrete sources cover the formats the repository already writes:

* :class:`TraceFileSource` — the ``A``/``F`` trace text format of
  :mod:`repro.workloads.traces` (plain, gzipped, or stdin);
* :class:`ProfilingLogSource` — the enriched ``E``-record echo lines of
  :mod:`repro.profiling.logformat` profiling logs;
* :class:`SyntheticSource` — a seeded server-style generator used by the
  scale benchmark to stream millions of events without a file at all.
"""

from __future__ import annotations

import gzip
import random
import sys
from pathlib import Path
from typing import IO, Iterator, Protocol, runtime_checkable

from ..profiling.events import AllocationEvent, EventKind, alloc, free
from ..profiling.logformat import EVENT_PREFIX
from ..profiling.parser import numbered_lines


class TraceFormatError(ValueError):
    """Raised when a trace file line cannot be parsed."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


#: The streaming name of :class:`TraceFormatError` (one class, two names).
StreamFormatError = TraceFormatError


@runtime_checkable
class TraceSource(Protocol):
    """Anything that can stream allocation events in order.

    A source is re-iterable when its backing medium is (files are, stdin
    is not); the streaming pipeline only ever asks for one pass.
    """

    name: str

    def events(self) -> Iterator[AllocationEvent]:
        """Yield the source's events, in trace order, one at a time."""
        ...


def open_text(path: str | Path, mode: str = "r") -> IO[str]:
    """Open ``path`` as UTF-8 text, through gzip when its suffix is ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def open_event_stream(path: str | Path) -> IO[str]:
    """Open a text line stream over ``path``.

    ``-`` reads standard input (the conventional pipe spelling), a
    ``.gz`` suffix transparently decompresses, anything else opens as a
    plain text file.  Callers must close the returned handle unless it is
    ``sys.stdin``.
    """
    if str(path) == "-":
        return sys.stdin
    return open_text(path)


def _close_stream(handle: IO[str]) -> None:
    if handle is not sys.stdin:
        handle.close()


class TraceFileSource:
    """Streams the ``A``/``F`` trace text format line by line.

    Reads exactly what :func:`repro.workloads.traces.save_trace` writes
    (``A <id> <size> <timestamp> [tag]`` / ``F <id> <timestamp> [tag]``,
    ``#`` comments, a ``# trace NAME`` header naming the trace) without
    materialising the event list; :func:`~repro.workloads.traces.load_trace`
    collects these events into a whole trace.  A malformed line raises
    :class:`TraceFormatError` when ``strict`` (the default) and is skipped
    with :attr:`skipped_lines` counted otherwise.  A malformed torn tail (a
    final line with no newline, see
    :func:`~repro.profiling.parser.numbered_lines`) is always skipped: it
    is counted in :attr:`truncated_tail` and kept as :attr:`tail_error`.
    """

    def __init__(self, path: str | Path, name: str | None = None, strict: bool = True) -> None:
        self.path = path
        stem = Path(str(path)).stem if str(path) != "-" else "stdin"
        self.name = name or stem
        self._explicit_name = name is not None
        self.strict = strict
        self.skipped_lines = 0
        self.truncated_tail = 0
        self.tail_error: TraceFormatError | None = None

    def events(self) -> Iterator[AllocationEvent]:
        handle = open_event_stream(self.path)
        try:
            for line_number, line, torn in numbered_lines(handle):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    comment = line[1:].strip()
                    if comment.startswith("trace ") and not self._explicit_name:
                        self.name = comment[len("trace "):].strip() or self.name
                    continue
                try:
                    event = self._parse_line(line)
                except ValueError as exc:
                    error = TraceFormatError(line_number, line, str(exc))
                    if torn:
                        self.truncated_tail += 1
                        self.tail_error = error
                    elif self.strict:
                        raise error from exc
                    self.skipped_lines += 1
                    continue
                yield event
        finally:
            _close_stream(handle)

    @staticmethod
    def _parse_line(line: str) -> AllocationEvent:
        fields = line.split()
        kind = fields[0]
        if kind == "A":
            if len(fields) < 4:
                raise ValueError("ALLOC lines need id, size and timestamp")
            tag = fields[4] if len(fields) > 4 else ""
            return alloc(int(fields[1]), int(fields[2]), int(fields[3]), tag)
        if kind == "F":
            if len(fields) < 3:
                raise ValueError("FREE lines need id and timestamp")
            tag = fields[3] if len(fields) > 3 else ""
            return free(int(fields[1]), int(fields[2]), tag)
        raise ValueError(f"unknown record type '{kind}'")


class ProfilingLogSource:
    """Streams the event echo (``E`` records) out of a profiling log.

    The enriched echo format
    (``E|<config_id>|<op_index>|<kind>|<size>|<request_id>|<timestamp>``)
    is a complete record of the replayed trace, so a multi-gigabyte log is
    itself a trace source: this class filters one configuration's event
    lines out of the log — by default the first configuration whose
    events appear — and reconstructs the events.  Every non-event record
    (``R``/``L``/``P``/comments) is passed over without parsing; malformed
    event lines are skipped with :attr:`skipped_lines` counted, matching
    the torn-tail tolerance of :class:`~repro.profiling.parser.ProfilingLogParser`.
    """

    def __init__(
        self,
        path: str | Path,
        configuration_id: str | None = None,
        name: str | None = None,
    ) -> None:
        self.path = path
        self.configuration_id = configuration_id
        stem = Path(str(path)).stem if str(path) != "-" else "stdin"
        self.name = name or stem
        self.skipped_lines = 0

    def events(self) -> Iterator[AllocationEvent]:
        prefix = EVENT_PREFIX + "|"
        wanted = self.configuration_id
        handle = open_event_stream(self.path)
        try:
            for line in handle:
                if not line.startswith(prefix):
                    continue
                fields = line.rstrip("\n").split("|")
                try:
                    if len(fields) != 7:
                        raise ValueError("event record needs 7 fields")
                    _, config_id, _index, kind, size, request_id, timestamp = fields
                    if wanted is None:
                        # Lock onto the first configuration seen; later
                        # configurations' echoes repeat the same trace.
                        wanted = config_id
                    elif config_id != wanted:
                        continue
                    if kind == EventKind.ALLOC.value:
                        event = alloc(int(request_id), int(size), int(timestamp))
                    elif kind == EventKind.FREE.value:
                        event = free(int(request_id), int(timestamp))
                    else:
                        raise ValueError(f"unknown event kind '{kind}'")
                except ValueError:
                    self.skipped_lines += 1
                    continue
                yield event
        finally:
            _close_stream(handle)


class SyntheticSource:
    """Seeded server-style event generator with a bounded live set.

    Streams ``operations`` alloc/free operations (plus the drain frees for
    whatever is still live at the end) without ever holding more than
    ``live_limit`` outstanding allocations — the generator itself runs in
    O(live_limit) memory, which is what lets the scale benchmark push
    millions of events through the ingestion pipeline and assert that peak
    memory tracks the *segment* size, not the stream length.  Identical
    seeds produce identical streams.
    """

    def __init__(
        self,
        operations: int,
        live_limit: int = 256,
        sizes: tuple[int, ...] = (24, 32, 48, 64, 128, 256, 512),
        seed: int = 0,
        name: str = "synthetic",
    ) -> None:
        if operations < 1:
            raise ValueError("operations must be >= 1")
        if live_limit < 1:
            raise ValueError("live_limit must be >= 1")
        self.operations = operations
        self.live_limit = live_limit
        self.sizes = tuple(sizes)
        self.seed = seed
        self.name = name

    def events(self) -> Iterator[AllocationEvent]:
        rng = random.Random(self.seed)
        live: list[int] = []
        next_id = 0
        clock = 0
        for _ in range(self.operations):
            at_limit = len(live) >= self.live_limit
            if live and (at_limit or rng.random() < 0.5):
                # Swap-pop a random live allocation: O(1), order-free.
                index = rng.randrange(len(live))
                request_id = live[index]
                live[index] = live[-1]
                live.pop()
                yield free(request_id, clock)
            else:
                size = rng.choice(self.sizes)
                yield alloc(next_id, size, clock)
                live.append(next_id)
                next_id += 1
            clock += 1
        for request_id in live:
            yield free(request_id, clock)
            clock += 1
