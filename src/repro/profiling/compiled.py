"""Columnar ("compiled") trace representation.

Replaying a trace through the object-per-event representation costs one
Python object traversal per event: an attribute load for the kind, a
property call for ``is_alloc``, another load for the size.  Over the tens of
thousands of events of a realistic trace, and the thousands of
configurations of an exploration, that bookkeeping dominates the profiling
step — the very cost the DATE'06 flow parallelises and prunes around.

:class:`CompiledTrace` lowers the event stream *once* into flat parallel
arrays (kind, size, request id, timestamp) plus a precomputed *slot* column
that resolves every FREE to the dense index of the allocation it releases.
The fast replay loop in :mod:`repro.profiling.profiler` then iterates plain
``bytes``/``array`` values — no event objects, no per-event dict keyed by
request id — and the same compact form is what
:class:`~repro.core.exploration.ProcessPoolBackend` ships to worker
processes (a few dozen bytes per event instead of a pickled dataclass
graph).

The compiled form intentionally drops event *tags* (they never influence
replay); the :attr:`CompiledTrace.fingerprint` is hashed from the original
events — tags included — in the same pass that builds the columns, so store
keys and provenance are unaffected.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Iterable

from .events import AllocationEvent, EventKind

#: Value of :attr:`CompiledTrace.kinds` entries for ALLOC / FREE events.
ALLOC_CODE = 1
FREE_CODE = 0

#: Slot value of a FREE event whose request id was never (or is no longer)
#: live at that point of the stream — the replay loop skips such events,
#: exactly as the legacy loop skips a free whose allocation failed.
NO_SLOT = -1


class CompiledTrace:
    """Flat, immutable, cheaply picklable form of an allocation trace.

    Every integer column is stored in the smallest signed ``array`` typecode
    that fits its value range (``b``/``h``/``i``/``q``), so the pickled form
    stays a handful of bytes per event however long the trace grows.

    Attributes
    ----------
    kinds:
        ``bytes`` of length ``len(trace)``; ``ALLOC_CODE`` or ``FREE_CODE``
        per event.  Iterating ``bytes`` yields plain integers, which is what
        makes the replay loop branch cheap.
    sizes:
        ``array`` — requested payload bytes per event (0 for frees).
    request_ids:
        ``array`` — the original request id per event (kept so the
        event stream can be reconstructed; replay itself never touches it).
    timestamps:
        ``array`` — logical time per event.
    slots:
        ``array`` — for an ALLOC, a dense slot index (allocation number
        in stream order); for a FREE, the slot of the allocation it
        releases, or :data:`NO_SLOT`.  Slots let the replay keep live
        addresses in a flat list instead of a per-event dict.
    slot_sizes:
        ``array`` — requested payload bytes per *slot*, so a FREE can
        recover the size of the allocation it releases without touching the
        block object.
    slot_count:
        Number of ALLOC events (size of the slot table).
    has_live_rebinding:
        True when some ALLOC re-uses a request id that is still live at
        that point of the stream (a malformed trace that ``validate()``
        rejects but replay tolerates).  Static slot resolution cannot
        express the legacy loop's behaviour for such streams — it rebinds
        the id only when the allocation *succeeds* at runtime — so the
        profiler falls back to the event loop when this flag is set.
    slot_base:
        Global slot index of this trace's first ALLOC.  A one-shot compile
        always has ``slot_base == 0``; a *segment* emitted by
        :class:`SegmentedTraceCompiler` carries the number of allocations
        seen in earlier segments, so its ``slots`` column holds globally
        unique values while ``slot_sizes`` stays local (index
        ``slot - slot_base``).  A FREE whose slot is below ``slot_base``
        releases an allocation from an earlier segment.
    name / fingerprint:
        Identity of the source trace; the fingerprint is the trace's
        content hash over the *original* events (tags included), stamped by
        :func:`compile_trace`.  Segments and prefixes carry ``""``.
    """

    __slots__ = (
        "kinds",
        "sizes",
        "request_ids",
        "timestamps",
        "slots",
        "slot_sizes",
        "slot_count",
        "has_live_rebinding",
        "name",
        "fingerprint",
        "slot_base",
    )

    def __init__(
        self,
        kinds: bytes,
        sizes: array,
        request_ids: array,
        timestamps: array,
        slots: array,
        slot_sizes: array,
        slot_count: int,
        has_live_rebinding: bool = False,
        name: str = "trace",
        fingerprint: str = "",
        slot_base: int = 0,
    ) -> None:
        self.kinds = kinds
        self.sizes = sizes
        self.request_ids = request_ids
        self.timestamps = timestamps
        self.slots = slots
        self.slot_sizes = slot_sizes
        self.slot_count = slot_count
        self.has_live_rebinding = has_live_rebinding
        self.name = name
        self.fingerprint = fingerprint
        self.slot_base = slot_base

    def __len__(self) -> int:
        return len(self.kinds)

    # ``__slots__`` classes have no instance dict; spell the pickle protocol
    # out so the compiled form round-trips on every protocol version.
    def __getstate__(self) -> tuple:
        return (
            self.kinds,
            self.sizes,
            self.request_ids,
            self.timestamps,
            self.slots,
            self.slot_sizes,
            self.slot_count,
            self.has_live_rebinding,
            self.name,
            self.fingerprint,
            self.slot_base,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.kinds,
            self.sizes,
            self.request_ids,
            self.timestamps,
            self.slots,
            self.slot_sizes,
            self.slot_count,
            self.has_live_rebinding,
            self.name,
            self.fingerprint,
            self.slot_base,
        ) = state

    def __reduce__(self) -> tuple:
        return (_rebuild_compiled, (self.__getstate__(),))

    def nbytes(self) -> int:
        """Approximate in-memory size of the columnar data, in bytes."""
        return (
            len(self.kinds)
            + self.sizes.itemsize * len(self.sizes)
            + self.request_ids.itemsize * len(self.request_ids)
            + self.timestamps.itemsize * len(self.timestamps)
            + self.slots.itemsize * len(self.slots)
            + self.slot_sizes.itemsize * len(self.slot_sizes)
        )

    def prefix(self, count: int) -> "CompiledTrace":
        """The first ``count`` events, sliced from the columns.

        Equal column for column to compiling those events (slots number the
        allocations in stream order), except that :attr:`has_live_rebinding`
        keeps this trace's flag: conservative, a flagged prefix replays
        through the event loop.  The prefix carries no fingerprint.
        """
        slot_count = self.kinds[:count].count(ALLOC_CODE)
        return CompiledTrace(
            kinds=self.kinds[:count],
            sizes=self.sizes[:count],
            request_ids=self.request_ids[:count],
            timestamps=self.timestamps[:count],
            slots=self.slots[:count],
            slot_sizes=self.slot_sizes[:slot_count],
            slot_count=slot_count,
            has_live_rebinding=self.has_live_rebinding,
            name=self.name,
            slot_base=self.slot_base,
        )

    def events(self) -> list[AllocationEvent]:
        """Reconstruct the event objects (tags are not preserved)."""
        out: list[AllocationEvent] = []
        append = out.append
        request_ids = self.request_ids
        sizes = self.sizes
        timestamps = self.timestamps
        for index, kind in enumerate(self.kinds):
            if kind:
                append(
                    AllocationEvent(
                        EventKind.ALLOC,
                        request_ids[index],
                        sizes[index],
                        timestamps[index],
                    )
                )
            else:
                append(
                    AllocationEvent(
                        EventKind.FREE, request_ids[index], 0, timestamps[index]
                    )
                )
        return out


def _rebuild_compiled(state: tuple) -> CompiledTrace:
    compiled = CompiledTrace.__new__(CompiledTrace)
    compiled.__setstate__(state)
    return compiled


def _pack(values: list[int]) -> array:
    """Store ``values`` in the smallest signed typecode that fits them."""
    lo = min(values, default=0)
    hi = max(values, default=0)
    for typecode in ("b", "h", "i", "q"):
        bound = 1 << (8 * array(typecode).itemsize - 1)
        if -bound <= lo and hi < bound:
            return array(typecode, values)
    return array("q", values)  # pragma: no cover - values exceed 64 bits


class SegmentedTraceCompiler:
    """The trace compiler: one segment per :meth:`feed` call.

    Each chunk of events becomes a :class:`CompiledTrace` *segment* whose
    columns are, by construction, exactly the corresponding rows of a
    one-segment compile of the full stream (:func:`compile_trace` is that
    one-segment run).  The streaming-ingestion layer (:mod:`repro.stream`)
    feeds chunks as they come off a log.

    Slot resolution mirrors the event replay loop's ``dict`` bookkeeping:
    every ALLOC claims a fresh slot (re-allocating an id moves the id to
    the new slot, as a dict overwrite would); a FREE consumes the current
    slot of its id, so a second FREE of the same id resolves to
    :data:`NO_SLOT` and is skipped by the replay.  Across segments:

    * ``slots`` values are **global** — the id-to-slot table carries across
      segment boundaries, so a FREE in segment 3 of an allocation from
      segment 1 resolves to that allocation's global slot;
    * ``slot_sizes`` is **local** to the segment (index
      ``slot - slot_base``) so per-segment memory stays bounded by the
      chunk size, not by the live-allocation population;
    * :attr:`slot_count` is the number of allocations in *this* segment;
      the compiler's own :attr:`slot_count` is the running global total.

    The same pass hashes every event into the stream's content hash (kind,
    request id, size, timestamp and tag, in order): :meth:`fingerprint` is
    the trace fingerprint that keys the result store and artefact
    provenance, whichever way the stream was cut.

    Memory held between calls is the live-allocation table (one dict entry
    per live allocation) plus the hash state — the invariant the streaming
    benchmark asserts.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        #: request id -> global slot of its live allocation.
        self._slot_of: dict[int, int] = {}
        #: Global allocation count across all segments fed so far.
        self.slot_count = 0
        #: Global event count across all segments fed so far.
        self.events_seen = 0
        self.segments = 0
        self.has_live_rebinding = False
        self._digest = hashlib.sha256()

    def fingerprint(self) -> str:
        """Content hash of everything fed so far (hex SHA-256).

        After the final :meth:`feed`, equal to
        :meth:`AllocationTrace.fingerprint <repro.profiling.tracer
        .AllocationTrace.fingerprint>` of the whole stream.
        """
        return self._digest.hexdigest()

    def feed(self, events: Iterable[AllocationEvent]) -> CompiledTrace:
        """Compile one chunk of the stream into its segment.

        Returns the segment even when ``events`` is empty (zero-length
        segments replay as no-ops), so callers need no special casing.
        """
        events = list(events)
        count = len(events)
        kinds = bytearray(count)
        sizes = [0] * count
        request_ids = [0] * count
        timestamps = [0] * count
        slots = [0] * count
        slot_base = self.slot_count
        slot_sizes: list[int] = []
        slot_of = self._slot_of
        digest = self._digest
        slot_count = self.slot_count
        for index, event in enumerate(events):
            request_id = event.request_id
            request_ids[index] = request_id
            timestamps[index] = event.timestamp
            digest.update(
                f"{event.kind.value}|{request_id}|{event.size}"
                f"|{event.timestamp}|{event.tag}\n".encode()
            )
            if event.kind is EventKind.ALLOC:
                kinds[index] = ALLOC_CODE
                size = event.size
                sizes[index] = size
                slots[index] = slot_count
                slot_sizes.append(size)
                if request_id in slot_of:
                    self.has_live_rebinding = True
                slot_of[request_id] = slot_count
                slot_count += 1
            else:
                slots[index] = slot_of.pop(request_id, NO_SLOT)
        self.slot_count = slot_count
        self.events_seen += count
        self.segments += 1
        return CompiledTrace(
            kinds=bytes(kinds),
            sizes=_pack(sizes),
            request_ids=_pack(request_ids),
            timestamps=_pack(timestamps),
            slots=_pack(slots),
            slot_sizes=_pack(slot_sizes),
            slot_count=slot_count - slot_base,
            has_live_rebinding=self.has_live_rebinding,
            name=self.name,
            slot_base=slot_base,
        )


def compile_trace(
    events: Iterable[AllocationEvent], name: str = "trace"
) -> CompiledTrace:
    """Lower a whole event stream into its columnar form, fingerprint included.

    A one-segment :class:`SegmentedTraceCompiler` run: the segment is the
    whole trace (``slot_base == 0``) and carries the compiler's
    :meth:`~SegmentedTraceCompiler.fingerprint`.
    """
    compiler = SegmentedTraceCompiler(name)
    compiled = compiler.feed(events)
    compiled.fingerprint = compiler.fingerprint()
    return compiled
