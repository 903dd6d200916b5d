"""Persistent result store (L2), store formats, compaction and merging.

The in-memory memoisation cache of :class:`~repro.core.exploration.
ExplorationEngine` dies with the process; re-running an exploration over the
same workload re-profiles every configuration from scratch.  This module
makes repeated explorations incremental:

* :class:`ResultStore` is an on-disk, append-only store of evaluated
  points, keyed by ``(evaluation fingerprint, canonical parameter point,
  metric version)``.  The engine consults it on every in-memory cache
  miss — the memoisation cache is the L1 over this L2 — and writes every
  fresh evaluation back, so a second run over the same trace performs zero
  fresh profiler evaluations.
* :class:`StoreFormat` is the seam between the store's key/value semantics
  and its on-disk representation.  Two formats ship: ``jsonl`` (one
  self-describing JSON entry per line, inspectable with text tools) and
  ``binary`` (fixed-width frame headers carrying a length, a CRC and a
  32-byte key digest in front of the same JSON payload, loadable without
  parsing a single payload).  Both serialise every entry payload
  identically, which is what keeps assembled exploration artefacts
  byte-identical across formats.
* :func:`compact_store` rewrites a store down to its live (last-write-wins)
  set with an atomic replace — provenance-preserving, and safe against
  concurrent appenders, which re-attach to the replacement file.
* :func:`merge_databases` unions the :class:`~repro.core.results.
  ResultDatabase` artefacts written by independent (typically sharded)
  exploration runs into one database, after validating that the artefacts
  came from the same evaluation context, and with the combined record order
  (and therefore the recomputed Pareto front) identical to a single-run
  exhaustive exploration.

Reading back at scale is a streaming concern: :class:`StoreRecordSource`
replays a store file of either format as an ordered record stream — an
offset index decides which entry wins per key, then records are parsed one
at a time — so ``dmexplore report --store`` serves the full 19 440-point
space without ever materialising the record list.

Design notes
------------

The ``jsonl`` format is a flat JSON-lines file (one self-describing entry
per line): entries are append-only, a partially written trailing line
(crash, ``kill -9``, full disk) is recoverable by simply skipping it, and
the file can be inspected/filtered with standard text tools.  Its load
cost is a JSON parse per entry.

The ``binary`` format trades inspectability for load speed: a 16-byte file
header, then one frame per entry — a fixed-width 42-byte frame header
(marker, payload length, payload CRC-32, SHA-256 key digest) followed by
the exact bytes the ``jsonl`` format would have written as the line.
Opening a binary store walks the fixed-width headers and checksums the
payloads without JSON-parsing any of them (the whole file is ``mmap``-ed
for the initial walk); payloads are parsed lazily on first :meth:`~
ResultStore.get` of their key.  Because JSON payloads are pure ASCII
(``json.dumps`` escapes everything else), the two marker bytes (values
``>= 0x80``) can never occur inside a payload, so a reader that lands in
torn bytes resynchronises by scanning to the next marker and letting the
CRC arbitrate.

Each format has one walker over its units (:meth:`StoreFormat.units`) and
every reader is built on it, so all readers agree on a damaged file: a
torn final entry is one corrupt unit to a full read, pending to a refresh
(it may be a write in flight), and repaired by the next append.  A binary
header of an unknown revision is refused by every reader, file untouched.

Concurrent writers on one host are safe in both formats: every entry is
appended as a single ``write()`` on an ``O_APPEND`` descriptor (the kernel
serialises the positioning) under an advisory ``fcntl`` lock (which
additionally rules out interleaving on the rare short-write path), so
parallel shards may share one store file.  Two writers that race to
profile the same point simply append the same key twice — last write wins
at load time, exactly like a re-recorded entry.  Writers do not *see*
each other's appends until they :meth:`~ResultStore.refresh`; they only
ever duplicate work, never corrupt it.  Refresh is O(appended tail), not
O(history): the store tracks the byte offset it has consumed and parses
only what lies beyond it.

Compaction (:func:`compact_store`, ``dmexplore store compact``) removes
the superseded duplicates that last-write-wins accumulates.  It rewrites
under the same advisory append lock and atomically replaces the file;
every :class:`ResultStore` re-checks, after taking the lock, that its
descriptor still belongs to the file at its path, and re-attaches when
not, so appends never land in the unlinked pre-compaction inode.

:data:`METRIC_VERSION` is part of every key: bump it whenever the profiler
or the metric definitions change semantically, and every stale entry is
ignored (not deleted — rolling back the code revalidates them).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from .parameters import ParameterSpace
from .results import ExplorationRecord, Provenance, ResultDatabase

try:  # pragma: no cover - fcntl exists on every POSIX platform we target
    import fcntl
except ImportError:  # pragma: no cover - e.g. Windows; O_APPEND still holds
    fcntl = None  # type: ignore[assignment]

#: Version of the metric semantics baked into store keys.  Bump when the
#: profiler, the energy/timing model wiring, or the metric definitions
#: change meaning, so persisted results from older code are never reused.
METRIC_VERSION = 1


class StoreError(RuntimeError):
    """Raised when a result store file cannot be used at all."""


class MergeError(ValueError):
    """Raised when result artefacts are incompatible and cannot be merged."""


def canonical_point_json(point: dict) -> str:
    """Canonical JSON form of a parameter point (sorted keys, no spaces).

    This is the point component of the on-disk store key; it matches
    :func:`repro.core.exploration.canonical_point_key` in what it considers
    equal (same name/value pairs, any insertion order).
    """
    return json.dumps(point, sort_keys=True, separators=(",", ":"))


def default_store_path(format: str = "jsonl") -> Path:
    """The ``--store``-without-a-path location: ``~/.cache/dmexplore``.

    Respects ``XDG_CACHE_HOME`` when set.  The file is shared by all runs on
    the machine; keys embed the evaluation fingerprint, so results from
    different traces, hierarchies or spaces never collide.  Each format has
    its own default file so a machine can keep both warm.
    """
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    filename = "results.bin" if format == "binary" else "results.jsonl"
    return base / "dmexplore" / filename


# -- entry payloads (shared by every format) ----------------------------------


def _entry_identity(entry: dict) -> tuple[str, str, int]:
    """The ``(fingerprint, canonical point JSON, metric version)`` of an entry."""
    return (
        entry["fingerprint"],
        canonical_point_json(entry["point"]),
        int(entry["metric_version"]),
    )


def _entry_from_dict(data: object) -> tuple[tuple[str, str, int], dict] | None:
    """Validate one decoded store entry document.

    Returns ``(entry identity, entry)`` or ``None`` when the document is not
    a usable entry.  The record payload is validated eagerly so a corrupt
    entry surfaces where it is read (and is counted), not as a crash
    mid-exploration.
    """
    if not isinstance(data, dict):
        return None
    try:
        if not isinstance(data["fingerprint"], str) or not isinstance(
            data["point"], dict
        ):
            return None
        identity = _entry_identity(data)
        ExplorationRecord.from_dict(data["record"])
    except (KeyError, TypeError, ValueError):
        return None
    return identity, data


def _decode_entry(data: bytes | str) -> tuple[tuple[str, str, int], dict] | None:
    """Decode one serialised entry (a JSONL line == a binary frame payload)."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError:
            return None
    else:
        text = data
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        return None
    return _entry_from_dict(parsed)


# -- the format seam ----------------------------------------------------------


class StoreFormat:
    """One on-disk representation of the result store.

    A format owns *framing* only: its file header and how serialised
    entries are laid out after it.  :meth:`units` is the format's one
    walker over those units, and every reader is built on it — store open
    and refresh directly, ``store info``, compaction, conversion and the
    streaming report through :meth:`scan` — so all of them agree on what a
    damaged file holds.  A full read counts a trailing partial unit (a
    crash mid-append) as exactly one corrupt unit; a refresh leaves it
    pending and uncounted; the next append repairs it (:attr:`repair`).
    The payload of every format is the same compact JSON entry document —
    that invariant is what keeps assembled artefacts byte-identical across
    formats, and what makes conversion between formats a pure re-framing.
    """

    #: Registry name of the format (``jsonl`` / ``binary``).
    name: str = ""
    #: File header written once at offset 0 (empty for headerless formats).
    header: bytes = b""
    #: Bytes an appender writes before its entry when the previous file
    #: tail was torn (the JSONL newline repair; empty when the format
    #: repairs by truncation instead).
    repair: bytes = b""

    def entry_key(self, fingerprint: str, point_json: str, version: int) -> object:
        """The in-memory dict key this format indexes entries under."""
        raise NotImplementedError

    def encode_entry(self, entry: dict) -> bytes:
        """Serialise one full entry document into its on-disk framing."""
        raise NotImplementedError

    def check_header(self, head: bytes, path: str | Path) -> None:
        """Raise :class:`StoreError` naming ``path`` for an unreadable header.

        ``head`` starts a non-empty file; headerless formats accept any.
        """

    def units(
        self, buffer: bytes | mmap.mmap, start: int, final: bool
    ) -> Iterator[tuple[int, int, int, object, dict | None]]:
        """Walk the framed units of ``buffer[start:]``.

        Yields ``(end, offset, length, key, entry)`` per unit: ``end`` is
        where reading resumes after the unit, ``offset``/``length`` locate
        its payload in ``buffer``, ``key`` is its :meth:`entry_key`
        (``None`` for a corrupt unit) and ``entry`` the parsed entry
        document, or ``None`` where the format defers payload parsing.
        ``final`` marks a full read, which yields a trailing partial unit
        as one corrupt unit; a non-final read (refresh) stops in front of
        it, leaving it pending for a later read or the next append's repair.
        """
        raise NotImplementedError

    def scan(
        self, buffer: bytes, path: str | Path = "store image"
    ) -> Iterator[tuple[int, int, dict | None]]:
        """Walk every unit of a complete store image, parsing each payload.

        Yields ``(payload offset, payload length, entry document)``, the
        document ``None`` for a corrupt unit.  This is the compaction /
        conversion / info / streaming-report path: unlike a store open it
        materialises each payload (one at a time).  A header this build
        cannot read raises :class:`StoreError` naming ``path``.
        """
        if not buffer:
            return
        self.check_header(buffer, path)
        for _end, offset, length, key, entry in self.units(
            buffer, len(self.header), True
        ):
            if key is not None and entry is None:
                decoded = _decode_entry(buffer[offset : offset + length])
                entry = decoded[1] if decoded else None
            yield offset, length, entry


class JsonlStoreFormat(StoreFormat):
    """One self-describing JSON entry per line; text-tool friendly."""

    name = "jsonl"
    header = b""
    repair = b"\n"

    def entry_key(self, fingerprint: str, point_json: str, version: int) -> object:
        return (fingerprint, point_json, version)

    def encode_entry(self, entry: dict) -> bytes:
        # Insertion order is preserved on purpose: the record payload keeps
        # the evaluator's parameter order, so a record read back in another
        # process serialises byte-identically to the one the evaluator held
        # (lookups never depend on this — keys go through
        # canonical_point_json, which sorts).
        return (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")

    def units(self, buffer, start, final):
        data = bytes(buffer[start:])
        if not final:
            # A refresh reads only newline-terminated lines: an unterminated
            # tail is either still being written (complete on the next
            # refresh) or permanently torn (the next writer starts a fresh
            # line, turning it into a complete, corrupt, skipped line).  A
            # full read takes it too: an entry when it parses, one corrupt
            # unit otherwise.
            data = data[: data.rfind(b"\n") + 1]
        end = start
        for raw in data.splitlines(keepends=True):
            offset, end = end, end + len(raw)
            line = raw.rstrip(b"\r\n")
            if not line.strip():
                continue
            decoded = _decode_entry(line.decode("utf-8", errors="replace"))
            if decoded is None:
                yield end, offset, len(line), None, None
            else:
                yield end, offset, len(line), *decoded


#: Magic prefix identifying a binary store file.
_BINARY_MAGIC = b"DMXSTOR1"
#: On-disk format revision, bumped on incompatible layout changes.
_BINARY_VERSION = 1
#: Frame boundary marker.  Both bytes are >= 0x80, which no ASCII JSON
#: payload byte can be, so scanning for the marker resynchronises a reader
#: that landed inside torn payload bytes.
_FRAME_MARKER = b"\xd5\xaa"
#: Fixed-width frame header: marker, payload length, payload CRC-32, and
#: the SHA-256 digest of the entry key — the mmap-walkable column that lets
#: a load index every fingerprint/point without parsing any payload.
_FRAME = struct.Struct("<2sII32s")
#: Upper bound on a single payload; a claimed length beyond this is treated
#: as a torn header rather than honoured as a read size.
_MAX_PAYLOAD = 1 << 24
#: Minimum file size for which the initial binary load maps the file
#: instead of reading it into one bytes object.
_MMAP_THRESHOLD = 1 << 16


def _key_digest(fingerprint: str, point_json: str, version: int) -> bytes:
    """The fixed-width store key a binary frame header carries."""
    material = f"{fingerprint}\x00{point_json}\x00{version}".encode("utf-8")
    return hashlib.sha256(material).digest()


class _FrameRef:
    """Location of an on-disk binary frame payload, parsed on first use."""

    __slots__ = ("offset", "length")

    def __init__(self, offset: int, length: int) -> None:
        self.offset = offset
        self.length = length


class BinaryStoreFormat(StoreFormat):
    """Fixed-width frame headers over JSON payloads; parse-free loads."""

    name = "binary"
    header = _BINARY_MAGIC + struct.pack("<II", _BINARY_VERSION, 0)
    repair = b""

    def entry_key(self, fingerprint: str, point_json: str, version: int) -> object:
        return _key_digest(fingerprint, point_json, version)

    def encode_entry(self, entry: dict) -> bytes:
        payload = json.dumps(entry, separators=(",", ":")).encode("utf-8")
        digest = _key_digest(*_entry_identity(entry))
        head = _FRAME.pack(_FRAME_MARKER, len(payload), zlib.crc32(payload), digest)
        return head + payload

    def check_header(self, head, path):
        if len(head) < len(self.header) or not head.startswith(_BINARY_MAGIC):
            raise StoreError(f"store file {path} has a malformed binary header")
        revision = struct.unpack_from("<I", head, len(_BINARY_MAGIC))[0]
        if revision != _BINARY_VERSION:
            raise StoreError(
                f"store file {path} uses binary format revision {revision}; "
                f"this build reads revision {_BINARY_VERSION}"
            )

    def units(self, buffer, start, final):
        end = len(buffer)
        pos = start
        while pos + _FRAME.size <= end:
            marker, length, crc, digest = _FRAME.unpack_from(buffer, pos)
            payload = pos + _FRAME.size
            if marker == _FRAME_MARKER and length <= _MAX_PAYLOAD:
                if payload + length > end:
                    break  # torn frame, or one still being written
                if zlib.crc32(buffer[payload : payload + length]) == crc:
                    yield payload + length, payload, length, digest, None
                    pos = payload + length
                    continue
            # Torn or damaged bytes: resynchronise at the next marker and
            # let the CRC arbitrate.  No marker ahead makes them the tail.
            resync = buffer.find(_FRAME_MARKER, pos + 1, end)
            if resync < 0:
                break
            yield resync, pos, 0, None, None
            pos = resync
        if final and pos < end:
            # The trailing partial unit: reading resumes at its start, which
            # is where the next append truncates the file (see _append).
            yield pos, pos, 0, None, None


#: The format registry the ``repro.api`` store registry builds on.
STORE_FORMATS: dict[str, StoreFormat] = {
    "jsonl": JsonlStoreFormat(),
    "binary": BinaryStoreFormat(),
}


def _lookup_format(name: str) -> StoreFormat:
    try:
        return STORE_FORMATS[name]
    except KeyError:
        known = ", ".join(sorted(STORE_FORMATS))
        raise StoreError(f"unknown store format '{name}' (known: {known})") from None


def detect_format(path: str | Path) -> str | None:
    """Sniff the store format of ``path`` from its magic.

    Returns ``None`` for a missing or empty file (either format may be
    grown there), ``"binary"`` when the binary magic is present and
    ``"jsonl"`` when the file starts with a JSON object (a torn first line
    still does).  Any other non-empty file is not a result store: raises
    :class:`StoreError` rather than letting an append grow a foreign file.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(_BINARY_MAGIC))
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        return None
    if not head:
        return None
    if head == _BINARY_MAGIC:
        return "binary"
    if head.startswith(b"{"):
        return "jsonl"
    raise StoreError(
        f"{path} is not a result store (it starts with neither the binary "
        "magic nor a JSON object)"
    )


class ResultStore:
    """Append-only on-disk store of evaluated parameter points.

    Parameters
    ----------
    path:
        The store file to load from and append to.  Parent directories
        are created; a missing file starts an empty store.
    metric_version:
        Key component isolating results across metric-semantics changes;
        entries recorded under a different version are invisible (but kept
        on disk).
    format:
        ``"jsonl"`` or ``"binary"``; ``None`` sniffs the existing file and
        falls back to ``jsonl`` for a fresh path.  Opening an existing
        store under the wrong format is an error, not a rewrite.
    auto_compact:
        When the file carries at least this many dead (superseded) entries
        at open time, it is compacted in place before use.

    Counters
    --------
    ``hits`` / ``misses``
        :meth:`get` outcomes since the store was opened.
    ``loaded``
        Usable entries read from disk (all versions; reset by compaction).
    ``corrupt_entries``
        Units skipped because they were truncated or malformed — the
        recovery path for a crashed writer.
    ``dead_entries``
        Loaded entries that superseded an already-loaded key (the waste
        compaction reclaims).
    ``bytes_consumed``
        Total bytes parsed from disk; :meth:`refresh` adds only the
        appended tail, never the history.
    """

    def __init__(
        self,
        path: str | Path,
        metric_version: int = METRIC_VERSION,
        format: str | None = None,
        auto_compact: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.metric_version = metric_version
        if format is not None:
            _lookup_format(format)
        if auto_compact is not None and auto_compact < 1:
            raise StoreError("auto_compact must be a positive number of dead entries")
        self.auto_compact = auto_compact
        self.hits = 0
        self.misses = 0
        self.bytes_consumed = 0
        self._fd: int | None = None
        self._read_fd: int | None = None
        self._reset_index()
        if self.path.exists() and self.path.is_dir():
            raise StoreError(f"store path {self.path} is a directory")
        detected = detect_format(self.path)
        if format is not None and detected is not None and detected != format:
            raise StoreError(
                f"store file {self.path} is {detected}-format, but format "
                f"'{format}' was requested (use `dmexplore store convert` "
                "to change formats)"
            )
        self.format = detected or format or "jsonl"
        self._format = _lookup_format(self.format)
        self._load()
        if self.auto_compact is not None and self.dead_entries >= self.auto_compact:
            self.compact()

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        self._consume_tail(final=True)

    def refresh(self) -> int:
        """Pick up entries appended by other processes since the last read.

        The store reads its file once at open time; concurrent writers
        (parallel shards, distributed workers) only ever *append*, so
        catching up means parsing the bytes past the last consumed offset —
        O(appended tail), never O(history).  Returns the number of usable
        entries added or superseded.  When the file was atomically replaced
        (compaction), the replacement is consumed from the top; superseded
        keys simply converge to the same live set.

        Own appends are replayed harmlessly (same key, same payload); only
        genuinely new keys change what :meth:`get`/:meth:`contains` answer.
        """
        if not self.path.exists():
            return 0
        return self._consume_tail(final=False)

    def _reset_index(self) -> None:
        """Forget everything read from the file: entries, load counters, offsets."""
        self._entries: dict[object, object] = {}
        self.loaded = 0
        self.corrupt_entries = 0
        self.dead_entries = 0
        # How far into the file the entries have been read; refresh() picks
        # up appends from concurrent writers beyond this offset.
        self._read_offset = 0
        # Inode the offsets describe; compaction replaces the file, and a
        # changed inode tells refresh() to re-consume from the top.
        self._ino: int | None = None
        # A torn jsonl tail the next append must start a fresh line after.
        self._needs_leading_newline = False
        # (clean end, observed size) of a torn binary tail awaiting
        # truncation by the next append (see _append).
        self._pending_repair: tuple[int, int] | None = None
        self._close_read_fd()

    def _consume_tail(self, final: bool) -> int:
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            return 0
        if self._ino is not None and (
            stat.st_ino != self._ino or stat.st_size < self._read_offset
        ):
            # The file was atomically replaced (compaction) or truncated
            # (torn-tail repair): the offsets — including every lazily held
            # frame reference — describe the old inode.  Drop the index and
            # its load counters and consume the replacement from its top;
            # compaction preserves the live set, so nothing is lost.
            self._reset_index()
        if stat.st_size == 0:
            self._ino = stat.st_ino
            return 0
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:  # pragma: no cover - deleted under us
            return 0
        with handle:
            if self._ino is None:
                self._ino = os.fstat(handle.fileno()).st_ino
            if self._read_fd is None:
                # Keep a descriptor on the *indexed* inode so lazily parsed
                # binary payloads stay readable across a later replace.
                self._read_fd = os.dup(handle.fileno())
            header = self._format.header
            if header and self._read_offset < len(header):
                self._format.check_header(handle.read(len(header)), self.path)
                self._read_offset = len(header)
            buffer, start, base = self._read_unconsumed(handle)
        unread = len(buffer) - start
        if unread <= 0:
            return 0
        delta = base - start
        end = start
        fresh = 0
        try:
            for end, offset, length, key, entry in self._format.units(
                buffer, start, final
            ):
                if key is None:
                    self.corrupt_entries += 1
                    continue
                if key in self._entries:
                    self.dead_entries += 1
                if entry is None:
                    self._entries[key] = _FrameRef(offset + delta, length)
                else:
                    self._entries[key] = entry["record"]
                fresh += 1
            last_byte = buffer[-1:]
        finally:
            if isinstance(buffer, mmap.mmap):
                buffer.close()
        self.loaded += fresh
        consumed = end - start
        self.bytes_consumed += consumed
        self._read_offset += consumed
        if self._format.repair:
            # An unterminated jsonl tail (torn, or a write in flight): the
            # next append starts a fresh line.
            self._needs_leading_newline = last_byte != self._format.repair
        elif consumed < unread:
            self._pending_repair = (self._read_offset, base + unread)
        else:
            self._pending_repair = None
        return fresh

    def _read_unconsumed(self, handle) -> tuple[bytes | mmap.mmap, int, int]:
        """The bytes past the consumed offset, as ``(buffer, start, base)``.

        ``buffer[start:]`` is the unconsumed tail and ``base`` its absolute
        file offset.  The initial load of a large binary store maps the
        whole file (``start == base``) so the fixed-width header walk runs
        over the page cache without a copy; every other path reads the
        tail into memory (``start == 0``).
        """
        size = os.fstat(handle.fileno()).st_size
        if (
            self._format.name == "binary"
            and self._read_offset <= len(self._format.header)
            and size >= _MMAP_THRESHOLD
        ):
            try:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # pragma: no cover - fall back
                pass
            else:
                return buffer, self._read_offset, self._read_offset
        handle.seek(self._read_offset)
        return handle.read(), 0, self._read_offset

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, fingerprint: str, point: dict) -> object:
        return self._format.entry_key(
            fingerprint, canonical_point_json(point), self.metric_version
        )

    def get(self, fingerprint: str, point: dict) -> ExplorationRecord | None:
        """Look one point up; returns a fresh record object or ``None``.

        Every call constructs a new :class:`ExplorationRecord` from the
        stored payload, so callers may mutate the result (relabelling,
        database index assignment) without corrupting the store.  Binary
        frame payloads are parsed on the first get of their key and cached.
        """
        key = self._key(fingerprint, point)
        payload = self._entries.get(key)
        if isinstance(payload, _FrameRef):
            payload = self._materialise(key, payload)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return ExplorationRecord.from_dict(payload)

    def _materialise(self, key: object, ref: _FrameRef) -> dict | None:
        """Parse a lazily indexed binary frame payload (once; then cached)."""
        try:
            if self._read_fd is None:  # pragma: no cover - defensive
                self._read_fd = os.open(self.path, os.O_RDONLY)
            data = os.pread(self._read_fd, ref.length, ref.offset)
        except OSError:
            data = b""
        decoded = _decode_entry(data) if len(data) == ref.length else None
        if decoded is not None:
            (fingerprint, point_json, version), _entry = decoded
            if self._format.entry_key(fingerprint, point_json, version) != key:
                decoded = None
        if decoded is None:
            # The frame passed its CRC when indexed, so the payload itself
            # can only disagree if the writer recorded a frame its own key
            # does not describe.  Drop it and let the engine re-evaluate.
            self.corrupt_entries += 1
            self._entries.pop(key, None)
            return None
        payload = decoded[1]["record"]
        self._entries[key] = payload
        return payload

    def contains(self, fingerprint: str, point: dict) -> bool:
        """True when the store holds ``point`` — without touching counters.

        For cheap "would this evaluation be free?" probes (dominance
        pruning) that must not distort the hit/miss statistics.
        """
        return self._key(fingerprint, point) in self._entries

    def missing_points(
        self, fingerprint: str, points: Iterable[tuple[int, dict]]
    ) -> list[tuple[int, dict]]:
        """The subset of ``(index, point)`` pairs the store does not hold.

        The lease-aware coverage probe of the distributed service: a
        coordinator verifies a leased range really committed before marking
        it done, and a worker resuming an interrupted lease learns which
        points the dead worker's appends already cover — without touching
        the hit/miss counters (pair with :meth:`refresh` to see appends from
        other processes first).
        """
        return [
            (index, point)
            for index, point in points
            if self._key(fingerprint, point) not in self._entries
        ]

    def put(
        self,
        fingerprint: str,
        point: dict,
        record: ExplorationRecord,
        spec_hash: str = "",
    ) -> bool:
        """Persist one evaluated point; returns False when already present.

        The entry reaches the file as one atomic, immediately written
        append (see :meth:`_append`), so a crash never loses more than the
        unit being written — which the next open recovers from by skipping
        it — and appends from concurrent processes never interleave.

        ``spec_hash`` (the canonical :class:`repro.api.ExperimentSpec`
        hash, when the evaluation was driven by an experiment) is recorded
        on the entry as provenance metadata; it is not part of the lookup
        key, so experiments that differ only in strategy or backend still
        share each other's evaluations.
        """
        key = self._key(fingerprint, point)
        if key in self._entries:
            return False
        payload = record.as_dict()
        self._entries[key] = payload
        entry = {
            "fingerprint": fingerprint,
            "point": point,
            "metric_version": self.metric_version,
            "record": payload,
        }
        if spec_hash:
            entry["spec_hash"] = spec_hash
        self._append(self._format.encode_entry(entry))
        return True

    def _append(self, data: bytes) -> None:
        """Append ``data`` (one complete entry unit) concurrent-writer-safely.

        The descriptor is opened with ``O_APPEND``, so the kernel positions
        every ``write()`` at end-of-file atomically even when several
        processes share the store.  The whole entry goes out in a single
        ``os.write`` call, guarded by an advisory ``fcntl`` lock that (a)
        serialises the rare short-write retry path, (b) keeps crashed-writer
        tail repair from splitting another writer's unit, and (c) is the
        fence compaction uses to swap the file underneath us safely.
        """
        fd = self._lock_current_fd()
        try:
            if self._format.header and os.fstat(fd).st_size == 0:
                os.write(fd, self._format.header)
            if self._pending_repair is not None:
                clean_end, seen_size = self._pending_repair
                self._pending_repair = None
                # Every writer appends under this lock, so an unchanged
                # size proves the torn tail is a crashed writer's permanent
                # leftover, not a write in flight: cut it off.
                if os.fstat(fd).st_size == seen_size and seen_size > clean_end:
                    os.ftruncate(fd, clean_end)
                    if self._read_offset > clean_end:
                        self._read_offset = clean_end
            if self._needs_leading_newline:
                os.write(fd, self._format.repair)
                self._needs_leading_newline = False
            remaining = data
            while remaining:
                written = os.write(fd, remaining)
                remaining = remaining[written:]
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)

    def _lock_current_fd(self) -> int:
        """Acquire the append lock on a descriptor for the *current* file.

        Compaction replaces the store file atomically; a descriptor opened
        before the replace points at the unlinked old inode, and bytes
        written there would silently vanish.  Re-checking path-vs-descriptor
        identity after taking the lock — and reopening until they agree —
        guarantees every append lands in the live file.
        """
        fd = self._ensure_fd()
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return fd
        fcntl.flock(fd, fcntl.LOCK_EX)
        while True:
            try:
                if os.stat(self.path).st_ino == os.fstat(fd).st_ino:
                    return fd
            except FileNotFoundError:
                pass  # deleted outright: recreate a fresh file below
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
            self._fd = None
            # Stale tail knowledge belongs to the old inode.
            self._needs_leading_newline = False
            self._pending_repair = None
            fd = self._ensure_fd()
            fcntl.flock(fd, fcntl.LOCK_EX)

    def _ensure_fd(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._fd

    # -- maintenance -------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite this store's file down to its live set, in place.

        Delegates to :func:`compact_store` (atomic replace under the append
        lock), then reloads, so ``loaded``/``corrupt_entries``/
        ``dead_entries`` describe the compacted image afterwards; ``hits``/
        ``misses`` keep accumulating.  Returns the compaction stats.
        """
        stats = compact_store(self.path, format=self.format)
        self._reset_index()
        self._load()
        return stats

    def close(self) -> None:
        """Close the descriptors (idempotent; the store stays queryable)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._close_read_fd()

    def _close_read_fd(self) -> None:
        if self._read_fd is not None:
            os.close(self._read_fd)
            self._read_fd = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore(path={str(self.path)!r}, format={self.format!r}, "
            f"entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


# -- maintenance over store files ---------------------------------------------


def _lock_path_exclusive(path: Path) -> int:
    """Open ``path`` for appending and take the store's exclusive lock.

    Loops until the locked descriptor provably belongs to the file
    currently at ``path`` — another compactor may have replaced the file
    while we waited on the old inode's lock.
    """
    while True:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return fd
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            if os.stat(path).st_ino == os.fstat(fd).st_ino:
                return fd
        except FileNotFoundError:
            pass
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _store_file(
    path: str | Path, format: str | None = None
) -> tuple[Path, StoreFormat]:
    """``path`` as an existing store file, with its given or sniffed format."""
    path = Path(path)
    if not path.exists() or path.is_dir():
        raise StoreError(f"no result store at {path}")
    return path, _lookup_format(format or detect_format(path) or "jsonl")


def _write_replace(path: Path, image: bytes, tag: str) -> None:
    """Write ``image`` aside, fsync it and atomically move it onto ``path``."""
    tmp = path.with_name(f"{path.name}.{tag}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(image)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    try:
        fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - best effort
        pass
    finally:
        os.close(fd)


def compact_store(
    path: str | Path,
    format: str | None = None,
    output_format: str | None = None,
) -> dict:
    """Provenance-preserving rewrite of a store's live set, atomically.

    Reads every usable entry under the store's advisory append lock, keeps
    the winning (= last) entry per key in first-occurrence order — exactly
    the last-write-wins rule :class:`ResultStore` applies at load — and
    atomically replaces the file with the rewritten image.  Entries keep
    their full serialised form (record payload, ``spec_hash`` provenance,
    entries of foreign metric versions or fingerprints), so nothing any
    reader can observe changes except dead bytes disappearing.

    Safe against concurrent appenders: they block on the lock for the
    duration and re-attach to the replacement file afterwards (every
    :class:`ResultStore` re-checks descriptor-vs-path identity under the
    lock before writing).  Readers holding the old file open keep a
    consistent snapshot of the old inode.

    ``output_format`` rewrites into a different format in place — the
    compacting flavour of :func:`convert_store`.  Returns a stats dict
    (``entries``, ``live``, ``dead``, ``corrupt``, ``bytes_before``,
    ``bytes_after``, ``format``).
    """
    path, source = _store_file(path, format)
    target = _lookup_format(output_format) if output_format else source
    fd = _lock_path_exclusive(path)
    try:
        raw = path.read_bytes()
        live: dict[tuple[str, str, int], dict] = {}
        entries = corrupt = 0
        for _offset, _length, entry in source.scan(raw, path):
            if entry is None:
                corrupt += 1
                continue
            entries += 1
            # Last write wins; dict update keeps first-occurrence order, so
            # the compacted file streams in the same order as the original
            # (StoreRecordSource pins re-recorded points to their first
            # position for exactly this reason).
            live[_entry_identity(entry)] = entry
        image = bytearray(target.header)
        for entry in live.values():
            image += target.encode_entry(entry)
        _write_replace(path, image, "compact")
    finally:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
    return {
        "path": str(path),
        "format": target.name,
        "entries": entries,
        "live": len(live),
        "dead": entries - len(live),
        "corrupt": corrupt,
        "bytes_before": len(raw),
        "bytes_after": len(image),
    }


def convert_store(
    source: str | Path, destination: str | Path, format: str
) -> dict:
    """Rewrite the store at ``source`` into ``format`` at ``destination``.

    Every usable entry is carried over in file order — superseded
    duplicates included — so a round trip (``jsonl`` → ``binary`` →
    ``jsonl``) reproduces the original file byte-for-byte; corrupt units
    are dropped and counted.  The snapshot is read under the store's shared
    lock, so it is consistent with concurrent appenders; the destination is
    written aside and atomically moved into place.  Returns a stats dict.
    """
    source, source_format = _store_file(source)
    destination = Path(destination)
    if source.resolve() == destination.resolve():
        raise StoreError(
            "convert_store cannot rewrite a store onto itself "
            "(use compact_store/`dmexplore store compact` with a format "
            "to re-encode in place)"
        )
    target = _lookup_format(format)
    fd = os.open(source, os.O_RDONLY)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_SH)
        raw = source.read_bytes()
    finally:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
    entries = corrupt = 0
    image = bytearray(target.header)
    for _offset, _length, entry in source_format.scan(raw, source):
        if entry is None:
            corrupt += 1
            continue
        entries += 1
        image += target.encode_entry(entry)
    destination.parent.mkdir(parents=True, exist_ok=True)
    _write_replace(destination, image, "convert")
    return {
        "source": str(source),
        "path": str(destination),
        "source_format": source_format.name,
        "format": target.name,
        "entries": entries,
        "corrupt": corrupt,
        "bytes_before": len(raw),
        "bytes_after": len(image),
    }


def store_info(path: str | Path) -> dict:
    """Summarise a store file: format, size and entry/live/dead/corrupt counts.

    Walks the file one unit at a time (payloads are parsed transiently for
    validation, never retained), so it is safe on stores far larger than
    memory would like to hold as records.
    """
    path, fmt = _store_file(path)
    raw = path.read_bytes()
    seen: set[tuple[str, str, int]] = set()
    entries = corrupt = 0
    for _offset, _length, entry in fmt.scan(raw, path):
        if entry is None:
            corrupt += 1
            continue
        entries += 1
        seen.add(_entry_identity(entry))
    return {
        "path": str(path),
        "format": fmt.name,
        "size_bytes": len(raw),
        "entries": entries,
        "live": len(seen),
        "dead": entries - len(seen),
        "corrupt": corrupt,
    }


# -- streaming a store back as records ---------------------------------------


class StoreRecordSource:
    """Re-iterable record stream over one evaluation context of a store file.

    Construction scans the file once and builds an *offset index*: for every
    entry whose fingerprint and metric version match, the byte offset of the
    winning (= last) unit per parameter point — the same last-write-wins
    rule :class:`ResultStore` applies at load time, but keeping only a pair
    of integers per point instead of the record payload.  Iteration then
    seeks to each winning unit and parses records one at a time, so the
    stream serves arbitrarily many passes in O(1) record memory.  Both
    store formats stream identically (the payload bytes are the same).

    With ``space`` given, points outside the space are filtered out, the
    stream is ordered by global enumeration index, and each yielded record
    carries that index — i.e. the stream is record-for-record identical to
    iterating the :class:`~repro.core.results.ResultDatabase` a single
    exhaustive run (or a shard merge) over the same space would produce.
    Without a space, entries stream in file (append) order.

    Corrupt units are skipped and counted (``corrupt_entries``), entries of
    other fingerprints/versions under ``foreign_entries``, points outside
    the space under ``outside_space``.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        space: ParameterSpace | None = None,
        metric_version: int = METRIC_VERSION,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.space = space
        self.metric_version = metric_version
        self.corrupt_entries = 0
        self.foreign_entries = 0
        self.outside_space = 0
        if self.path.exists() and self.path.is_dir():
            raise StoreError(f"store path {self.path} is a directory")
        self.format = detect_format(self.path) or "jsonl"
        store_format = _lookup_format(self.format)
        # point-json -> (global index or file position, offset, length)
        index: dict[str, tuple[int, int, int]] = {}
        if self.path.exists():
            raw = self.path.read_bytes()
            position = 0
            for offset, length, entry in store_format.scan(raw, self.path):
                if entry is None:
                    self.corrupt_entries += 1
                    continue
                owner, point_json, version = _entry_identity(entry)
                if owner != fingerprint or version != metric_version:
                    self.foreign_entries += 1
                    continue
                if space is not None:
                    try:
                        order = space.index_of(json.loads(point_json))
                    except (KeyError, ValueError):
                        self.outside_space += 1
                        continue
                else:
                    order = position
                position += 1
                # Last write wins, but (without a space) the stream
                # keeps the position of the *first* occurrence so a
                # re-recorded point does not move to the tail.
                known = index.get(point_json)
                if known is not None and space is None:
                    order = known[0]
                index[point_json] = (order, offset, length)
        self._plan = sorted(index.values())

    def __len__(self) -> int:
        return len(self._plan)

    def __iter__(self) -> Iterator[ExplorationRecord]:
        if not self._plan:
            return
        with open(self.path, "rb") as handle:
            for order, offset, length in self._plan:
                handle.seek(offset)
                data = handle.read(length)
                decoded = _decode_entry(data)
                if decoded is None:  # pragma: no cover - file changed under us
                    raise StoreError(
                        f"store entry at offset {offset} of {self.path} changed "
                        "after indexing"
                    )
                record = ExplorationRecord.from_dict(decoded[1]["record"])
                if self.space is not None:
                    record.index = order
                yield record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StoreRecordSource(path={str(self.path)!r}, entries={len(self._plan)}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


# -- merging shard artefacts -------------------------------------------------


def merge_databases(
    databases: list[ResultDatabase], name: str | None = None
) -> ResultDatabase:
    """Union result artefacts from sharded runs into one database.

    Every input must carry :class:`~repro.core.results.Provenance` and all
    provenances must be mutually compatible (same evaluation fingerprint,
    parameter space, metric version and sampling settings); two artefacts
    recording the same parameter point are rejected as overlapping shards.
    Records are re-ordered by their global point index in the parameter
    space — the enumeration order of a single exhaustive run — so merging
    the shards of a partition reproduces the single-run database (and its
    Pareto front) exactly.  For a partition whose shards ran cold the
    merged artefact is byte-identical with the single run's JSON; shards
    answered from a warm result store produce the same records and Pareto
    front but smaller cache counters (they profiled less).

    Raises :class:`MergeError` on any incompatibility.
    """
    if not databases:
        raise MergeError("nothing to merge: no result databases given")
    reference = databases[0].provenance
    if reference is None:
        raise MergeError(
            f"artefact '{databases[0].name}' has no provenance; it was not "
            "produced by a shard-aware exploration run"
        )
    for database in databases[1:]:
        provenance = database.provenance
        if provenance is None:
            raise MergeError(
                f"artefact '{database.name}' has no provenance; it was not "
                "produced by a shard-aware exploration run"
            )
        if provenance.fingerprint != reference.fingerprint:
            raise MergeError(
                f"artefact '{database.name}' was produced from a different "
                f"workload/platform (fingerprint {provenance.fingerprint[:12]}… "
                f"!= {reference.fingerprint[:12]}…)"
            )
        if provenance.space != reference.space:
            raise MergeError(
                f"artefact '{database.name}' explored a different parameter space"
            )
        if not provenance.compatible_with(reference):
            raise MergeError(
                f"artefact '{database.name}' is incompatible with "
                f"'{databases[0].name}' (metric version, sampling settings "
                "or experiment spec differ)"
            )
    # Spec-hash agreement must hold across *all* inputs, not just pairwise
    # against the reference: an empty hash (pre-spec artefact or direct
    # engine run) is a wildcard, but two different non-empty hashes are two
    # different experiments even when a hashless reference sits between.
    spec_hashes = {
        database.provenance.spec_hash
        for database in databases
        if database.provenance is not None and database.provenance.spec_hash
    }
    if len(spec_hashes) > 1:
        raise MergeError(
            "artefacts were produced by different experiments "
            "(their spec hashes differ)"
        )
    merged_spec_hash = spec_hashes.pop() if spec_hashes else ""
    space = ParameterSpace.from_dict(reference.space)
    indexed: dict[int, tuple[ExplorationRecord, str]] = {}
    for database in databases:
        for record in database:
            index = space.index_of(record.parameters)
            if index in indexed:
                _, other = indexed[index]
                raise MergeError(
                    f"point {index} appears in both '{other}' and "
                    f"'{database.name}': shards overlap"
                )
            indexed[index] = (record, database.name)
    merged = ResultDatabase(name=name or databases[0].name)
    for index in sorted(indexed):
        merged.add(indexed[index][0])
    # Cache counters sum meaningfully: total profiled work across the
    # shards equals what a single cold run would have profiled, which keeps
    # a cold-partition merge byte-identical with the single-run artefact.
    # Store counters do NOT survive the merge: they describe how each shard
    # *executed* (its private store's hits/loads), not what it produced, and
    # e.g. summing `loaded` over shards sharing one store would triple-count.
    merged.cache_hits = sum(database.cache_hits for database in databases)
    merged.cache_misses = sum(database.cache_misses for database in databases)
    merged.provenance = Provenance(
        fingerprint=reference.fingerprint,
        space=reference.space,
        metric_version=reference.metric_version,
        sample=reference.sample,
        sample_seed=reference.sample_seed,
        shard="",
        spec_hash=merged_spec_hash,
    )
    return merged


def load_and_merge(paths: list[str | Path], name: str | None = None) -> ResultDatabase:
    """Load JSON artefacts from ``paths`` and :func:`merge_databases` them."""
    return merge_databases([ResultDatabase.from_json(path) for path in paths], name=name)
