"""Coordinator of the distributed exploration service.

The 2006 paper's exhaustive sweep is embarrassingly parallel; this module
turns the existing seams — :class:`~repro.api.ExperimentSpec` as the job
description, contiguous enumeration ranges as the unit of work, the
concurrent-writer-safe :class:`~repro.core.store.ResultStore` as the data
plane — into a real multi-host mode.  One coordinator process:

1. resolves the experiment spec (trace, space, fingerprint, store path),
2. partitions the enumeration ``[0, total)`` into contiguous **ranges**,
3. **leases** ranges to workers over the length-prefixed JSON protocol of
   :mod:`repro.distrib.protocol` (the socket is the *control* plane only —
   results always travel through the shared result store),
4. expires leases whose worker stopped heartbeating (or disconnected) and
   hands the range to the next worker, which resumes from the store and
   re-evaluates only the points the dead worker never committed,
5. verifies store coverage of every completed range, re-leasing anything a
   torn write lost, and
6. assembles the final :class:`~repro.core.results.ResultDatabase` from
   the store in global enumeration order.

The final artefact is **byte-identical to the single-host exhaustive run**
of the same experiment: records, labels, indexes, order, Pareto fronts and
provenance all match, whatever the fault history.  Cache counters describe
the *canonical* cold run (``misses == records``, no store section) rather
than the distributed execution — exactly the normalisation
:func:`~repro.core.store.merge_databases` applies to store counters: how
the sweep was executed (who profiled, who reused) is execution detail, not
part of what the experiment produced.  The per-worker execution statistics
are printed to the coordinator log instead.

Message types
-------------

===========  =========  ==================================================
type         direction  meaning
===========  =========  ==================================================
hello        w -> c     worker introduces itself (``worker`` name,
                        ``spec_hash`` of its local spec or ``""``)
welcome      c -> w     spec document (store path resolved), engine
                        ``fingerprint``, ``heartbeat_interval``
reject       c -> w     hello refused (mismatched ``spec_hash``)
request      w -> c     give me work
lease        c -> w     evaluate ``[start, stop)`` under ``lease_id``
wait         w -> c     nothing leasable now; poll again shortly
done         c -> w     the sweep is complete; disconnect
heartbeat    w -> c     still evaluating ``lease_id``
ack          c -> w     heartbeat/completion accepted
expired      c -> w     the lease was re-assigned; abandon it
complete     w -> c     every point of ``lease_id`` is committed
===========  =========  ==================================================
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field

from pathlib import Path

from ..api.experiment import Experiment, ResolvedExperiment
from ..api.spec import ExperimentSpec
from ..core.results import ResultDatabase
from ..core.store import ResultStore, default_store_path
from .protocol import MessageBuffer, ProtocolError, encode_message


def _print_flushed(line: str) -> None:
    """Default log consumer: print and flush (pipes are block-buffered)."""
    print(line, flush=True)

#: Default seconds without a heartbeat before a lease is re-assigned.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Fraction of the lease timeout between worker heartbeats — six beats per
#: timeout window, so one dropped beat never expires a healthy worker.
HEARTBEAT_FRACTION = 6.0

#: Seconds the coordinator keeps answering ``done`` after the sweep
#: finished, so workers mid-request disconnect cleanly and workers that
#: start late (after the others finished the sweep) join and exit 0
#: instead of finding the port closed.
DRAIN_GRACE = 2.0


class DistribError(RuntimeError):
    """A spec or environment that cannot run as a distributed sweep."""


def auto_lease_size(total: int) -> int:
    """Points per lease when the spec does not fix one.

    Small enough that a cluster of a few workers re-balances on loss (16+
    leases per sweep), large enough to amortise the per-lease round trip.
    """
    return max(1, total // 16)


@dataclass
class RangeState:
    """One contiguous slice of the enumeration and its lease lifecycle."""

    range_id: int
    start: int
    stop: int
    status: str = "pending"  # pending | leased | done
    lease_id: int = -1
    worker: str = ""
    deadline: float = 0.0

    @property
    def label(self) -> str:
        return f"[{self.start},{self.stop})"


@dataclass
class _Connection:
    """Per-socket state of the coordinator's event loop."""

    sock: socket.socket
    address: str
    buffer: MessageBuffer = field(default_factory=MessageBuffer)
    worker: str = ""  # set by hello
    greeted: bool = False


class Coordinator:
    """Serve one experiment's exhaustive sweep to elastic workers.

    Parameters
    ----------
    spec:
        The experiment to distribute.  Must be exhaustive (no heuristic
        strategy, no ``shard``, no ``sample``) — ranges partition the full
        enumeration.  Serve parameters (``host``/``port``/``lease_size``/
        ``lease_timeout``) come from the spec's ``serve`` ref unless
        overridden here.
    host / port / lease_size / lease_timeout:
        Overrides of the spec's serve parameters (``port`` 0 binds an
        ephemeral port; the chosen one is announced and available as
        ``self.address``).
    store_path:
        Override of the spec's store path.  The spec's ``jsonl`` store is
        used when it names one; a spec without a store falls back to the
        shared per-user default, exactly like ``explore --store``.
    log:
        Line consumer for progress output (``print`` by default).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        host: str | None = None,
        port: int | None = None,
        lease_size: int | None = None,
        lease_timeout: float | None = None,
        store_path: str | None = None,
        log=_print_flushed,
    ) -> None:
        spec.validate()
        if spec.strategy.name != "exhaustive":
            raise DistribError(
                "the distributed service leases slices of the exhaustive "
                f"enumeration; strategy '{spec.strategy.name}' cannot be served"
            )
        if spec.shard:
            raise DistribError(
                "a served experiment must cover the whole enumeration; "
                f"drop shard '{spec.shard}' (the coordinator partitions itself)"
            )
        if spec.sample is not None:
            raise DistribError(
                "a served experiment must be exhaustive; drop the sample setting"
            )
        serve = dict(spec.serve.params)
        self.spec = spec
        self.host = host if host is not None else serve.get("host", "127.0.0.1")
        self.port = port if port is not None else int(serve.get("port", 0))
        self.lease_timeout = float(
            lease_timeout
            if lease_timeout is not None
            else serve.get("lease_timeout", DEFAULT_LEASE_TIMEOUT)
        )
        if self.lease_timeout <= 0:
            raise DistribError("lease_timeout must be positive")
        self.heartbeat_interval = self.lease_timeout / HEARTBEAT_FRACTION
        self.log = log
        # The spec's store kind decides the on-disk format of the shared
        # store; a spec without a persistent store serves over jsonl.
        self._store_format = (
            spec.store.name if spec.store.name in ("jsonl", "binary") else "jsonl"
        )
        self._store_path = str(
            store_path
            or (
                spec.store.name in ("jsonl", "binary")
                and spec.store.params.get("path")
            )
            or default_store_path(self._store_format)
        )
        # Resolve once: trace, space, engine (its fingerprint and provenance
        # stamping), and the store the final artefact is assembled from.
        # Only the coordinator's own store carries the auto_compact
        # threshold — the announced worker document stays threshold-free,
        # so workers never race each other rewriting the shared file.
        document = self._spec_document()
        threshold = spec.store.params.get("auto_compact")
        if threshold is not None:
            document["store"]["params"]["auto_compact"] = threshold
        self._resolved: ResolvedExperiment = Experiment(
            spec.from_dict(document)
        ).resolve()
        self.store: ResultStore = self._resolved.store  # type: ignore[assignment]
        assert self.store is not None
        self.total = self._resolved.space.size()
        size = int(
            lease_size
            if lease_size is not None
            else serve.get("lease_size", 0)
        ) or auto_lease_size(self.total)
        if size < 1:
            raise DistribError("lease_size must be >= 1")
        self.ranges = [
            RangeState(range_id=i, start=start, stop=min(start + size, self.total))
            for i, start in enumerate(range(0, self.total, size))
        ]
        self._pending: list[int] = [r.range_id for r in self.ranges]
        self._next_lease_id = 0
        self._lease_ranges: dict[int, RangeState] = {}
        self.address: tuple[str, int] | None = None
        self.database: ResultDatabase | None = None
        self.stats = {
            "leases_granted": 0,
            "leases_expired": 0,
            "leases_requeued_on_disconnect": 0,
            "ranges_releases_after_verify": 0,
            "auto_compactions": 0,
            "workers_seen": set(),
        }
        self._selector: selectors.BaseSelector | None = None
        self._listener: socket.socket | None = None
        self._connections: dict[socket.socket, _Connection] = {}
        # Workers are only told "done" after the store-coverage check has
        # passed: a premature "done" would let every worker exit while a
        # torn-write range still needs re-leasing, wedging the sweep.
        self._verified = False

    # -- spec plumbing -----------------------------------------------------

    def _spec_document(self) -> dict:
        """The spec document workers run: store pinned to the shared path."""
        document = self.spec.to_dict()
        document["store"] = {
            "name": self._store_format,
            "params": {"path": self._store_path},
        }
        return document

    @property
    def spec_hash(self) -> str:
        """Canonical hash workers must match (store-independent)."""
        return self.spec.spec_hash()

    @property
    def fingerprint(self) -> str:
        """Evaluation fingerprint every worker must reproduce exactly."""
        return self._resolved.engine.fingerprint

    # -- the event loop ----------------------------------------------------

    def serve(self) -> ResultDatabase:
        """Run the sweep to completion and return the assembled database."""
        self._open()
        try:
            while not self._finished():
                self._poll()
            self.database = self._assemble()
            self._broadcast_done()
        finally:
            self._close()
        return self.database

    def _open(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self.address = listener.getsockname()[:2]
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self.log(
            f"coordinator: listening on {self.address[0]}:{self.address[1]} "
            f"({self.total} points, {len(self.ranges)} ranges, "
            f"lease timeout {self.lease_timeout:g}s)")

    def _poll(self) -> None:
        assert self._selector is not None
        timeout = self._next_deadline_delay()
        for key, _mask in self._selector.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
            else:
                self._service(self._connections[key.fileobj])  # type: ignore[index]
        self._expire_leases()

    def _next_deadline_delay(self) -> float:
        deadlines = [
            r.deadline for r in self.ranges if r.status == "leased"
        ]
        if not deadlines:
            return 0.5
        return max(0.05, min(min(deadlines) - time.monotonic(), 0.5))

    def _accept(self) -> None:
        assert self._listener is not None and self._selector is not None
        sock, address = self._listener.accept()
        sock.setblocking(True)  # reads are gated on readability; sends are tiny
        connection = _Connection(sock=sock, address=f"{address[0]}:{address[1]}")
        self._connections[sock] = connection
        self._selector.register(sock, selectors.EVENT_READ)

    def _service(self, connection: _Connection) -> None:
        try:
            data = connection.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._disconnect(connection, "connection lost")
            return
        connection.buffer.feed(data)
        try:
            messages = connection.buffer.take()
        except ProtocolError as error:
            self.log(f"coordinator: dropping {connection.address}: {error}")
            self._disconnect(connection, "protocol error")
            return
        for message in messages:
            self._handle(connection, message)

    def _disconnect(self, connection: _Connection, reason: str) -> None:
        assert self._selector is not None
        requeued = 0
        for state in self.ranges:
            if state.status == "leased" and state.worker == connection.worker:
                self._requeue(state)
                self.stats["leases_requeued_on_disconnect"] += 1
                requeued += 1
        if connection.worker:
            self.log(
                f"coordinator: worker {connection.worker} gone ({reason}); "
                f"requeued {requeued} lease(s)")
        self._selector.unregister(connection.sock)
        del self._connections[connection.sock]
        try:
            connection.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # -- message handling --------------------------------------------------

    def _handle(self, connection: _Connection, message: dict) -> None:
        kind = message.get("type")
        if kind == "hello":
            self._handle_hello(connection, message)
        elif not connection.greeted:
            self._disconnect(connection, f"'{kind}' before hello")
        elif kind == "request":
            self._handle_request(connection)
        elif kind == "heartbeat":
            self._handle_heartbeat(connection, message)
        elif kind == "complete":
            self._handle_complete(connection, message)
        else:
            self._disconnect(connection, f"unknown message type {kind!r}")

    def _handle_hello(self, connection: _Connection, message: dict) -> None:
        worker = str(message.get("worker") or connection.address)
        claimed = str(message.get("spec_hash") or "")
        if claimed and claimed != self.spec_hash:
            self._send(
                connection,
                {
                    "type": "reject",
                    "reason": (
                        f"spec hash mismatch: worker runs {claimed[:12]}..., "
                        f"coordinator serves {self.spec_hash[:12]}..."
                    ),
                })
            self._disconnect(connection, "spec hash mismatch")
            return
        connection.worker = worker
        connection.greeted = True
        self.stats["workers_seen"].add(worker)
        self.log(f"coordinator: worker {worker} joined")
        self._send(
            connection,
            {
                "type": "welcome",
                "spec": self._spec_document(),
                "spec_hash": self.spec_hash,
                "fingerprint": self.fingerprint,
                "heartbeat_interval": self.heartbeat_interval,
            })

    def _handle_request(self, connection: _Connection) -> None:
        state = self._next_pending()
        if state is None:
            if self._verified:
                self._send(connection, {"type": "done"})
            else:
                # Poll again shortly: leased ranges may still be re-queued
                # (expiry, disconnect, failed coverage verification).
                self._send(connection, {"type": "wait", "delay": 0.25})
            return
        self._next_lease_id += 1
        state.status = "leased"
        state.lease_id = self._next_lease_id
        state.worker = connection.worker
        state.deadline = time.monotonic() + self.lease_timeout
        self._lease_ranges[state.lease_id] = state
        self.stats["leases_granted"] += 1
        self.log(
            f"coordinator: lease {state.lease_id} {state.label} "
            f"-> {connection.worker}")
        self._send(
            connection,
            {
                "type": "lease",
                "lease_id": state.lease_id,
                "start": state.start,
                "stop": state.stop,
            })

    def _handle_heartbeat(self, connection: _Connection, message: dict) -> None:
        lease_id = message.get("lease_id")
        state = self._lease_ranges.get(lease_id)
        if (
            state is None
            or state.lease_id != lease_id
            or state.status != "leased"
            or state.worker != connection.worker
        ):
            self._send(connection, {"type": "expired", "lease_id": lease_id})
            return
        state.deadline = time.monotonic() + self.lease_timeout
        self._send(connection, {"type": "ack", "lease_id": lease_id})

    def _handle_complete(self, connection: _Connection, message: dict) -> None:
        lease_id = message.get("lease_id")
        state = self._lease_ranges.get(lease_id)
        if state is None:
            self._send(connection, {"type": "ack", "lease_id": lease_id})
            return
        # A completion always counts, even when the lease expired and the
        # range was re-assigned meanwhile: the points are committed to the
        # store either way (and verified there before the sweep finishes).
        if state.status != "done":
            if state.status == "pending":
                self._pending.remove(state.range_id)
            state.status = "done"
            done = sum(1 for r in self.ranges if r.status == "done")
            self.log(
                f"coordinator: range {state.label} complete "
                f"({connection.worker}, {done}/{len(self.ranges)} ranges)")
            self._maybe_compact()
        self._send(connection, {"type": "ack", "lease_id": lease_id})

    def _maybe_compact(self) -> None:
        """Compact the shared store between lease completions when due.

        Workers re-evaluating a re-leased range append superseded entries;
        over a long elastic sweep those dead entries accumulate in the
        shared file.  Each range completion is a natural quiet point: the
        coordinator catches up on the appended tail and, when the dead
        count has crossed the store's ``auto_compact`` threshold, rewrites
        the file down to its live set (atomic replace — workers' readers
        pick the new inode up on their next refresh).  A store opened
        without ``auto_compact`` is never touched.
        """
        if self.store.auto_compact is None:
            return
        self.store.refresh()
        if self.store.dead_entries < self.store.auto_compact:
            return
        stats = self.store.compact()
        self.stats["auto_compactions"] += 1
        self.log(
            f"coordinator: store compacted ({stats['dead']} dead of "
            f"{stats['entries']} entries dropped, "
            f"{stats['bytes_before']} -> {stats['bytes_after']} bytes)")

    # -- lease bookkeeping -------------------------------------------------

    def _next_pending(self) -> RangeState | None:
        if not self._pending:
            return None
        # Lowest start first: deterministic assignment and tidy progress.
        self._pending.sort(key=lambda rid: self.ranges[rid].start)
        return self.ranges[self._pending.pop(0)]

    def _requeue(self, state: RangeState) -> None:
        state.status = "pending"
        state.worker = ""
        state.deadline = 0.0
        self._pending.append(state.range_id)

    def _expire_leases(self) -> None:
        now = time.monotonic()
        for state in self.ranges:
            if state.status == "leased" and state.deadline <= now:
                self.stats["leases_expired"] += 1
                self.log(
                    f"coordinator: lease {state.lease_id} {state.label} of "
                    f"{state.worker} expired; requeued")
                self._requeue(state)

    def _all_done(self) -> bool:
        return all(state.status == "done" for state in self.ranges)

    def _finished(self) -> bool:
        """True when every range is done *and* the store really covers it.

        Completion messages are claims; the store is the truth.  Before the
        sweep can finish, the coordinator refreshes the store and probes
        every point of every completed range — anything missing (a torn
        write, a worker that lied) is re-leased instead of silently lost.
        """
        if not self._all_done():
            return False
        self.store.refresh()
        engine = self._resolved.engine
        missing = self.store.missing_points(
            engine.fingerprint, engine.points_in_range(0, self.total)
        )
        if not missing:
            self._verified = True
            return True
        lost = {index for index, _point in missing}
        for state in self.ranges:
            if any(state.start <= index < state.stop for index in lost):
                self.log(
                    f"coordinator: range {state.label} incomplete in the store "
                    "(torn write?); re-leasing")
                self.stats["ranges_releases_after_verify"] += 1
                self._requeue(state)
        return False

    # -- finalisation ------------------------------------------------------

    def _assemble(self) -> ResultDatabase:
        """Build the canonical artefact from the store, enumeration-ordered.

        Record-for-record this is what a single-host exhaustive run
        produces: same labels (workers label by global enumeration index),
        same order, same indexes (assigned by ``add``), same provenance.
        The cache counters are set to the canonical cold form — profiled
        work equals the record count, exactly like a cold single run and
        like a cold shard merge.
        """
        self.store.refresh()
        engine = self._resolved.engine
        database = ResultDatabase(name=f"{self._resolved.trace.name}-exploration")
        for index, point in engine.points_in_range(0, self.total):
            record = self.store.get(engine.fingerprint, point)
            if record is None:  # pragma: no cover - _finished() guarantees it
                raise DistribError(
                    f"store lost point {index} between verification and assembly"
                )
            database.add(record)
            if self._resolved.sink is not None:
                self._resolved.sink.accept(record)
        database.cache_hits = 0
        database.cache_misses = len(database)
        engine._attach_provenance(database)
        workers = sorted(self.stats["workers_seen"])
        self.log(
            f"coordinator: sweep complete: {len(database)} records from "
            f"{len(workers)} worker(s) {workers}; "
            f"{self.stats['leases_granted']} leases granted, "
            f"{self.stats['leases_expired']} expired, "
            f"{self.stats['leases_requeued_on_disconnect']} requeued on disconnect")
        return database

    def _broadcast_done(self) -> None:
        """Tell every connected worker to disconnect, then drain briefly.

        The listener stays open for the whole window even when no worker is
        connected: a worker may still be starting up, and the coordinator
        cannot know how many will join.
        """
        assert self._selector is not None
        for connection in list(self._connections.values()):
            if connection.greeted:
                self._send(connection, {"type": "done"})
        deadline = time.monotonic() + DRAIN_GRACE
        while time.monotonic() < deadline:
            for key, _mask in self._selector.select(0.05):
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._service(self._connections[key.fileobj])  # type: ignore[index]

    def _send(self, connection: _Connection, message: dict) -> None:
        """Write one message to a worker (override point for fault tests)."""
        try:
            connection.sock.sendall(encode_message(message))
        except OSError:
            self._disconnect(connection, "send failed")

    def _close(self) -> None:
        for connection in list(self._connections.values()):
            self._disconnect(connection, "coordinator shutting down")
        if self._selector is not None and self._listener is not None:
            self._selector.unregister(self._listener)
            self._listener.close()
            self._listener = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self._resolved.engine.close()
        self.store.close()


def serve_experiment(
    spec: ExperimentSpec, out: str | Path | None = None, **options
) -> ResultDatabase:
    """One-shot helper: build a :class:`Coordinator`, serve, optionally save.

    ``options`` are the coordinator's keyword parameters.  Raises
    :class:`DistribError` (or :class:`~repro.api.spec.SpecError`) on an
    unservable spec.
    """
    coordinator = Coordinator(spec, **options)
    database = coordinator.serve()
    if out is not None:
        database.to_json(out)
    return database
