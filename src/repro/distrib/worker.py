"""Worker of the distributed exploration service.

A worker is a thin loop around the existing evaluation stack: it connects
to a :class:`~repro.distrib.coordinator.Coordinator`, receives the
experiment spec in the welcome message, resolves it through the ordinary
:class:`~repro.api.Experiment` path, and then repeatedly asks for a lease
and evaluates it with :meth:`ExplorationEngine.explore_range`.  Results
never travel over the socket — every record is committed to the shared
:class:`~repro.core.store.ResultStore` the moment it is profiled, so a
worker that dies mid-lease loses nothing it already finished.

Fault behaviour, all inherited from existing machinery rather than added:

* **resume-from-store** — before each lease the worker refreshes its store
  view; the engine's partition stage then answers store-known points
  without re-profiling, so a re-leased range only re-evaluates the points
  the dead predecessor never committed;
* **heartbeats** — the engine's ``progress_callback`` fires per evaluated
  point; the worker piggybacks an interval-gated heartbeat on it.  A
  coordinator answering ``expired`` makes the worker abandon the lease
  (its partial work is already in the store) and request fresh work;
* **spec safety** — the hello carries the worker's ``spec_hash`` when it
  was started from a local experiment file (the coordinator rejects a
  mismatch), and the worker independently refuses to evaluate when its
  resolved engine fingerprint differs from the coordinator's — identical
  specs on different code would silently produce non-reproducible metrics
  otherwise.

Exit codes (the harness and CI scripts key off these): 0 sweep done, 2
rejected by the coordinator, 3 connection lost / protocol error, 4
resolved fingerprint differs from the coordinator's.
"""

from __future__ import annotations

import os
import socket
import time

from ..api.experiment import Experiment, ResolvedExperiment
from ..api.spec import ExperimentSpec
from .coordinator import _print_flushed
from .protocol import ProtocolError, recv_message, send_message

EXIT_DONE = 0
EXIT_REJECTED = 2
EXIT_CONNECTION = 3
EXIT_FINGERPRINT = 4


class _LeaseExpired(Exception):
    """The coordinator re-assigned the lease being evaluated."""


class _ConnectionLost(Exception):
    """The coordinator went away mid-conversation."""


def parse_address(text: str) -> tuple[str, int]:
    """Parse the CLI form ``HOST:PORT`` into a connectable address."""
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"address must look like HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"address port must be an integer, got {port!r}") from None


class Worker:
    """Evaluate leased enumeration ranges for one coordinator.

    Parameters
    ----------
    address:
        The coordinator's ``(host, port)``.
    spec_hash:
        Canonical hash of the spec this worker *expects* to serve (from a
        local copy of the experiment file); empty means "whatever the
        coordinator serves".  A non-empty mismatch is rejected up front.
    name:
        Worker identity in coordinator logs; defaults to ``worker-<pid>``.
    log:
        Line consumer for progress output (flushed ``print`` by default).
    """

    def __init__(
        self,
        address: tuple[str, int],
        spec_hash: str = "",
        name: str = "",
        log=_print_flushed,
    ) -> None:
        self.address = address
        self.expected_spec_hash = spec_hash
        self.name = name or f"worker-{os.getpid()}"
        self.log = log
        self.heartbeat_interval = 5.0  # replaced by the welcome message
        self.leases_completed = 0
        self._sock: socket.socket | None = None
        self._resolved: ResolvedExperiment | None = None
        self._current_lease: int | None = None
        self._last_beat = 0.0
        # The coordinator broadcasts "done" to every connected worker when
        # the sweep finishes, so a worker mid-round-trip may read it where
        # it expected an ack; any reply position may end the sweep.
        self._sweep_done = False

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Serve leases until the coordinator says done; returns exit code."""
        try:
            welcome = self._join()
        except (OSError, ProtocolError, _ConnectionLost) as error:
            self.log(f"{self.name}: cannot join coordinator: {error}")
            return EXIT_CONNECTION
        if welcome.get("type") == "reject":
            self.log(
                f"{self.name}: rejected: {welcome.get('reason', 'no reason given')}"
            )
            self._close()
            return EXIT_REJECTED
        spec = ExperimentSpec.from_dict(welcome["spec"])
        self.heartbeat_interval = float(welcome.get("heartbeat_interval", 5.0))
        resolved = self._resolve(spec)
        if resolved.engine.fingerprint != welcome.get("fingerprint"):
            self.log(
                f"{self.name}: evaluation fingerprint mismatch — this host "
                "would produce different metrics for the same spec; refusing"
            )
            self._close()
            return EXIT_FINGERPRINT
        try:
            return self._serve_leases()
        except (OSError, ProtocolError, _ConnectionLost) as error:
            self.log(f"{self.name}: connection lost: {error}")
            return EXIT_CONNECTION
        finally:
            self._close()

    def _join(self) -> dict:
        self._sock = socket.create_connection(self.address, timeout=None)
        send_message(
            self._sock,
            {
                "type": "hello",
                "worker": self.name,
                "spec_hash": self.expected_spec_hash,
            },
        )
        return self._recv()

    def _resolve(self, spec: ExperimentSpec) -> ResolvedExperiment:
        self._resolved = Experiment(spec).resolve()
        assert self._resolved.store is not None  # the coordinator pinned a path
        self._prepare_store(self._resolved.store)
        self._resolved.engine.progress_callback = self._progress
        return self._resolved

    def _prepare_store(self, store) -> None:
        """Hook between store open and first lease (fault tests wrap it)."""

    def _close(self) -> None:
        if self._resolved is not None:
            self._resolved.engine.close()
            if self._resolved.store is not None:
                self._resolved.store.close()
            sink = self._resolved.sink
            if sink is not None and hasattr(sink, "finish"):
                sink.finish()
            self._resolved = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    # -- the lease loop ----------------------------------------------------

    def _serve_leases(self) -> int:
        while not self._sweep_done:
            reply = self._request({"type": "request"})
            kind = reply.get("type")
            if kind == "lease":
                self._run_lease(reply)
            elif kind == "wait":
                time.sleep(float(reply.get("delay", 1.0)))
            elif kind == "done":
                self._sweep_done = True
            else:
                raise _ConnectionLost(f"unexpected reply of type {kind!r}")
        self.log(
            f"{self.name}: sweep complete after "
            f"{self.leases_completed} lease(s)"
        )
        return EXIT_DONE

    def _run_lease(self, lease: dict) -> None:
        assert self._resolved is not None
        lease_id = int(lease["lease_id"])
        start, stop = int(lease["start"]), int(lease["stop"])
        engine = self._resolved.engine
        store = self._resolved.store
        assert store is not None
        self._current_lease = lease_id
        self._last_beat = time.monotonic()
        # Pick up everything other workers committed since the last lease:
        # the engine's partition stage answers store-known points without
        # re-profiling them (this is what makes a re-leased range cheap —
        # only the dead worker's uncommitted tail is fresh work).
        store.refresh()
        try:
            database = engine.explore_range(start, stop, sink=self._resolved.sink)
        except _LeaseExpired:
            self.log(
                f"{self.name}: lease {lease_id} [{start},{stop}) expired "
                "mid-evaluation; abandoning (committed points are kept)"
            )
            self._current_lease = None
            return
        self._current_lease = None
        self.log(
            f"{self.name}: lease {lease_id} [{start},{stop}) done: "
            f"{database.cache_misses} profiled, {database.store_hits} from "
            f"store, {database.cache_hits} cached"
        )
        self._lease_complete(lease_id)
        self.leases_completed += 1

    def _lease_complete(self, lease_id: int) -> None:
        """Report a fully committed lease (fault tests kill around this)."""
        reply = self._request({"type": "complete", "lease_id": lease_id})
        if reply.get("type") == "done":
            # A done broadcast outran our ack: the sweep finished while the
            # completion was in flight (our points were recovered from the
            # store by another worker).  Exit after this lease.
            self._sweep_done = True

    # -- heartbeating ------------------------------------------------------

    def _progress(self, completed: int, total: int) -> None:
        """Per-point engine callback: heartbeat when the interval elapsed."""
        if self._current_lease is None:
            return
        now = time.monotonic()
        if now - self._last_beat < self.heartbeat_interval:
            return
        self._last_beat = now
        self._send_heartbeat(self._current_lease)

    def _send_heartbeat(self, lease_id: int) -> None:
        """One heartbeat round trip (fault tests drop or delay this)."""
        reply = self._request({"type": "heartbeat", "lease_id": lease_id})
        kind = reply.get("type")
        if kind == "done":
            self._sweep_done = True
            raise _LeaseExpired(lease_id)
        if kind == "expired":
            raise _LeaseExpired(lease_id)

    # -- plumbing ----------------------------------------------------------

    def _request(self, message: dict) -> dict:
        assert self._sock is not None
        send_message(self._sock, message)
        return self._recv()

    def _recv(self) -> dict:
        assert self._sock is not None
        reply = recv_message(self._sock)
        if reply is None:
            raise _ConnectionLost("coordinator closed the connection")
        return reply


def run_worker(
    address: tuple[str, int], spec_hash: str = "", name: str = ""
) -> int:
    """One-shot helper: build a :class:`Worker`, run it, return its exit code."""
    return Worker(address, spec_hash=spec_hash, name=name).run()
