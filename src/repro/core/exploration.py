"""Exploration engine: the automated flow of the paper.

Given a parameter space, a workload trace and a memory hierarchy, the engine

1. enumerates the space (exhaustively or by sampling),
2. builds the allocator for every point (:mod:`repro.core.factory`),
3. profiles the trace through it (:mod:`repro.profiling.profiler`),
4. stores the metrics in a :class:`ResultDatabase`,
5. and extracts the Pareto-optimal configurations.

This is the fully automated loop of Figure 1 of the paper; the GUI/plot
outputs live in :mod:`repro.gui` and consume the database produced here.

Point evaluations are independent of each other, so the engine delegates
them to a pluggable :class:`EvaluationBackend`:

* :class:`SerialBackend`      — evaluate the whole batch in-process through
                                the batch replay kernel (the default).
* :class:`ProcessPoolBackend` — fan whole sub-batches out over a
                                ``multiprocessing`` worker pool, one
                                contiguous slice per worker.  Results come
                                back in submission order, so a parallel run
                                produces a :class:`ResultDatabase` identical
                                to the serial one; batches at or below the
                                ``serial_threshold`` run in-process instead.

Independently of the backend, the engine memoises evaluations by the
canonicalised parameter point, so heuristic searches that revisit points
(NSGA-II offspring that repeat a parent) never re-profile the trace;
the cache hit/miss counters are surfaced on the produced databases.

Two further layers make large sweeps practical (see :mod:`repro.core.store`):

* the in-memory cache can be backed by a persistent
  :class:`~repro.core.store.ResultStore` (the L2), so repeated explorations
  of the same workload are incremental across processes and machines;
* exhaustive enumeration can be partitioned with a :class:`ShardSpec`
  (``--shard K/N`` on the CLI) so independent workers each evaluate a
  deterministic slice of the space and their artefacts are merged back with
  :func:`repro.core.store.merge_databases`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pickle
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field, replace
from typing import Protocol, runtime_checkable

from ..memhier.energy import EnergyModel
from ..memhier.hierarchy import MemoryHierarchy, embedded_two_level
from ..profiling.batch import BatchReplayEngine
from ..profiling.compiled import CompiledTrace
from ..profiling.metrics import ProfileResult, metric_keys
from ..profiling.profiler import DEFAULT_PAYLOAD_ACCESS_FACTOR, Profiler
from ..profiling.tracer import AllocationTrace
from .configuration import AllocatorConfiguration, configuration_from_point
from .factory import AllocatorFactory
from .parameters import ParameterSpace
from .results import ExplorationRecord, Provenance, ResultDatabase, ResultSink
from .store import METRIC_VERSION, ResultStore

#: Label of the configuration at enumeration index ``i``:
#: ``f"{LABEL_PREFIX}{i:05d}"`` (exhaustive sweeps and windowed analysis).
LABEL_PREFIX = "cfg"


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a deterministically partitioned enumeration.

    Shard ``index`` (1-based) of ``count`` owns every enumeration position
    ``i`` with ``i % count == index - 1``.  The strided partition keeps the
    shards balanced whatever the enumeration order, and because ownership
    depends only on the position, ``N`` workers running ``1/N .. N/N`` cover
    the space exactly once with no coordination.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"K/N"`` (e.g. ``"2/3"``)."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"shard must look like K/N (e.g. 2/3), got {text!r}")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"shard must look like K/N (e.g. 2/3), got {text!r}"
            ) from None
        return cls(index=index, count=count)

    def owns(self, position: int) -> bool:
        """True when this shard evaluates enumeration position ``position``."""
        return position % self.count == self.index - 1

    def size_of(self, total: int) -> int:
        """How many of ``total`` enumeration positions this shard owns."""
        return len(range(self.index - 1, total, self.count))

    @property
    def label(self) -> str:
        """The ``"K/N"`` form, used in provenance and reports."""
        return f"{self.index}/{self.count}"


@dataclass
class ExplorationSettings:
    """Tunables of an exploration run."""

    metrics: list[str] = field(default_factory=metric_keys)
    sample: int | None = None
    sample_seed: int = 0
    progress_every: int = 0
    shard: ShardSpec | None = None


def canonical_point_key(point: dict) -> tuple:
    """Canonical, hashable form of a parameter point (sorted name/value pairs).

    Two dicts describing the same point — whatever their insertion order —
    map to the same key; this is the memoisation key of the engine cache.
    """
    return tuple(sorted(point.items()))


def _oom_failures(profile: ProfileResult) -> int:
    """Allocations the replay behind ``profile`` failed to serve."""
    return int(profile.per_pool.get("__profile__", {}).get("oom_failures", 0))


def _cached_copy(record: ExplorationRecord, label: str) -> ExplorationRecord:
    """Copy a memoised record for a repeat caller, honouring *their* label.

    The cached record carries the label of whoever profiled the point first
    (e.g. ``nsga2_000012``); a later caller submitting its own label
    (e.g. ``evolutionary_000012``) must not record the point under the
    first caller's identity.  The copy also protects the cache from
    :meth:`ResultDatabase.add` assigning ``record.index`` in place.
    """
    copy = replace(record)
    if label and copy.configuration.label != label:
        copy.configuration = replace(copy.configuration, label=label)
    return copy


# -- evaluation backends -----------------------------------------------------


@runtime_checkable
class EvaluationBackend(Protocol):
    """Strategy object that evaluates a batch of parameter points.

    Implementations must return one :class:`ExplorationRecord` per submitted
    ``(point, label)`` item, **in submission order** — the engine relies on
    that to keep parallel runs byte-identical with serial ones.
    """

    def evaluate(
        self, engine: "ExplorationEngine", items: Sequence[tuple[dict, str]]
    ) -> list[ExplorationRecord]:
        """Profile every ``(point, label)`` item and return ordered records.

        The contract is batch-first: implementations receive the whole
        miss-batch at once so they can hand it to the shared batch replay
        kernel (serial) or carve it into per-worker sub-batches (pool)
        instead of profiling point by point.
        """
        ...

    def close(self) -> None:
        """Release any worker resources (idempotent)."""
        ...


class SerialBackend:
    """Evaluate batches in the calling process via the batch replay kernel."""

    jobs = 1

    def evaluate(
        self, engine: "ExplorationEngine", items: Sequence[tuple[dict, str]]
    ) -> list[ExplorationRecord]:
        return engine.run_points(items)

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


# Per-worker-process engine, installed by the pool initializer.  Module-level
# because ``multiprocessing`` can only dispatch to importable functions.
_WORKER_ENGINE: "ExplorationEngine | None" = None


def _pool_worker_init(engine_payload: bytes, compiled: CompiledTrace) -> None:
    """Install the worker's private engine (once per worker, not per task).

    ``engine_payload`` is the pickled engine state *without* the trace;
    ``compiled`` is the parent's compiled (columnar) trace, which the worker
    wraps without materialising event objects.
    """
    global _WORKER_ENGINE
    state = pickle.loads(engine_payload)
    state["trace"] = AllocationTrace.from_compiled(compiled)
    engine = ExplorationEngine.__new__(ExplorationEngine)
    engine.__setstate__(state)
    _WORKER_ENGINE = engine


def _pool_worker_evaluate_batch(
    items: Sequence[tuple[dict, str]],
) -> list[ExplorationRecord]:
    """Evaluate one sub-batch on the worker's private engine.

    Whole sub-batches (not single points) are the pool's unit of dispatch,
    so each worker's :class:`~repro.profiling.batch.BatchReplayEngine`
    amortises its stream partitions and group simulations across the
    sub-batch — and, because the worker engine is long-lived, across every
    sub-batch the worker ever receives for this trace.
    """
    if _WORKER_ENGINE is None:  # pragma: no cover - defensive
        raise RuntimeError("worker engine not initialised")
    return _WORKER_ENGINE.run_points(items)


class ProcessPoolBackend:
    """Evaluate batches of points on a ``multiprocessing`` worker pool.

    The engine state is shipped **once** per worker through the pool's
    initializer arguments, as two parts: the pickled engine-sans-trace
    state (a few kilobytes, whatever the workload) and the trace's compiled
    columnar form.  ``multiprocessing`` picks the transport: ``fork``
    workers inherit the parent's immutable compiled object, so nothing is
    copied; ``spawn``/``forkserver`` workers unpickle its compact columnar
    form (a few bytes per event).  Tasks carry whole sub-batches of
    points, so each worker scores its sub-batch through its own batch
    replay kernel; results come back in submission order, which keeps
    parallel explorations deterministic and byte-identical with serial
    ones.

    Batches at or below ``serial_threshold`` points never touch the pool:
    worker startup plus IPC costs more than evaluating a handful of points
    in-process (BENCH_eval.json once recorded a 0.72x "speedup" on a small
    sweep), so small batches take the serial batch-kernel path and a
    ``--jobs`` run is never slower than a serial one.

    Parameters
    ----------
    jobs:
        Worker-process count; defaults to ``os.cpu_count()``.
    chunk_size:
        Points per dispatched sub-batch.  Default: batch split into roughly
        four sub-batches per worker, a standard latency/imbalance
        compromise.
    start_method:
        ``multiprocessing`` start method (``fork``/``spawn``/``forkserver``);
        ``None`` uses the platform default.
    serial_threshold:
        Largest batch evaluated in-process instead of on the pool.
        Default: ``4 * jobs`` (below one sub-batch per worker, dispatch
        cannot pay for itself).
    """

    def __init__(
        self,
        jobs: int | None = None,
        chunk_size: int | None = None,
        start_method: str | None = None,
        serial_threshold: int | None = None,
    ) -> None:
        resolved = jobs if jobs is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if serial_threshold is not None and serial_threshold < 0:
            raise ValueError("serial_threshold must be >= 0")
        self.jobs = resolved
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.serial_threshold = (
            serial_threshold if serial_threshold is not None else 4 * resolved
        )
        self._pool: multiprocessing.pool.Pool | None = None
        # Digest of the engine state the current workers were built from.
        # Comparing state (not object identity) makes the pool track any
        # mutation that would change evaluation results — e.g. assigning
        # ``engine.hot_sizes`` between batches, or appending to the trace —
        # so parallel runs can never silently keep profiling against a
        # stale worker snapshot.
        self._pool_state_digest: bytes | None = None

    @staticmethod
    def _engine_payload(engine: "ExplorationEngine") -> bytes:
        """The pickled engine state without its trace.

        O(settings), not O(events) — the regression test asserts it stays
        flat as traces grow; the trace travels separately in compiled form.
        """
        state = engine.__getstate__()
        state.pop("trace")
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    # The pool is created lazily on the first batch and kept while the
    # engine state is unchanged: heuristic searches evaluate many small
    # generations, and re-forking workers per generation would dominate the
    # runtime.  The freshness digest covers the engine-sans-trace payload
    # plus the trace's fingerprint and name, both cheap — the trace itself
    # is never serialised by the parent.
    def _ensure_pool(self, engine: "ExplorationEngine") -> multiprocessing.pool.Pool:
        engine_payload = self._engine_payload(engine)
        compiled = engine.trace.compiled()
        trace_key = (compiled.fingerprint, engine.trace.name)
        digest = hashlib.sha256(
            engine_payload + repr(trace_key).encode()
        ).digest()
        if self._pool is None or self._pool_state_digest != digest:
            self.close()
            context = multiprocessing.get_context(self.start_method)
            self._pool = context.Pool(
                processes=self.jobs,
                initializer=_pool_worker_init,
                initargs=(engine_payload, compiled),
            )
            self._pool_state_digest = digest
        return self._pool

    def _chunk_size_for(self, batch: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(batch / (self.jobs * 4)))

    def evaluate(
        self, engine: "ExplorationEngine", items: Sequence[tuple[dict, str]]
    ) -> list[ExplorationRecord]:
        items = list(items)
        if not items:
            return []
        if self.jobs == 1 or len(items) <= max(1, self.serial_threshold):
            # A pool of one worker only adds IPC overhead, and a small
            # batch cannot amortise worker startup: evaluate in-process.
            return engine.run_points(items)
        pool = self._ensure_pool(engine)
        size = self._chunk_size_for(len(items))
        batches = [items[start : start + size] for start in range(0, len(items), size)]
        results = pool.map(_pool_worker_evaluate_batch, batches, chunksize=1)
        return [record for batch in results for record in batch]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_state_digest = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolBackend(jobs={self.jobs}, chunk_size={self.chunk_size})"


def make_backend(jobs: int | None) -> EvaluationBackend:
    """Backend for a ``--jobs`` style count.

    ``None`` or ``1`` → :class:`SerialBackend`; ``0`` → a
    :class:`ProcessPoolBackend` with one worker per CPU core; ``N > 1`` →
    a pool of ``N`` workers.  Negative counts raise :class:`ValueError`.

    Pool backends keep their serial fallback for small batches (see
    :class:`ProcessPoolBackend`'s ``serial_threshold``), so requesting
    ``--jobs`` for a sweep that turns out to be tiny costs nothing.
    """
    if jobs is None or jobs == 1:
        return SerialBackend()
    if jobs == 0:
        return ProcessPoolBackend()
    return ProcessPoolBackend(jobs=jobs)


# -- the engine --------------------------------------------------------------

class ExplorationEngine:
    """Drives the explore → profile → Pareto pipeline for one workload trace."""

    def __init__(
        self,
        space: ParameterSpace,
        trace: AllocationTrace,
        hierarchy: MemoryHierarchy | None = None,
        hot_sizes: list[int] | None = None,
        settings: ExplorationSettings | None = None,
        energy_model: EnergyModel | None = None,
        progress_callback: Callable[[int, int], None] | None = None,
        backend: EvaluationBackend | None = None,
        store: ResultStore | None = None,
    ) -> None:
        self.space = space
        self.trace = trace
        self.hierarchy = hierarchy or embedded_two_level()
        self.settings = settings or ExplorationSettings()
        self.energy_model = energy_model or EnergyModel(self.hierarchy)
        self.progress_callback = progress_callback
        self.backend = backend or SerialBackend()
        # Persistent L2 behind the in-memory memoisation cache (may be None).
        self.store = store
        # Canonical hash of the ExperimentSpec driving this engine ("" when
        # the engine is used directly).  Stamped into artefact provenance
        # and persisted store entries so a stored result can state exactly
        # which experiment produced it; set by repro.api.Experiment.
        self.spec_hash = ""
        # The hot block sizes drive which dedicated pools a configuration can
        # create; by default they are derived from the trace itself, exactly
        # as the paper's profiling pass would.
        self.hot_sizes = hot_sizes or trace.hot_sizes(top=8)
        self.factory = AllocatorFactory(self.hierarchy)
        # Point-level memoisation: canonical point -> record, plus counters.
        self._point_cache: dict[tuple, ExplorationRecord] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self._fingerprint: str | None = None
        # Lazily-built batch replay engine shared by every run_points call
        # (see _batch_engine); dropped from pickles, rebuilt per process.
        self._batch: BatchReplayEngine | None = None

    # Worker processes receive a pickled copy of the engine; the progress
    # callback may be a closure (unpicklable) and is meaningless off-process,
    # and shipping the parent's backend, cache or store handle along would be
    # wasteful (or impossible — open file handles don't pickle) — workers
    # only ever call ``run_points``.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["progress_callback"] = None
        state["backend"] = None
        state["store"] = None
        state["_point_cache"] = {}
        state["_batch"] = None
        state["cache_hits"] = 0
        state["cache_misses"] = 0
        state["store_hits"] = 0
        state["store_misses"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.backend is None:
            self.backend = SerialBackend()

    # -- identity ------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Hex SHA-256 identifying everything that determines a point's metrics.

        Covers the trace events (:meth:`AllocationTrace.fingerprint`), the
        memory hierarchy modules, the energy-model constants, the hot block
        sizes and the profiler's payload-access factor (a constant, still
        written so that no fingerprint moves) — but *not* the parameter
        space, backend or sampling settings, which choose *which* points
        are evaluated, never what one point measures.  Together with
        the canonicalised point and :data:`~repro.core.store.METRIC_VERSION`
        this keys the persistent result store and artefact provenance.
        """
        if self._fingerprint is None:
            context = {
                "trace": self.trace.fingerprint(),
                "hierarchy": [asdict(module) for module in self.hierarchy],
                "energy": {
                    "cpu_overhead_cycles": self.energy_model.cpu_overhead_cycles,
                    "cpu_energy_nj_per_op": self.energy_model.cpu_energy_nj_per_op,
                    "static_nj_per_byte": self.energy_model.static_nj_per_byte,
                },
                "hot_sizes": list(self.hot_sizes),
                "payload_access_factor": DEFAULT_PAYLOAD_ACCESS_FACTOR,
            }
            payload = json.dumps(context, sort_keys=True, separators=(",", ":"))
            self._fingerprint = hashlib.sha256(payload.encode()).hexdigest()
        return self._fingerprint

    # -- configuration construction ------------------------------------------

    def configuration_for(self, point: dict, label: str = "") -> AllocatorConfiguration:
        """Build the configuration corresponding to one parameter point."""
        return configuration_from_point(
            point,
            hot_sizes=self.hot_sizes,
            scratchpad_module=self.hierarchy.fastest.name,
            main_module=self.hierarchy.background_module.name,
            label=label,
        )

    def enumerate_points(self) -> Iterable[tuple[int, dict]]:
        """Yield (index, point) pairs according to the sampling/shard settings.

        ``index`` is always the *global* enumeration position — when a
        :class:`ShardSpec` is set, only the positions the shard owns are
        yielded, but they keep their global index, so configuration labels
        (and therefore merged artefacts) are identical to a single full run.
        """
        if self.settings.sample is None:
            pairs: Iterable[tuple[int, dict]] = enumerate(self.space.points())
        else:
            points = self.space.sample(self.settings.sample, seed=self.settings.sample_seed)
            pairs = enumerate(points)
        shard = self.settings.shard
        if shard is None:
            yield from pairs
        else:
            for index, point in pairs:
                if shard.owns(index):
                    yield index, point

    # -- point evaluation ----------------------------------------------------

    def run_point(self, point: dict, label: str = "") -> ExplorationRecord:
        """Profile a single parameter point and return its record.

        The single-replay path: no cache, no backend, no batch kernel.  Worker
        processes call :meth:`run_points` instead; tests and benchmarks
        compare that batch path against this one, and in-process callers
        that want memoisation and parallel dispatch go through
        :meth:`evaluate_points`.
        """
        configuration = self.configuration_for(point, label=label)
        built = self.factory.build(configuration)
        profiler = Profiler(built.mapping, energy_model=self.energy_model)
        profile = profiler.run(
            built.allocator, self.trace, configuration.configuration_id
        )
        return self._record(configuration, profile)

    def _record(
        self, configuration: AllocatorConfiguration, profile: ProfileResult
    ) -> ExplorationRecord:
        return ExplorationRecord(
            configuration=configuration,
            metrics=profile.totals,
            trace_name=self.trace.name,
            oom_failures=_oom_failures(profile),
        )

    def _batch_engine(self) -> BatchReplayEngine:
        """The engine's shared batch replay kernel (rebuilt when stale).

        Staleness is checked against the compiled trace *object*: the trace
        invalidates its compiled form on mutation, so a new compiled object
        means new events.
        """
        batch = self._batch
        if batch is None or batch.compiled is not self.trace.compiled():
            batch = BatchReplayEngine(
                self.trace, self.factory, energy_model=self.energy_model
            )
            self._batch = batch
        return batch

    def run_points(
        self, items: Sequence[tuple[dict, str]]
    ) -> list[ExplorationRecord]:
        """Profile a batch of ``(point, label)`` items (no cache, no backend).

        The batch counterpart of :meth:`run_point`: one shared
        :class:`~repro.profiling.batch.BatchReplayEngine` scores the whole
        batch, so configurations that share pool groups share their
        simulations.  Configurations the batch kernel cannot express fall
        back to a single replay inside the kernel.  Byte-identical to
        :meth:`run_point` on every item.
        """
        batch = self._batch_engine()
        records = []
        for point, label in items:
            configuration = self.configuration_for(point, label=label)
            records.append(
                self._record(configuration, batch.run_configuration(configuration))
            )
        return records

    def evaluate_points(
        self, items: Sequence[tuple[dict, str]]
    ) -> list[ExplorationRecord]:
        """Evaluate a batch of ``(point, label)`` items through caches + backend.

        An explicit three-stage pipeline:

        1. **partition** (:meth:`_partition_batch`) — dedupe the batch and
           answer what the in-memory memoisation cache (L1) or the
           persistent :class:`~repro.core.store.ResultStore` (L2, when
           attached) already knows;
        2. **profile** (:meth:`_profile_misses`) — hand the remaining
           misses to the backend as one batch (one evaluation even if a
           point repeats within the batch), which routes them through the
           batch replay kernel serially or as per-worker sub-batches;
        3. **commit** (:meth:`_commit_records`) — memoise fresh records,
           write them back to the store so the next process exploring the
           same workload starts warm, and fan answers out to duplicate
           submission positions.

        The returned list matches the submission order item-for-item.
        Repeat answers are shallow copies of the memoised record,
        relabelled with the submitted label (see :func:`_cached_copy`).
        """
        items = list(items)
        results, pending, pending_keys, positions_by_key = self._partition_batch(items)
        if pending:
            records = self._profile_misses(pending)
            self._commit_records(
                items, results, pending, pending_keys, positions_by_key, records
            )
        return results  # type: ignore[return-value]

    def _partition_batch(
        self, items: list[tuple[dict, str]]
    ) -> tuple[
        list[ExplorationRecord | None],
        list[tuple[dict, str]],
        list[tuple],
        dict[tuple, list[int]],
    ]:
        """Stage 1: split a batch into cache answers and profiling misses.

        Returns ``(results, pending, pending_keys, positions_by_key)``:
        ``results`` holds the submission-ordered answers with ``None`` at
        every miss position, ``pending`` the deduplicated items still to
        profile, and ``positions_by_key`` every submission position a
        pending key must answer (head position first).
        """
        results: list[ExplorationRecord | None] = [None] * len(items)
        pending: list[tuple[dict, str]] = []
        pending_keys: list[tuple] = []
        positions_by_key: dict[tuple, list[int]] = {}
        for position, (point, label) in enumerate(items):
            key = canonical_point_key(point)
            cached = self._point_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                results[position] = _cached_copy(cached, label)
                continue
            if key in positions_by_key:
                # Duplicate within the batch: profiled once, counted once.
                self.cache_hits += 1
                positions_by_key[key].append(position)
                continue
            if self.store is not None:
                stored = self.store.get(self.fingerprint, point)
                if stored is not None:
                    self.store_hits += 1
                    self._point_cache[key] = stored
                    results[position] = _cached_copy(stored, label)
                    continue
                self.store_misses += 1
            positions_by_key[key] = [position]
            pending.append((point, label))
            pending_keys.append(key)
        return results, pending, pending_keys, positions_by_key

    def _profile_misses(
        self, pending: list[tuple[dict, str]]
    ) -> list[ExplorationRecord]:
        """Stage 2: profile the cache misses through the backend, in order."""
        self.cache_misses += len(pending)
        records = self.backend.evaluate(self, pending)
        if len(records) != len(pending):  # pragma: no cover - defensive
            raise RuntimeError(
                f"backend returned {len(records)} records for "
                f"{len(pending)} submitted points"
            )
        return records

    def _commit_records(
        self,
        items: list[tuple[dict, str]],
        results: list[ExplorationRecord | None],
        pending: list[tuple[dict, str]],
        pending_keys: list[tuple],
        positions_by_key: dict[tuple, list[int]],
        records: list[ExplorationRecord],
    ) -> None:
        """Stage 3: memoise fresh records, persist them, fill every position."""
        for (point, _label), key, record in zip(pending, pending_keys, records):
            self._point_cache[key] = record
            if self.store is not None:
                self.store.put(
                    self.fingerprint, point, record, spec_hash=self.spec_hash
                )
            first, *rest = positions_by_key[key]
            results[first] = record
            for position in rest:
                results[position] = _cached_copy(record, items[position][1])

    def evaluate_point(self, point: dict, label: str = "") -> ExplorationRecord:
        """Cached evaluation of one point (single-item :meth:`evaluate_points`)."""
        return self.evaluate_points([(point, label)])[0]

    @property
    def cached_point_count(self) -> int:
        """Number of distinct points currently memoised."""
        return len(self._point_cache)

    def clear_cache(self) -> None:
        """Drop memoised records and reset the hit/miss counters (L1 only;
        an attached persistent store is unaffected)."""
        self._point_cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self.store_misses = 0

    def _counter_snapshot(self) -> tuple[int, int, int, int]:
        """Current (cache_hits, cache_misses, store_hits, store_misses)."""
        return (self.cache_hits, self.cache_misses, self.store_hits, self.store_misses)

    def _record_counters(
        self, database: ResultDatabase, snapshot: tuple[int, int, int, int]
    ) -> None:
        """Write the counter deltas since ``snapshot`` onto ``database``."""
        hits, misses, store_hits, store_misses = snapshot
        database.cache_hits = self.cache_hits - hits
        database.cache_misses = self.cache_misses - misses
        database.store_hits = self.store_hits - store_hits
        database.store_misses = self.store_misses - store_misses
        if self.store is not None:
            database.store_loaded = self.store.loaded

    def _attach_provenance(self, database: ResultDatabase) -> None:
        """Stamp the database with the identity merge/resume validation needs."""
        shard = self.settings.shard
        database.provenance = Provenance(
            fingerprint=self.fingerprint,
            space=self.space.as_dict(),
            metric_version=METRIC_VERSION,
            sample=self.settings.sample,
            sample_seed=self.settings.sample_seed,
            shard=shard.label if shard is not None else "",
            spec_hash=self.spec_hash,
        )

    def close(self) -> None:
        """Release backend workers (safe to call repeatedly)."""
        self.backend.close()

    # -- the exploration loop -----------------------------------------------

    def explore(self, sink: ResultSink | None = None) -> ResultDatabase:
        """Run the exploration over the whole (or sampled, or sharded) space.

        ``sink`` receives every record the moment its batch completes — a
        live Pareto front, a progress dashboard or a forwarder sees results
        *while* the run progresses rather than from the returned database.
        """
        database = ResultDatabase(name=f"{self.trace.name}-exploration")
        snapshot = self._counter_snapshot()
        total = (
            self.space.size() if self.settings.sample is None else self.settings.sample
        )
        if self.settings.shard is not None:
            total = self.settings.shard.size_of(total)
        batch_size = self._explore_batch_size(total)
        batch: list[tuple[int, dict]] = []
        completed = 0
        for index, point in self.enumerate_points():
            batch.append((index, point))
            if len(batch) >= batch_size:
                completed = self._explore_batch(batch, total, completed, database, sink)
                batch = []
        if batch:
            self._explore_batch(batch, total, completed, database, sink)
        self._record_counters(database, snapshot)
        self._attach_provenance(database)
        return database

    def _explore_batch_size(self, total: int) -> int:
        """Points per dispatched batch of :meth:`explore`.

        Serial evaluation batches nothing: progress callbacks keep firing
        after every single point, exactly as before backends existed.  A
        pool batches enough points to amortise dispatch over all workers.
        """
        jobs = getattr(self.backend, "jobs", 1) or 1
        if jobs <= 1:
            return 1
        return max(jobs * 8, self.settings.progress_every or 1)

    def _explore_batch(
        self,
        batch: list[tuple[int, dict]],
        total: int,
        completed: int,
        database: ResultDatabase,
        sink: ResultSink | None = None,
    ) -> int:
        """Evaluate one batch; returns the updated completed-point count.

        Labels derive from the *global* enumeration index (stable across
        shards); progress counts positions this run actually evaluates, so
        a shard reports ``k/shard_total``, not its global indices.
        """
        items = [
            (point, f"{LABEL_PREFIX}{index:05d}") for index, point in batch
        ]
        records = self.evaluate_points(items)
        for (_index, _point), record in zip(batch, records):
            database.add(record)
            if sink is not None:
                sink.accept(record)
            completed += 1
            if self.progress_callback is not None:
                self.progress_callback(completed, total)
            elif (
                self.settings.progress_every
                and completed % self.settings.progress_every == 0
            ):
                print(f"explored {completed}/{total} configurations", flush=True)
        return completed

    # -- range evaluation (the distributed unit of work) -------------------

    def points_in_range(self, start: int, stop: int) -> list[tuple[int, dict]]:
        """The ``(index, point)`` pairs of enumeration positions [start, stop).

        Contiguous ranges are the lease unit of the distributed service
        (:mod:`repro.distrib`): a coordinator partitions ``[0, total)`` into
        ranges and this method materialises one range identically in every
        process.  Ranges slice the *unsharded* enumeration — combining them
        with a :class:`ShardSpec` would make positions ambiguous, so that is
        rejected.
        """
        if self.settings.shard is not None:
            raise ValueError("range evaluation cannot be combined with a shard")
        if start < 0 or stop < start:
            raise ValueError(f"invalid range [{start}, {stop})")
        if self.settings.sample is None:
            source: Iterable[dict] = self.space.points()
        else:
            source = self.space.sample(
                self.settings.sample, seed=self.settings.sample_seed
            )
        return list(itertools.islice(enumerate(source), start, stop))

    def explore_range(
        self, start: int, stop: int, sink: ResultSink | None = None
    ) -> ResultDatabase:
        """Evaluate enumeration positions [start, stop) into a database.

        The range counterpart of :meth:`explore`: same labels (derived from
        the global enumeration index), same caches (L1 memoisation and the
        attached store answer known points — which is how a worker resuming
        a re-leased range re-evaluates only the points its predecessor never
        committed), same counters and provenance.  The provenance ``shard``
        field records the range as ``"start:stop"`` so a range artefact is
        recognisable; merged artefacts normalise it away exactly like shard
        labels.
        """
        database = ResultDatabase(name=f"{self.trace.name}-range-{start}-{stop}")
        snapshot = self._counter_snapshot()
        batch = self.points_in_range(start, stop)
        total = len(batch)
        completed = 0
        batch_size = self._explore_batch_size(total)
        for offset in range(0, total, max(1, batch_size)):
            completed = self._explore_batch(
                batch[offset : offset + max(1, batch_size)],
                total,
                completed,
                database,
                sink,
            )
        self._record_counters(database, snapshot)
        self._attach_provenance(database)
        if database.provenance is not None:
            database.provenance = replace(
                database.provenance, shard=f"{start}:{stop}"
            )
        return database

    # -- analysis shortcuts -----------------------------------------------

    def pareto(self, database: ResultDatabase) -> list[ExplorationRecord]:
        """Pareto-optimal records over the metrics chosen in the settings."""
        return database.pareto_records(self.settings.metrics)


def explore(
    space: ParameterSpace,
    trace: AllocationTrace,
    hierarchy: MemoryHierarchy | None = None,
    hot_sizes: list[int] | None = None,
    sample: int | None = None,
    metrics: list[str] | None = None,
    jobs: int | None = None,
    backend: EvaluationBackend | None = None,
    store: ResultStore | None = None,
    shard: ShardSpec | None = None,
) -> ResultDatabase:
    """One-shot exploration helper used by examples and benchmarks.

    ``jobs`` > 1 selects a :class:`ProcessPoolBackend` (ignored when an
    explicit ``backend`` is given); workers are shut down before returning.
    ``store`` attaches a persistent result store (kept open for the caller);
    ``shard`` restricts the run to one slice of the enumeration.
    """
    settings = ExplorationSettings(
        metrics=metrics or metric_keys(),
        sample=sample,
        shard=shard,
    )
    engine = ExplorationEngine(
        space,
        trace,
        hierarchy=hierarchy,
        hot_sizes=hot_sizes,
        settings=settings,
        backend=backend or make_backend(jobs),
        store=store,
    )
    try:
        return engine.explore()
    finally:
        if backend is None:
            engine.close()
