"""Result database: storage, query and export of exploration outcomes.

Each explored configuration yields one :class:`ExplorationRecord` (the
configuration, its parameter point and the measured metrics).
:class:`ResultDatabase` collects them, answers the queries the analysis
layer needs (best/worst per metric, Pareto subsets, parameter slices) and
exports to CSV / JSON / gnuplot-friendly data files, mirroring the paper's
"results ... in a format easy to import to Excel or Gnuplot".

Results *flow* rather than accumulate: anything that consumes records as
they are produced implements the :class:`ResultSink` protocol (the database
itself is one), the database maintains its Pareto fronts incrementally on
every :meth:`ResultDatabase.add` (so querying the front is O(front), not an
O(n²) recomputation), and :class:`StreamingResultView` offers the same
query/report surface over a re-iterable record *stream* — e.g. a persistent
result store on disk — without ever materialising the record list.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..profiling.metrics import MetricSet, metric_keys
from .configuration import AllocatorConfiguration
from .pareto import IncrementalParetoFront, knee_point


@dataclass
class ExplorationRecord:
    """Outcome of profiling one configuration.

    ``oom_failures`` counts allocations the configuration could not serve
    (its pools exhausted the memory modules they are mapped on).  Such a
    configuration is *infeasible*: it did not actually run the application,
    so by default it is excluded from ranges and Pareto extraction — an
    allocator that drops requests would trivially "win" every metric.
    """

    configuration: AllocatorConfiguration
    metrics: MetricSet
    trace_name: str = ""
    index: int = 0
    oom_failures: int = 0

    @property
    def configuration_id(self) -> str:
        return self.configuration.configuration_id

    @property
    def parameters(self) -> dict:
        return self.configuration.parameters

    @property
    def feasible(self) -> bool:
        """True when the configuration served every allocation of the trace."""
        return self.oom_failures == 0

    def metric_vector(self, keys: list[str] | None = None) -> tuple[float, ...]:
        return self.metrics.values(keys)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "configuration": self.configuration.as_dict(),
            "metrics": self.metrics.as_dict(),
            "trace_name": self.trace_name,
            "oom_failures": self.oom_failures,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplorationRecord":
        return cls(
            configuration=AllocatorConfiguration.from_dict(data["configuration"]),
            metrics=MetricSet.from_dict(data["metrics"]),
            trace_name=data.get("trace_name", ""),
            index=int(data.get("index", 0)),
            oom_failures=int(data.get("oom_failures", 0)),
        )


@dataclass(frozen=True)
class Provenance:
    """Where a :class:`ResultDatabase` came from, for resume and merge.

    An artefact written by ``dmexplore explore`` is only mergeable with (or
    comparable to) another artefact when they were produced from the same
    evaluation context.  Provenance captures that context:

    ``fingerprint``
        The evaluation fingerprint of the producing engine (trace events,
        memory hierarchy, energy model, hot sizes, profiler options — see
        :attr:`repro.core.exploration.ExplorationEngine.fingerprint`).
    ``space``
        The parameter space as a plain ``{name: [values]}`` dict.
    ``metric_version``
        :data:`repro.core.store.METRIC_VERSION` at production time.
    ``sample`` / ``sample_seed``
        The sampling settings (``None`` sample = exhaustive enumeration).
    ``shard``
        ``"K/N"`` when the artefact holds one shard of the enumeration,
        ``""`` for a complete (or merged) artefact.
    ``spec_hash``
        Canonical hash of the :class:`repro.api.ExperimentSpec` that
        produced the artefact (shard-independent, so all shards of one
        experiment share it), or ``""`` when the run was driven directly
        through the engine rather than through an experiment spec.
    """

    fingerprint: str
    space: dict
    metric_version: int
    sample: int | None = None
    sample_seed: int = 0
    shard: str = ""
    spec_hash: str = ""

    def compatible_with(self, other: "Provenance") -> bool:
        """True when two artefacts may be merged (everything but shard matches).

        An empty ``spec_hash`` means "unknown experiment" (a direct engine
        run, or an artefact from before spec hashes existed) and is
        compatible with anything whose evaluation context otherwise
        matches — two *different* non-empty hashes are distinct
        experiments and never merge.
        """
        return (
            self.fingerprint == other.fingerprint
            and self.space == other.space
            and self.metric_version == other.metric_version
            and self.sample == other.sample
            and self.sample_seed == other.sample_seed
            and (
                not self.spec_hash
                or not other.spec_hash
                or self.spec_hash == other.spec_hash
            )
        )

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "space": self.space,
            "metric_version": self.metric_version,
            "sample": self.sample,
            "sample_seed": self.sample_seed,
            "shard": self.shard,
            "spec_hash": self.spec_hash,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        sample = data.get("sample")
        return cls(
            fingerprint=data.get("fingerprint", ""),
            space=data.get("space", {}),
            metric_version=int(data.get("metric_version", 0)),
            sample=None if sample is None else int(sample),
            sample_seed=int(data.get("sample_seed", 0)),
            shard=data.get("shard", ""),
            spec_hash=data.get("spec_hash", ""),
        )


@runtime_checkable
class ResultSink(Protocol):
    """Anything that consumes exploration records as they are produced.

    The exploration engine and the search strategies push every record they
    generate into the sinks handed to them, so downstream consumers (live
    Pareto fronts, progress dashboards, persistent stores, network
    forwarders) see results *while* the exploration runs instead of from a
    finished-database snapshot.  :class:`ResultDatabase` is itself a sink.
    """

    def accept(self, record: "ExplorationRecord") -> None:
        """Consume one freshly produced record."""
        ...


class StreamingParetoSink:
    """A :class:`ResultSink` maintaining a live Pareto front, nothing else.

    The constant-memory consumer for very large explorations: only the
    current front (and a pair of counters) is retained.  Infeasible records
    never enter the front, mirroring :meth:`ResultDatabase.pareto_records`.
    """

    def __init__(self, metrics: list[str] | None = None) -> None:
        self.metrics = list(metrics or metric_keys())
        self.front: IncrementalParetoFront[ExplorationRecord] = IncrementalParetoFront()
        self.seen = 0
        self.feasible = 0

    def accept(self, record: "ExplorationRecord") -> None:
        self.seen += 1
        if not record.feasible:
            return
        self.feasible += 1
        self.front.add(record, record.metric_vector(self.metrics))

    def records(self) -> list["ExplorationRecord"]:
        """Current front members, in arrival order."""
        return self.front.items()


def write_metric_csv(
    records: Iterable["ExplorationRecord"],
    path: str | Path,
    metrics: list[str] | None = None,
) -> int:
    """Stream ids, parameters and the chosen metrics of ``records`` as CSV.

    One row is built and written per record — nothing is accumulated — so
    the writer serves a streamed store exactly as it serves an in-memory
    database.  Returns the number of data rows written.
    """
    keys = metrics or metric_keys()
    rows = 0
    writer: csv.DictWriter | None = None
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for record in records:
            row = {"index": record.index, "configuration_id": record.configuration_id}
            row.update({f"param_{k}": v for k, v in sorted(record.parameters.items())})
            for key in keys:
                row[key] = record.metrics.value(key)
            if writer is None:
                writer = csv.DictWriter(handle, fieldnames=list(row.keys()))
                writer.writeheader()
            writer.writerow(row)
            rows += 1
    return rows


class ResultDatabase:
    """In-memory store of exploration records with query and export helpers.

    The Pareto fronts the analysis layer asks for are maintained
    *incrementally*: every :meth:`add` offers the record to the live
    :class:`~repro.core.pareto.IncrementalParetoFront` of each metric
    selection queried so far, so :meth:`pareto_records` is an O(front)
    lookup rather than an O(n²) recomputation — with membership and order
    identical to the batch functions (property-tested).
    """

    def __init__(self, name: str = "exploration") -> None:
        self.name = name
        self._records: list[ExplorationRecord] = []
        # Live fronts, keyed by (metric-key tuple, feasible_only); created
        # lazily on the first pareto_records() query for that selection and
        # kept up to date by add().
        self._fronts: dict[
            tuple[tuple[str, ...], bool], IncrementalParetoFront[ExplorationRecord]
        ] = {}
        # Filled in by the producing engine/search: how many point
        # evaluations were answered from the memoisation cache (L1) vs the
        # persistent result store (L2) vs freshly profiled.
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.store_loaded = 0
        # Evaluation-context identity; set by the producing engine, required
        # by ``dmexplore merge`` to validate artefact compatibility.
        self.provenance: Provenance | None = None
        # Windowed phase analysis attached by ``dmexplore windows`` (the
        # JSON-ready dict of repro.stream.WindowedAnalysis.as_dict); empty
        # for ordinary explorations.
        self.windows: dict = {}

    # -- collection ------------------------------------------------------

    def add(self, record: ExplorationRecord) -> None:
        record.index = len(self._records)
        self._records.append(record)
        for (keys, feasible_only), front in self._fronts.items():
            if feasible_only and not record.feasible:
                continue
            front.add(record, record.metric_vector(list(keys)))

    def accept(self, record: ExplorationRecord) -> None:
        """:class:`ResultSink` interface: same as :meth:`add`."""
        self.add(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ExplorationRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> ExplorationRecord:
        return self._records[index]

    @property
    def records(self) -> list[ExplorationRecord]:
        return list(self._records)

    # -- queries -----------------------------------------------------------

    @property
    def trace_name(self) -> str:
        """Name of the trace the records were profiled on ("" when empty)."""
        return self._records[0].trace_name if self._records else ""

    @property
    def feasible_count(self) -> int:
        """How many records served every allocation of the trace."""
        return sum(1 for record in self._records if record.feasible)

    @property
    def has_feasible(self) -> bool:
        """True when at least one record is feasible."""
        return any(record.feasible for record in self._records)

    def feasible_records(self) -> list[ExplorationRecord]:
        """Records of configurations that served every allocation of the trace."""
        return [record for record in self._records if record.feasible]

    def infeasible_records(self) -> list[ExplorationRecord]:
        """Records of configurations that ran out of memory on the trace."""
        return [record for record in self._records if not record.feasible]

    def _candidate_records(self, feasible_only: bool) -> list[ExplorationRecord]:
        records = self.feasible_records() if feasible_only else list(self._records)
        if not records:
            raise ValueError(
                "result database has no "
                + ("feasible " if feasible_only else "")
                + "records"
            )
        return records

    def best_by(self, metric: str, feasible_only: bool = True) -> ExplorationRecord:
        """Record with the lowest value of ``metric``."""
        records = self._candidate_records(feasible_only)
        return min(records, key=lambda record: record.metrics.value(metric))

    def worst_by(self, metric: str, feasible_only: bool = True) -> ExplorationRecord:
        """Record with the highest value of ``metric``."""
        records = self._candidate_records(feasible_only)
        return max(records, key=lambda record: record.metrics.value(metric))

    def metric_range(self, metric: str, feasible_only: bool = True) -> tuple[float, float]:
        """(min, max) of ``metric`` across the (feasible by default) records."""
        records = self._candidate_records(feasible_only)
        values = [record.metrics.value(metric) for record in records]
        return min(values), max(values)

    def filter(self, predicate: Callable[[ExplorationRecord], bool]) -> list[ExplorationRecord]:
        return [record for record in self._records if predicate(record)]

    def where_parameter(self, name: str, value) -> list[ExplorationRecord]:
        """Records whose parameter point assigns ``value`` to ``name``."""
        return self.filter(lambda record: record.parameters.get(name) == value)

    def pareto_records(
        self, metrics: list[str] | None = None, feasible_only: bool = True
    ) -> list[ExplorationRecord]:
        """The Pareto-optimal subset over the chosen metrics (all four by default).

        Infeasible configurations (OOM on the trace) are excluded by default:
        an allocator that dropped allocations would otherwise look
        artificially cheap on every metric.

        Served from a live :class:`IncrementalParetoFront` — built once per
        metric selection, updated on every :meth:`add` — so repeated queries
        (reports, exports, search-strategy selection) cost O(front).
        """
        keys = tuple(metrics or metric_keys())
        front = self._fronts.get((keys, feasible_only))
        if front is None:
            front = IncrementalParetoFront()
            for record in self._records:
                if feasible_only and not record.feasible:
                    continue
                front.add(record, record.metric_vector(list(keys)))
            self._fronts[(keys, feasible_only)] = front
        return front.items()

    def knee_record(self, metrics: list[str] | None = None) -> ExplorationRecord | None:
        """The balanced "knee" configuration of the Pareto front."""
        keys = metrics or metric_keys()
        front = self.pareto_records(keys)
        return knee_point(front, key=lambda record: record.metric_vector(keys))

    # -- export -----------------------------------------------------------

    def metric_table(self, metrics: list[str] | None = None) -> list[dict]:
        """Flat table (one dict per record) of ids, parameters and metrics."""
        keys = metrics or metric_keys()
        table = []
        for record in self._records:
            row = {"index": record.index, "configuration_id": record.configuration_id}
            row.update({f"param_{k}": v for k, v in sorted(record.parameters.items())})
            for key in keys:
                row[key] = record.metrics.value(key)
            table.append(row)
        return table

    def to_csv(self, path: str | Path, metrics: list[str] | None = None) -> int:
        """Write the metric table as CSV (Excel-importable); returns row count.

        ``metrics`` selects which metric columns are emitted (all four by
        default).  Rows are streamed one record at a time.
        """
        return write_metric_csv(self._records, path, metrics)

    def to_json(self, path: str | Path) -> None:
        """Serialise the whole database (records + configurations) as JSON."""
        payload = {
            "name": self.name,
            "records": [record.as_dict() for record in self._records],
        }
        if self.cache_hits or self.cache_misses:
            payload["cache"] = {"hits": self.cache_hits, "misses": self.cache_misses}
        if self.store_hits or self.store_misses or self.store_loaded:
            payload["store"] = {
                "hits": self.store_hits,
                "misses": self.store_misses,
                "loaded": self.store_loaded,
            }
        if self.provenance is not None:
            payload["provenance"] = self.provenance.as_dict()
        if self.windows:
            payload["windows"] = self.windows
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")

    @classmethod
    def from_json(cls, path: str | Path) -> "ResultDatabase":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        database = cls(name=payload.get("name", "exploration"))
        cache = payload.get("cache", {})
        database.cache_hits = int(cache.get("hits", 0))
        database.cache_misses = int(cache.get("misses", 0))
        store = payload.get("store", {})
        database.store_hits = int(store.get("hits", 0))
        database.store_misses = int(store.get("misses", 0))
        database.store_loaded = int(store.get("loaded", 0))
        if "provenance" in payload:
            database.provenance = Provenance.from_dict(payload["provenance"])
        database.windows = payload.get("windows", {})
        for entry in payload.get("records", []):
            database.add(ExplorationRecord.from_dict(entry))
        return database

    def summary(self) -> dict:
        """Aggregate view used by reports: sizes, ranges, Pareto count."""
        if not self._records:
            return {"records": 0}
        data: dict = {
            "records": len(self._records),
            "feasible": self.feasible_count,
        }
        if self.cache_hits or self.cache_misses:
            data["cache"] = {"hits": self.cache_hits, "misses": self.cache_misses}
        if self.store_hits or self.store_misses or self.store_loaded:
            data["store"] = {
                "hits": self.store_hits,
                "misses": self.store_misses,
                "loaded": self.store_loaded,
            }
        if not self.has_feasible:
            return data
        for key in metric_keys():
            low, high = self.metric_range(key)
            data[key] = {"min": low, "max": high}
        data["pareto_count"] = len(self.pareto_records())
        return data


class StreamingResultView:
    """Read-only :class:`ResultDatabase` stand-in over a record *stream*.

    ``source`` is any re-iterable of :class:`ExplorationRecord` — each
    ``iter(source)`` must yield the same records in the same order (e.g. a
    :class:`~repro.core.store.StoreRecordSource` replaying a persistent
    store file, or simply a list).  The view answers everything the
    reporting and export layers ask of a database — length, iteration,
    metric ranges, Pareto front, knee, CSV — while holding only aggregates
    and the front itself in memory: queries that need the records again
    re-iterate the source instead of caching them.

    Execution metadata (cache/store counters, provenance) is zero /
    absent: a stream describes *results*, not how a particular run produced
    them.
    """

    def __init__(self, source: Iterable[ExplorationRecord], name: str = "exploration") -> None:
        self._source = source
        self.name = name
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.store_loaded = 0
        self.provenance: Provenance | None = None
        self.windows: dict = {}
        self._fronts: dict[
            tuple[tuple[str, ...], bool], IncrementalParetoFront[ExplorationRecord]
        ] = {}
        self._count = 0
        self._feasible_count = 0
        self._trace_name = ""
        # (metric, feasible_only) -> (min, max), gathered in one pass.
        self._ranges: dict[tuple[str, bool], tuple[float, float]] = {}
        keys = metric_keys()
        for record in source:
            if self._count == 0:
                self._trace_name = record.trace_name
            self._count += 1
            if record.feasible:
                self._feasible_count += 1
            for key in keys:
                value = record.metrics.value(key)
                self._fold_range(key, False, value)
                if record.feasible:
                    self._fold_range(key, True, value)

    def _fold_range(self, metric: str, feasible_only: bool, value: float) -> None:
        known = self._ranges.get((metric, feasible_only))
        if known is None:
            self._ranges[(metric, feasible_only)] = (value, value)
        else:
            low, high = known
            self._ranges[(metric, feasible_only)] = (min(low, value), max(high, value))

    # -- the ResultDatabase query surface ---------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[ExplorationRecord]:
        return iter(self._source)

    @property
    def trace_name(self) -> str:
        return self._trace_name

    @property
    def feasible_count(self) -> int:
        return self._feasible_count

    @property
    def has_feasible(self) -> bool:
        return self._feasible_count > 0

    def metric_range(self, metric: str, feasible_only: bool = True) -> tuple[float, float]:
        """(min, max) of ``metric`` across the (feasible by default) records."""
        known = self._ranges.get((metric, feasible_only))
        if known is None:
            raise ValueError(
                "result stream has no "
                + ("feasible " if feasible_only else "")
                + "records"
            )
        return known

    def pareto_records(
        self, metrics: list[str] | None = None, feasible_only: bool = True
    ) -> list[ExplorationRecord]:
        """Pareto front of the streamed records (one extra pass per selection)."""
        keys = tuple(metrics or metric_keys())
        front = self._fronts.get((keys, feasible_only))
        if front is None:
            front = IncrementalParetoFront()
            for record in self._source:
                if feasible_only and not record.feasible:
                    continue
                front.add(record, record.metric_vector(list(keys)))
            self._fronts[(keys, feasible_only)] = front
        return front.items()

    def knee_record(self, metrics: list[str] | None = None) -> ExplorationRecord | None:
        """The balanced "knee" configuration of the Pareto front."""
        keys = metrics or metric_keys()
        front = self.pareto_records(keys)
        return knee_point(front, key=lambda record: record.metric_vector(keys))

    def to_csv(self, path: str | Path, metrics: list[str] | None = None) -> int:
        """Stream the metric table as CSV; returns the row count."""
        return write_metric_csv(self._source, path, metrics)
