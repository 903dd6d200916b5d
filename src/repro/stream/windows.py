"""Windowed (phase) Pareto analysis over one batched replay.

Server traffic is not stationary: session churn, request bursts and
diurnal load curves mean the allocator configuration that wins the whole
trace can lose badly during individual phases.  This module cuts a trace
into windows (a fixed event count or a fixed timestamp span), scores every
configuration on a :class:`~repro.profiling.batch.BatchReplayEngine` given
the window boundaries — each shared pool-group simulation records its
counters at every boundary — and keeps one
:class:`~repro.core.pareto.IncrementalParetoFront` *per window* over the
per-window metric deltas — so a report can show not just the global front
but which configurations dominate each phase, and where the front shifts.

The final results are the batch engine's whole-trace results, so the
:class:`~repro.core.results.ResultDatabase` this analysis produces holds
the records ``dmexplore explore`` would write (``tests/test_stream.py``
asserts it), with a ``windows`` section attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from ..core.exploration import LABEL_PREFIX
from ..core.pareto import IncrementalParetoFront
from ..core.results import ExplorationRecord, ResultDatabase
from ..profiling.batch import BatchReplayEngine
from ..profiling.events import AllocationEvent
from ..profiling.metrics import MetricSet, metric_keys
from .ingest import iter_event_chunks


@dataclass(frozen=True)
class WindowSpec:
    """How to cut a trace into analysis windows.

    Exactly one of ``events`` (window = that many consecutive events) and
    ``time`` (window = that many timestamp ticks: events whose timestamp
    falls in ``[k*time, (k+1)*time)``) must be set.  Time windows split on
    bucket *increase* only, so a trace with non-monotonic timestamps still
    yields contiguous event runs; empty buckets produce no window.
    """

    events: int | None = None
    time: int | None = None

    def __post_init__(self) -> None:
        if (self.events is None) == (self.time is None):
            raise ValueError("set exactly one of events= and time=")
        size = self.events if self.events is not None else self.time
        if size < 1:
            raise ValueError("window size must be >= 1")

    @property
    def mode(self) -> str:
        return "events" if self.events is not None else "time"

    @property
    def size(self) -> int:
        return self.events if self.events is not None else self.time

    def split(self, events: Iterable[AllocationEvent]) -> list[list[AllocationEvent]]:
        """Cut an event sequence into the window chunks this spec defines."""
        if self.events is not None:
            return list(iter_event_chunks(events, self.events))
        chunks: list[list[AllocationEvent]] = []
        current: list[AllocationEvent] = []
        bucket: int | None = None
        for event in events:
            position = event.timestamp // self.time
            if bucket is None:
                bucket = position
            elif position > bucket:
                chunks.append(current)
                current = []
                bucket = position
            current.append(event)
        if current:
            chunks.append(current)
        return chunks

    def as_dict(self) -> dict:
        return {"mode": self.mode, "size": self.size}


class WindowedAnalysis:
    """Per-window Pareto fronts accumulated while configurations stream in.

    One :class:`IncrementalParetoFront` per window, fed the per-window
    metric deltas of every configuration offered to :meth:`offer`.  The
    analysis never stores per-configuration window metrics outside the
    fronts, so memory is O(windows x front size), not O(windows x
    configurations).
    """

    def __init__(
        self,
        spec: WindowSpec,
        boundaries: list[dict],
        metrics: list[str] | None = None,
    ) -> None:
        self.spec = spec
        #: Per-window descriptors: index, event count, end timestamp.
        self.boundaries = boundaries
        self.metrics = list(metrics) if metrics else metric_keys()
        self.fronts: list[IncrementalParetoFront] = [
            IncrementalParetoFront() for _ in boundaries
        ]
        self.configurations = 0

    def __len__(self) -> int:
        return len(self.boundaries)

    def offer(self, label: str, window_metrics: list[MetricSet]) -> None:
        """Offer one configuration's per-window metrics to every front."""
        if len(window_metrics) != len(self.fronts):
            raise ValueError(
                f"expected {len(self.fronts)} window metric sets, "
                f"got {len(window_metrics)}"
            )
        self.configurations += 1
        for front, metric_set in zip(self.fronts, window_metrics):
            front.add(
                {"label": label, "metrics": metric_set},
                metric_set.values(self.metrics),
            )

    def front_labels(self, index: int) -> list[str]:
        return [member["label"] for member in self.fronts[index]]

    def shifts(self) -> list[int]:
        """Window indices whose front membership differs from the previous.

        The phase-change signal: a shift at window ``k`` means the set of
        configurations that are optimal *within* window ``k`` is not the
        set that was optimal within window ``k-1``.
        """
        shifted = []
        for index in range(1, len(self.fronts)):
            if set(self.front_labels(index)) != set(self.front_labels(index - 1)):
                shifted.append(index)
        return shifted

    def status_line(self) -> str:
        """One-line live summary (consumed by the dashboard sink)."""
        if not self.fronts:
            return f"windows   : none ({self.spec.mode} {self.spec.size})"
        last = len(self.fronts) - 1
        sizes = [len(front) for front in self.fronts]
        return (
            f"windows   : {len(self.fronts)} x {self.spec.size} {self.spec.mode}"
            f" | front[{last}] {sizes[last]}"
            f" | fronts {min(sizes)}..{max(sizes)}"
        )

    def as_dict(self) -> dict:
        """The ``windows`` artefact section (JSON-serialisable)."""
        shifted = set(self.shifts())
        windows = []
        for boundary, front in zip(self.boundaries, self.fronts):
            entry = dict(boundary)
            entry["front_size"] = len(front)
            entry["shifted"] = boundary["index"] in shifted
            entry["front"] = [
                {"label": member["label"], "metrics": member["metrics"].as_dict()}
                for member in front
            ]
            windows.append(entry)
        return {
            "mode": self.spec.mode,
            "size": self.spec.size,
            "count": len(self.fronts),
            "metrics": list(self.metrics),
            "configurations": self.configurations,
            "shifts": sorted(shifted),
            "windows": windows,
        }


def _window_deltas(snapshots: list[MetricSet]) -> list[MetricSet]:
    """Differentiate cumulative boundary totals into per-window metrics.

    Accesses, energy and cycles are flow quantities (the window's delta);
    footprint is a running peak, so each window reports the cumulative
    peak at its end — the memory a platform must actually provision to
    survive through that window.
    """
    deltas = []
    previous = MetricSet()
    for totals in snapshots:
        deltas.append(
            MetricSet(
                accesses=totals.accesses - previous.accesses,
                footprint=totals.footprint,
                energy_nj=totals.energy_nj - previous.energy_nj,
                cycles=totals.cycles - previous.cycles,
            )
        )
        previous = totals
    return deltas


def windowed_exploration(
    engine,
    spec: WindowSpec,
    metrics: list[str] | None = None,
    sink=None,
) -> tuple[ResultDatabase, WindowedAnalysis]:
    """Run a windowed exploration over an engine's whole enumeration.

    One :class:`BatchReplayEngine` over the engine's trace, given the
    window boundaries, scores every enumerated configuration; its
    cumulative results at the boundaries are differentiated into
    per-window metrics and offered to the per-window fronts.  The returned
    database holds the *final* records — byte-identical to
    :meth:`ExplorationEngine.explore` — with the analysis attached as its
    ``windows`` section; when the engine has a result store, each window's
    record is persisted under the window-qualified fingerprint
    ``<fingerprint>:w<index>`` (and the final record under the plain
    fingerprint, warming ordinary explorations).
    """
    trace = engine.trace
    chunks = spec.split(trace)
    boundaries = [
        {
            "index": index,
            "events": len(chunk),
            "end_timestamp": chunk[-1].timestamp,
        }
        for index, chunk in enumerate(chunks)
    ]
    batch = BatchReplayEngine(
        trace,
        engine.factory,
        energy_model=engine.energy_model,
        boundaries=list(accumulate(len(chunk) for chunk in chunks)),
    )
    metrics = list(metrics) if metrics else list(engine.settings.metrics)
    analysis = WindowedAnalysis(spec, boundaries, metrics=metrics)
    if sink is not None and hasattr(sink, "attach_windows"):
        sink.attach_windows(analysis)
    database = ResultDatabase(name=f"{trace.name}-windowed")
    database.windows = {}
    store = engine.store
    for index, point in engine.enumerate_points():
        label = f"{LABEL_PREFIX}{index:05d}"
        configuration = engine.configuration_for(point, label=label)
        results = batch.run_windows(configuration)
        window_metrics = _window_deltas([result.totals for result in results])
        analysis.offer(configuration.configuration_id, window_metrics)
        record = engine._record(configuration, results[-1])
        database.add(record)
        if sink is not None:
            sink.accept(record)
        if store is not None:
            store.put(engine.fingerprint, point, record, spec_hash=engine.spec_hash)
            for window_index, metric_set in enumerate(window_metrics):
                window_record = ExplorationRecord(
                    configuration=configuration,
                    metrics=metric_set,
                    trace_name=trace.name,
                    oom_failures=record.oom_failures,
                )
                store.put(
                    f"{engine.fingerprint}:w{window_index}",
                    point,
                    window_record,
                    spec_hash=engine.spec_hash,
                )
    engine._attach_provenance(database)
    database.windows = analysis.as_dict()
    return database, analysis
