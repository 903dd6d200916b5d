"""Span tracer for the benchmark's traced run.

The program carries no instrumentation of its own, so the traced run wraps
public callables of ``repro`` from the outside: each wrapped call opens a
span on entry and closes it on exit.  Spans are aggregated as they close
into, per span name:

``calls``
    how many times the callable ran;
``busy``
    seconds inside the callable, counting a call nested in a call of the
    same name once;
``own``
    ``busy`` minus the time covered by directly nested spans (self time).

A span may also name one child layer to *exclude*: ``net`` is then its
duration minus the time spent in children of that name at any depth (the
strategy model time is a strategy run minus its point evaluations).

:data:`LAYERS` lists every wrapped callable with the end-to-end metric it
should move; :meth:`Tracer.installed` patches them in and always restores
the originals.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Layer:
    """One wrapped public callable of the program."""

    #: Metric prefix of the layer (``<name>.calls`` / ``.busy_s`` / ``.self_s``).
    name: str
    #: ``"module:Class.attribute"`` or ``"module:function"``.
    target: str
    #: End-to-end metric(s) and workload(s) this layer should move.
    moves: str
    #: Record a call only when the innermost open span has this name.
    parent: str | None = None
    #: Name the span after the receiver (``self``) instead of :attr:`name`.
    named_by: Callable[[object], str] | None = None
    #: Child span name whose time :attr:`Tracer.net` excludes.
    exclude: str | None = None


def _strategy_span(strategy) -> str:
    return f"strategy.{strategy.name}"


#: The traced layers, outermost first.
LAYERS = (
    Layer("workloads.generate", "repro.workloads.vtc:VTCWorkload.generate",
          "setup_s, all workloads"),
    Layer("profiling.compile", "repro.profiling.tracer:AllocationTrace.compiled",
          "setup_s, all workloads"),
    Layer("api.resolve", "repro.api.experiment:Experiment.resolve",
          "setup_s, all workloads (self time excludes store.open)"),
    Layer("store.open", "repro.core.store:ResultStore.__init__",
          "setup_s on resume"),
    Layer("strategy", "repro.core.search:SearchStrategy.run",
          "search_s.<name> on search", named_by=_strategy_span,
          exclude="exploration.evaluate_points"),
    Layer("forest.fit", "repro.core.strategies.forest:RandomForest.fit",
          "search_s.surrogate on search"),
    Layer("exploration.evaluate_points",
          "repro.core.exploration:ExplorationEngine.evaluate_points",
          "wall_s on resume (most of it) and sweep (little); "
          "self time = partition + commit"),
    Layer("exploration.configuration_for",
          "repro.core.exploration:ExplorationEngine.configuration_for",
          "configs_per_s on sweep"),
    Layer("batch.run_configuration",
          "repro.profiling.batch:BatchReplayEngine.run_configuration",
          "wall_s on sweep, search_s.* on search; self time = batched kernel"),
    Layer("batch.fallback", "repro.profiling.profiler:Profiler.run",
          "wall_s on sweep, search_s.nsga2 on search",
          parent="batch.run_configuration"),
    Layer("store.get", "repro.core.store:ResultStore.get", "wall_s on resume"),
    Layer("store.put", "repro.core.store:ResultStore.put", "wall_s on sweep"),
    Layer("results.to_json", "repro.core.results:ResultDatabase.to_json",
          "wall_s on resume (large share) and sweep (small share)"),
    Layer("reporting.report", "repro.core.reporting:exploration_report",
          "wall_s on resume (large share) and sweep (small share)"),
)


@dataclass
class Totals:
    """Aggregated spans of one name."""

    calls: int = 0
    busy: float = 0.0
    own: float = 0.0


@dataclass
class _Frame:
    name: str
    exclude: str | None
    start: float = 0.0
    children: float = 0.0
    excluded: float = 0.0


@dataclass
class Tracer:
    """Aggregates the spans of wrapped calls; see the module docstring."""

    totals: dict[str, Totals] = field(default_factory=dict)
    net: dict[str, float] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _depth: dict[str, int] = field(default_factory=dict)

    def get(self, name: str) -> Totals:
        return self.totals.get(name, Totals())

    def _enter(self, name: str, exclude: str | None) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = _Frame(name, exclude)
        self._stack.append(frame)
        frame.start = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        depth = self._depth[frame.name] - 1
        self._depth[frame.name] = depth
        totals = self.totals.setdefault(frame.name, Totals())
        totals.calls += 1
        totals.own += duration - frame.children
        if depth == 0:
            totals.busy += duration
        if self._stack:
            self._stack[-1].children += duration
        for outer in reversed(self._stack):
            if outer.exclude == frame.name:
                outer.excluded += duration
                break
        if frame.exclude is not None:
            self.net[frame.name] = (
                self.net.get(frame.name, 0.0) + duration - frame.excluded
            )

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if layer.parent is not None and (
                not tracer._stack or tracer._stack[-1].name != layer.parent
            ):
                return original(*args, **kwargs)
            name = layer.named_by(args[0]) if layer.named_by else layer.name
            tracer._enter(name, layer.exclude)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit()

        traced.__wrapped__ = original
        traced.__doc__ = original.__doc__
        return traced

    @contextmanager
    def installed(self, layers=LAYERS) -> Iterator["Tracer"]:
        """Patch every layer's callable for the duration of the block."""
        patches: list[tuple[object, str, object]] = []
        try:
            for layer in layers:
                module_name, _, path = layer.target.partition(":")
                *owner_path, attribute = path.split(".")
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attribute]
                patches.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(layer, original))
            yield self
        finally:
            for owner, attribute, original in reversed(patches):
                setattr(owner, attribute, original)
