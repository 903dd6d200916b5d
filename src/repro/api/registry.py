"""Open, entry-point-style registries of the experiment building blocks.

An :class:`~repro.api.spec.ExperimentSpec` refers to every component of a
run — workload, parameter space, memory hierarchy, search strategy,
evaluation backend, result sink — by ``name`` plus a ``params`` dict.  The
registries in this module resolve those names.  Each registry is *open*:
third-party code calls :meth:`Registry.register` (directly or as a
decorator) and the new component immediately becomes usable from the
Python API **and** from the CLI (``dmexplore run``/``explore`` read the
registries live), without touching :mod:`repro.cli`::

    from repro.api import registry

    @registry.workloads.register("myapp", description="my application model")
    class MyWorkload(Workload):
        ...

    # or, for an existing class / factory function:
    registry.strategies.register("anneal", AnnealingSearch,
                                 description="simulated annealing")

Registries
----------

``workloads``
    ``factory(**params) -> Workload`` — the object must offer
    ``generate(seed) -> AllocationTrace`` and ``describe()``.
``spaces``
    ``factory(**params) -> ParameterSpace``.
``hierarchies``
    ``factory(**params) -> MemoryHierarchy``.
``strategies``
    Either a :class:`~repro.core.search.SearchStrategy` subclass (wrapped
    automatically) or a runner ``factory(engine, *, seed, metrics, sink,
    **params) -> ResultDatabase``.
``backends``
    ``factory(**params) -> EvaluationBackend``.
``sinks``
    ``factory(metrics, **params) -> ResultSink | None`` (``metrics`` is the
    experiment's metric selection; return ``None`` for "no sink").
``stores``
    ``factory(**params) -> ResultStore | None`` — the persistent L2 result
    store behind the engine's memoisation cache.  Built-ins: ``none``,
    ``jsonl`` and ``binary`` (params: ``path``, ``auto_compact``).

Entry ``defaults`` are the params applied when the spec gives none; spec
params override them key by key.  Descriptions default to the first line
of the factory's docstring and feed ``dmexplore list``.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

from ..core.exploration import ProcessPoolBackend, SerialBackend
from ..core.search import (
    DEFAULT_SEARCH_BUDGET,
    RandomSearch,
    SearchBudget,
    SearchStrategy,
)
from ..core.space import STANDARD_SPACES
from ..core.strategies import NSGA2Search, TPESearch
from ..memhier.hierarchy import embedded_three_level, embedded_two_level
from ..workloads.synthetic import BurstyWorkload, UniformRandomWorkload
from ..workloads.easyport import EasyportWorkload
from ..workloads.server import (
    DiurnalWorkload,
    RequestBurstWorkload,
    SessionChurnWorkload,
)
from ..workloads.vtc import VTCWorkload


class RegistryError(KeyError):
    """An unknown registry name, or invalid params for a registered entry.

    Subclasses :class:`KeyError` so legacy ``dict``-style lookups keep
    their exception contract, but formats like a ``ValueError`` (KeyError
    would quote the whole message).
    """

    def __str__(self) -> str:  # KeyError repr()s its argument; we want text
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its factory, defaults and description."""

    name: str
    factory: Callable
    description: str = ""
    defaults: Mapping = field(default_factory=dict)

    def create(self, params: Mapping | None = None, *args, **extra):
        """Call the factory with ``defaults`` overridden by ``params``."""
        merged = {**self.defaults, **dict(params or {})}
        return self.factory(*args, **merged, **extra)


class Registry:
    """Named, open collection of component factories of one ``kind``."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    # -- registration ------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Callable | None = None,
        *,
        description: str = "",
        defaults: Mapping | None = None,
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        ``description`` defaults to the first line of the factory's
        docstring.  Re-registering an existing name raises unless
        ``replace=True`` — silent shadowing of a built-in would make specs
        ambiguous.  Returns the factory, so the decorator form leaves the
        decorated object untouched.
        """
        if factory is None:
            return lambda f: self.register(
                name, f, description=description, defaults=defaults, replace=replace
            )
        if not replace and name in self._entries:
            raise RegistryError(
                f"{self.kind} '{name}' is already registered; "
                "pass replace=True to override it"
            )
        text = description or _docstring_summary(factory)
        self._entries[name] = RegistryEntry(
            name=name, factory=factory, description=text, defaults=dict(defaults or {})
        )
        return factory

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests un-doing a registration)."""
        self._entries.pop(name, None)

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> RegistryEntry:
        """The entry registered under ``name`` (actionable error if absent)."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} '{name}' (known: {', '.join(self.names())})"
            ) from None

    def create(self, name: str, params: Mapping | None = None, *args, **extra):
        """Instantiate ``name`` with ``params`` over the entry defaults.

        A factory rejecting the params (unknown keyword, wrong arity, or a
        value its validation refuses) surfaces as a :class:`RegistryError`
        naming the entry, so frontends can report it cleanly.
        """
        entry = self.get(name)
        try:
            return entry.create(params, *args, **extra)
        except (TypeError, ValueError) as error:
            raise RegistryError(f"{self.kind} '{name}': {error}") from None

    def check_params(self, name: str, params: Mapping) -> None:
        """Validate ``params`` against the factory signature without calling it.

        Catches unknown parameter names at spec-validation time (so
        ``dmexplore run --dry-run`` rejects typos before any work is done).
        For strategy runners built by :func:`search_strategy_factory`, the
        params are bound against the wrapped :class:`SearchStrategy`
        subclass (the runner itself takes ``**params`` and would accept
        anything); other factories taking ``**kwargs`` accept everything
        by construction.
        """
        entry = self.get(name)
        merged = {**entry.defaults, **dict(params)}
        target = getattr(entry.factory, "strategy_class", None)
        if target is not None:
            # ``budget`` is consumed by the wrapper (it becomes the
            # SearchBudget), not by the strategy constructor.
            merged.pop("budget", None)
        try:
            signature = inspect.signature(target or entry.factory)
        except (TypeError, ValueError):  # pragma: no cover - builtins etc.
            return
        try:
            signature.bind_partial(**merged)
        except TypeError as error:
            raise RegistryError(f"{self.kind} '{name}': {error}") from None

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def items(self) -> list[RegistryEntry]:
        """All entries, sorted by name."""
        return [self._entries[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, names={self.names()})"


def _docstring_summary(obj) -> str:
    """First line of ``obj``'s docstring, or ''."""
    doc = inspect.getdoc(obj)
    return doc.splitlines()[0].strip() if doc else ""


def search_strategy_factory(cls: type[SearchStrategy]) -> Callable:
    """Adapt a :class:`SearchStrategy` subclass to the strategy-runner contract.

    The returned runner builds the strategy with the experiment's budget,
    seed and metric selection (plus any strategy-specific
    params from the spec) and returns its result database.
    """

    def run_strategy(
        engine,
        *,
        seed: int = 0,
        metrics: list[str] | None = None,
        sink=None,
        budget: int = DEFAULT_SEARCH_BUDGET,
        **params,
    ):
        # Construction errors (misspelled or out-of-range strategy params)
        # become clean RegistryErrors; only the construction is guarded, so
        # an error raised *during* the search still propagates untouched.
        # The caller names the strategy: a retired name runs another class.
        try:
            strategy = cls(
                engine,
                SearchBudget(evaluations=budget, seed=seed),
                metrics=metrics,
                **params,
            )
        except (TypeError, ValueError) as error:
            raise RegistryError(str(error)) from None
        return strategy.run(sink=sink)

    run_strategy.__doc__ = _docstring_summary(cls)
    run_strategy.strategy_class = cls
    return run_strategy


def _run_exhaustive(
    engine,
    *,
    seed: int = 0,
    metrics: list[str] | None = None,
    sink=None,
):
    """Exhaustive enumeration of the whole space (the paper's flow)."""
    return engine.explore(sink=sink)


#: The component registries the experiment layer resolves specs through.
workloads = Registry("workload")
spaces = Registry("space")
hierarchies = Registry("hierarchy")
strategies = Registry("strategy")
backends = Registry("backend")
sinks = Registry("sink")
stores = Registry("store")
#: Roles of the distributed service (``dmexplore serve``/``worker``); the
#: factories build :class:`repro.distrib.Coordinator`/``Worker`` objects.
services = Registry("service")


def _populate() -> None:
    """Install the built-in components.

    The workload defaults reproduce what the CLI has always built for each
    ``--workload`` name (e.g. a 4 000-packet Easyport run), so experiment
    specs and legacy flag invocations describe the same runs.
    """
    workloads.register(
        "easyport",
        EasyportWorkload,
        defaults={"packets": 4000},
        description="Easyport-style packet processing (paper case study 1)",
    )
    workloads.register(
        "vtc",
        VTCWorkload,
        defaults={"image_width": 128, "image_height": 128},
        description="MPEG-4 VTC still-texture decoding (paper case study 2)",
    )
    workloads.register(
        "uniform",
        UniformRandomWorkload,
        defaults={"operations": 3000},
        description="uncorrelated uniformly random allocations",
    )
    workloads.register(
        "bursty",
        BurstyWorkload,
        defaults={"bursts": 15, "burst_length": 80},
        description="alternating allocation bursts and quiet free periods",
    )
    workloads.register(
        "sessions",
        SessionChurnWorkload,
        description="server session arrival/departure churn with state blocks",
    )
    workloads.register(
        "requests",
        RequestBurstWorkload,
        description="batched request/response bursts of pooled blocks",
    )
    workloads.register(
        "diurnal",
        DiurnalWorkload,
        description="sinusoidal day/night load curve over a mixed size profile",
    )

    for name, factory in STANDARD_SPACES.items():
        spaces.register(name, factory)

    hierarchies.register(
        "2level",
        embedded_two_level,
        description="64 KB scratchpad + 4 MB main memory (the paper's platform)",
    )
    hierarchies.register(
        "3level",
        embedded_three_level,
        description="scratchpad + on-chip SRAM + off-chip main memory",
    )

    strategies.register(
        "exhaustive",
        _run_exhaustive,
        description="exhaustive enumeration of the whole space (the paper's flow)",
    )
    strategies.register(
        "random",
        search_strategy_factory(RandomSearch),
        defaults={"budget": DEFAULT_SEARCH_BUDGET},
        description="uniform random sampling of the space",
    )
    strategies.register(
        "nsga2",
        search_strategy_factory(NSGA2Search),
        defaults={"budget": DEFAULT_SEARCH_BUDGET},
        description="NSGA-II: non-dominated sorting + crowding-distance selection",
    )
    strategies.register(
        "tpe",
        search_strategy_factory(TPESearch),
        defaults={"budget": DEFAULT_SEARCH_BUDGET},
        description="TPE sampler: model good-vs-rest densities, sample the ratio",
    )
    # Retired strategies: nsga2 matched or beat each of them on front
    # hypervolume at no more seconds on every measured setup
    # (docs/search.md).  Their names stay so old specs and --strategy flags
    # still run; a budget-only spec keeps its hash, and the artefact is
    # named after nsga2, which ran.
    for retired in ("evolutionary", "hillclimb", "surrogate"):
        strategies.register(
            retired,
            search_strategy_factory(NSGA2Search),
            defaults={"budget": DEFAULT_SEARCH_BUDGET},
            description="retired; runs nsga2",
        )

    backends.register(
        "serial",
        SerialBackend,
        description="in-process evaluation through the batch replay kernel",
    )
    backends.register(
        "process",
        ProcessPoolBackend,
        description="multiprocessing worker pool (params: jobs, chunk_size)",
    )

    sinks.register(
        "none",
        lambda metrics=None: None,
        description="no streaming consumer (the default)",
    )

    def _pareto_sink(metrics=None):
        from ..core.results import StreamingParetoSink

        return StreamingParetoSink(metrics=metrics)

    sinks.register(
        "pareto",
        _pareto_sink,
        description="live incremental Pareto front over the produced records",
    )

    def _dashboard_sink(metrics=None, interval=0.5):
        from ..gui.live import LiveDashboardSink

        return LiveDashboardSink(metrics=metrics, interval=interval)

    sinks.register(
        "dashboard",
        _dashboard_sink,
        description="live terminal dashboard: front size, metric ranges, "
        "memo/store counters, eval rate (params: interval)",
    )

    # The store factories import repro.core.store lazily for symmetry with
    # the services (and to keep this module import-light).
    def _no_store(path=None, auto_compact=None):
        """No persistent result store (every run profiles cold)."""
        return None

    def _jsonl_store(path=None, auto_compact=None):
        from ..core.store import ResultStore, default_store_path

        return ResultStore(
            path or default_store_path("jsonl"),
            format="jsonl",
            auto_compact=auto_compact,
        )

    def _binary_store(path=None, auto_compact=None):
        from ..core.store import ResultStore, default_store_path

        return ResultStore(
            path or default_store_path("binary"),
            format="binary",
            auto_compact=auto_compact,
        )

    stores.register(
        "none",
        _no_store,
        description="no persistent result store (every run profiles cold)",
    )
    stores.register(
        "jsonl",
        _jsonl_store,
        description="append-only JSON-lines store, text-tool friendly "
        "(params: path, auto_compact)",
    )
    stores.register(
        "binary",
        _binary_store,
        description="framed binary store, parse-free loads at scale "
        "(params: path, auto_compact)",
    )

    # The service factories import repro.distrib lazily: distrib builds on
    # the experiment layer, which imports this module — a top-level import
    # here would be circular.
    def _coordinator(spec, **options):
        from ..distrib import Coordinator

        return Coordinator(spec, **options)

    def _worker(address, **options):
        from ..distrib import Worker

        return Worker(address, **options)

    services.register(
        "coordinator",
        _coordinator,
        description="lease enumeration ranges to workers (dmexplore serve)",
    )
    services.register(
        "worker",
        _worker,
        description="evaluate leased ranges for a coordinator (dmexplore worker)",
    )


_populate()
