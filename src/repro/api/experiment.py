"""Resolve and execute an :class:`~repro.api.spec.ExperimentSpec`.

:class:`Experiment` is the one execution path behind every frontend: the
CLI subcommands, embedding scripts and future schedulers all construct a
spec and call :meth:`Experiment.run`.  Because they share this path, a
``dmexplore run experiment.json`` and the equivalent legacy flag
invocation produce byte-identical artefacts.

Embedding example::

    from repro.api import ComponentRef, Experiment, ExperimentSpec

    spec = ExperimentSpec(
        workload=ComponentRef("uniform", {"operations": 500}),
        space=ComponentRef("smoke"),
        seed=1,
    )
    result = Experiment(spec).run()
    print(len(result.database), "records,", len(result.pareto_records()), "optimal")
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any

from ..core.exploration import ExplorationEngine, ExplorationSettings, ShardSpec
from ..core.results import Provenance, ResultDatabase
from ..core.store import ResultStore, StoreError
from ..memhier.energy import EnergyModel
from ..profiling.metrics import metric_keys
from . import registry
from .spec import ExperimentSpec, SpecError


@dataclass
class ResolvedExperiment:
    """Every live object a spec resolves to, ready to execute.

    Exposed so frontends can describe the run (workload description, space
    size, backend jobs) before or instead of executing it — ``dmexplore
    run --dry-run`` and the pre-run banner are built from this.
    """

    spec: ExperimentSpec
    workload: Any
    trace: Any
    space: Any
    hierarchy: Any
    energy_model: EnergyModel
    backend: Any
    store: ResultStore | None
    sink: Any
    shard: ShardSpec | None
    metrics: list[str]
    engine: ExplorationEngine


@dataclass
class RunResult:
    """Outcome of one experiment run.

    Bundles the produced :class:`~repro.core.results.ResultDatabase` with
    the spec that produced it, the canonical spec hash, and the execution
    counters — everything a caller needs to analyse, persist or attribute
    the run.
    """

    spec: ExperimentSpec
    spec_hash: str
    database: ResultDatabase
    sink: Any = None

    @property
    def provenance(self) -> Provenance | None:
        """The artefact provenance (fingerprint, space, spec hash, shard)."""
        return self.database.provenance

    @property
    def counters(self) -> dict:
        """Cache/store execution counters of the run."""
        return {
            "cache_hits": self.database.cache_hits,
            "cache_misses": self.database.cache_misses,
            "store_hits": self.database.store_hits,
            "store_misses": self.database.store_misses,
            "store_loaded": self.database.store_loaded,
        }

    def pareto_records(self, metrics: list[str] | None = None):
        """Pareto-optimal records over the spec's (or the given) metrics."""
        return self.database.pareto_records(
            metrics or (list(self.spec.metrics) if self.spec.metrics else None)
        )

    def report(self, title: str = "") -> str:
        """The textual exploration report of the produced database."""
        from ..core.reporting import exploration_report

        return exploration_report(self.database, title=title)


class Experiment:
    """Executable form of an :class:`ExperimentSpec`.

    Construction validates the spec (:class:`SpecError` on any problem);
    :meth:`resolve` instantiates every component through the registries;
    :meth:`run` executes the exploration end to end and returns a
    :class:`RunResult`.  Backend workers and an attached store are closed
    when the run finishes, so one ``Experiment`` executes one run; build a
    new one (same spec — it is just a value) to run again.
    """

    def __init__(self, spec: ExperimentSpec, progress: bool = False) -> None:
        spec.validate()
        self.spec = spec
        # With progress on (the CLI default), the engine prints a line every
        # ~10% of the run, exactly as the CLI always has; library embedders
        # stay silent by default.
        self.progress = progress
        self._resolved: ResolvedExperiment | None = None

    # -- resolution --------------------------------------------------------

    def resolve(self) -> ResolvedExperiment:
        """Instantiate the spec's components (cached until :meth:`run`)."""
        if self._resolved is None:
            self._resolved = self._build()
        return self._resolved

    def _build(self) -> ResolvedExperiment:
        spec = self.spec
        workload = self._create(registry.workloads, spec.workload, "workload")
        trace = workload.generate(seed=spec.seed)
        space = self._create(registry.spaces, spec.space, "space")
        hierarchy = self._create(registry.hierarchies, spec.hierarchy, "hierarchy")
        try:
            energy_model = EnergyModel(hierarchy, **spec.energy.params)
        except TypeError as error:
            raise SpecError(f"energy.params: {error}") from None
        backend = self._create(registry.backends, spec.backend, "backend")
        metrics = list(spec.metrics) if spec.metrics is not None else metric_keys()
        sink = self._create(registry.sinks, spec.sink, "sink", metrics=metrics)
        store = self._open_store()
        shard = ShardSpec.parse(spec.shard) if spec.shard else None
        total = spec.sample if spec.sample is not None else space.size()
        settings = ExplorationSettings(
            metrics=metrics,
            sample=spec.sample,
            sample_seed=spec.sample_seed,
            progress_every=max(1, total // 10) if self.progress else 0,
            shard=shard,
        )
        engine = ExplorationEngine(
            space,
            trace,
            hierarchy=hierarchy,
            settings=settings,
            energy_model=energy_model,
            backend=backend,
            store=store,
        )
        engine.spec_hash = spec.spec_hash()
        # Observability sinks (the live dashboard) can watch the engine's
        # memo/store counters while the sweep runs.
        if sink is not None and hasattr(sink, "attach_engine"):
            sink.attach_engine(engine)
        return ResolvedExperiment(
            spec=spec,
            workload=workload,
            trace=trace,
            space=space,
            hierarchy=hierarchy,
            energy_model=energy_model,
            backend=backend,
            store=store,
            sink=sink,
            shard=shard,
            metrics=metrics,
            engine=engine,
        )

    @staticmethod
    def _create(reg: registry.Registry, ref, key: str, **extra):
        try:
            return reg.create(ref.name, ref.params, **extra)
        except registry.RegistryError as error:
            raise SpecError(f"{key}: {error}") from None

    def _open_store(self) -> ResultStore | None:
        spec = self.spec
        try:
            return registry.stores.create(spec.store.name, spec.store.params)
        except registry.RegistryError as error:
            raise SpecError(f"store: {error}") from None
        except (StoreError, OSError) as error:
            raise SpecError(f"store.params.path: cannot open result store: {error}") from None

    # -- execution ---------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the experiment and return its :class:`RunResult`."""
        resolved = self.resolve()
        spec = self.spec
        entry = registry.strategies.get(spec.strategy.name)
        params = {**entry.defaults, **spec.strategy.params}
        kwargs = dict(
            seed=spec.seed,
            metrics=resolved.metrics,
            sink=resolved.sink,
            **params,
        )
        # Reject a call the runner's signature cannot bind *before* calling
        # it, so an unknown keyword surfaces as a spec error while a
        # TypeError raised during the actual search propagates untouched.
        try:
            inspect.signature(entry.factory).bind(resolved.engine, **kwargs)
        except TypeError as error:
            raise SpecError(
                f"strategy.params: strategy '{spec.strategy.name}': {error}"
            ) from None
        try:
            try:
                database = entry.factory(resolved.engine, **kwargs)
            except registry.RegistryError as error:
                # Strategy construction refused its params (see
                # search_strategy_factory) — a spec problem, not a crash.
                raise SpecError(f"strategy.params: {error}") from None
        finally:
            resolved.engine.close()
            if resolved.store is not None:
                resolved.store.close()
            if resolved.sink is not None and hasattr(resolved.sink, "finish"):
                resolved.sink.finish()
            # The engine and store are spent; a re-run must re-resolve.
            self._resolved = None
        return RunResult(
            spec=spec,
            # The hash the engine stamped into provenance and store entries
            # at resolve time — computed once, reported consistently.
            spec_hash=resolved.engine.spec_hash,
            database=database,
            sink=resolved.sink,
        )


def run_experiment(spec: ExperimentSpec) -> RunResult:
    """One-shot helper: ``Experiment(spec).run()``."""
    return Experiment(spec).run()
