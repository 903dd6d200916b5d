"""The benchmark's workloads of the exploration flow, and how they are measured.

Every workload drives the public API the way ``dmexplore run`` does:
``Experiment(spec).resolve()``, ``.run()``, ``database.to_json()`` and
``exploration_report()``.  All three use the paper's VTC decoder trace (the
registry ``vtc`` workload with its defaults, 2 900 events, generated from
the benchmark seed) over the 6 480-point ``vtc`` space, with the serial
backend.  The load is a closed loop with one client: each flow starts only
after the previous one finished.

``sweep``
    Exhaustive sweep into a fresh binary store: replay-bound (batched
    general-pool kernel plus the OOM-spill fallbacks), with store writes.
``search``
    ``nsga2``, ``tpe``, ``surrogate`` and ``random`` at a 5 % budget and no
    store: the only workload where strategy model time is large, and the
    only one with a quality metric (hypervolume against the exhaustive
    front, computed before any timing).
``resume``
    The sweep spec against a binary store that already holds every point
    (seeded before any timing, copied fresh for each flow): nothing is
    replayed, the time goes to store loads and reads, partition/commit,
    ``to_json`` and the report.

Each workload checks its outputs after every measured iteration; a failed
check counts the iteration as failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.api import ComponentRef, Experiment, ExperimentSpec
from repro.core import reporting
from repro.core.pareto import hypervolume, non_dominated, reference_point
from repro.core.results import ResultDatabase
from repro.core.store import merge_databases

from .tracing import LAYERS, Tracer

WORKLOADS = ("sweep", "search", "resume")

#: The search portfolio measured by the ``search`` workload.
STRATEGIES = ("nsga2", "tpe", "surrogate", "random")

#: Set-ups measured per invocation (at least; every flow adds its own).
SETUP_SAMPLES = 20

#: Parallel shards of the untimed exhaustive sweep that ``search`` and
#: ``resume`` prepare (one per core of the 2-core reference box).
PREPARATION_SHARDS = 2

#: The child-process entry point of one preparation shard.
SHARD_SCRIPT = Path(__file__).resolve().parent / "shard.py"

#: Sweep records re-profiled by the single-replay oracle after each flow.
SPOT_SAMPLES = 24

#: Layers whose busy time should account for a sweep's wall-clock; their sum
#: is reported as ``trace.accounted_s`` next to the traced pass's wall_s.
ACCOUNTED_LAYERS = (
    "batch.run_configuration",
    "store.put",
    "results.to_json",
    "reporting.report",
)

#: Tolerance of the ``hv_fraction <= 1`` check (floating-point rounding).
HV_TOLERANCE = 1e-9

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("configs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit, what it moves)`` of the per-layer metrics that are not a
#: wrapped callable's calls / busy / self triple.
DERIVED_LAYER_METRICS = (
    *((f"strategy.model.{name}", "s", f"search_s.{name} on search")
      for name in STRATEGIES),
    *((f"search_s.{name}", "s", f"wall-clock of the {name} run, search only")
      for name in STRATEGIES),
    *((f"hv_fraction.{name}", "ratio", f"front quality of {name}, search only")
      for name in STRATEGIES),
    ("batch.fallback_frac", "ratio",
     "wall_s on sweep, search_s.nsga2 on search (base: batch.run_configuration.calls)"),
    ("exploration.cache_hit_frac", "ratio",
     "search_s.* on search (base: exploration.cache_lookups)"),
    ("exploration.cache_lookups", "count", "base of exploration.cache_hit_frac"),
    ("store.loaded", "count", "setup_s on resume"),
    ("store.hit_frac", "ratio", "wall_s on resume (base: store.lookups)"),
    ("store.lookups", "count", "base of store.hit_frac"),
    ("store.bytes_written", "bytes", "wall_s on sweep"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s"),
)


def layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, what it moves)`` of every per-layer metric."""
    metrics = []
    for layer in LAYERS:
        if layer.named_by is not None:
            continue  # reported through its ``net`` time (strategy.model.*)
        metrics.append((f"{layer.name}.calls", "count", layer.moves))
        metrics.append((f"{layer.name}.busy_s", "s", layer.moves))
        metrics.append((f"{layer.name}.self_s", "s", layer.moves))
    metrics.extend(DERIVED_LAYER_METRICS)
    return metrics


@dataclass(frozen=True)
class Scale:
    """Input size of a run; the defaults are the benchmark's."""

    #: Square VTC texture side in pixels; ``None`` keeps the registry
    #: defaults (128 x 128, 2 900 events).
    image_size: int | None = None
    #: Evaluation budget of each search strategy (5 % of the space).
    budget: int = 324


# -- measuring one flow --------------------------------------------------------


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident-set high-water mark of this process, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Flow:
    """One timed pass from spec to written artefact and report."""

    database: ResultDatabase
    artefact: Path
    setup: float
    run: float
    wall: float
    rss_mb: float


def run_flow(spec: ExperimentSpec, artefact: Path) -> Flow:
    """Run ``spec`` the way ``dmexplore run`` does, timing each stage.

    Set-up is the workload's ``generate``, the trace compile and
    ``resolve`` (which opens and loads the store).  Every flow starts from
    a collected heap, as a fresh ``dmexplore run`` process would.
    """
    gc.collect()
    reset_peak_rss()
    started = time.perf_counter()
    experiment = Experiment(spec)
    experiment.resolve().trace.compiled()
    resolved = time.perf_counter()
    result = experiment.run()
    ran = time.perf_counter()
    result.database.to_json(artefact)
    reporting.exploration_report(
        result.database, title=f"{spec.workload.name} exploration"
    )
    finished = time.perf_counter()
    return Flow(
        database=result.database,
        artefact=artefact,
        setup=resolved - started,
        run=ran - resolved,
        wall=finished - started,
        rss_mb=peak_rss_mb(),
    )


def setup_time(spec: ExperimentSpec) -> float:
    """Seconds to set ``spec`` up without running it."""
    started = time.perf_counter()
    resolved = Experiment(spec).resolve()
    resolved.trace.compiled()
    elapsed = time.perf_counter() - started
    resolved.engine.close()
    if resolved.store is not None:
        resolved.store.close()
    return elapsed


def run_shards(specs: list[ExperimentSpec], work: Path) -> list[ResultDatabase]:
    """Run each spec in its own child process, all at once; their databases.

    Every child is waited for on every way out, and killed first when this
    process is leaving early, so none outlives the benchmark.
    """
    children = []
    parts = []
    try:
        for k, spec in enumerate(specs, 1):
            spec_path = work / f"shard{k}.spec.json"
            spec.to_json(spec_path)
            parts.append(work / f"shard{k}.json")
            children.append(
                subprocess.Popen(
                    [sys.executable, str(SHARD_SCRIPT), str(spec_path), str(parts[-1])],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                )
            )
        codes = [child.wait() for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    if any(codes):
        raise RuntimeError(f"preparation shard exit codes {codes}")
    return [ResultDatabase.from_json(part) for part in parts]


def exhaustive_front(
    spec: ExperimentSpec, work: Path, artefact: Path | None = None
) -> list[tuple]:
    """The Pareto front vectors of an exhaustive sweep of ``spec``.

    Untimed preparation: the sweep runs as :data:`PREPARATION_SHARDS`
    shards in parallel child processes, which leave no memory or caches
    behind in the measured process.  With ``artefact``, the merged shard
    artefacts are written there (identical to a single sweep's, up to the
    cache and store counters).
    """
    count = PREPARATION_SHARDS
    specs = [replace(spec, shard=f"{k}/{count}") for k in range(1, count + 1)]
    databases = run_shards(specs, work)
    if artefact is not None:
        merge_databases(databases).to_json(artefact)
    vectors = [
        record.metric_vector()
        for database in databases
        for record in database.pareto_records()
    ]
    return [vectors[index] for index in non_dominated(vectors)]


# -- the workloads -------------------------------------------------------------


@dataclass
class Sample:
    """What one measured iteration of a workload produced."""

    wall: float
    setups: list[float]
    configurations: int
    rss_mb: float
    counters: dict[str, float]
    #: Workload-specific figures (``search_s.*``, ``hv_fraction.*``).
    figures: dict[str, float] = field(default_factory=dict)
    #: Outputs the post-iteration check inspects.
    outputs: list[Flow] = field(default_factory=list)


def _counters(database, store_path: Path | None = None) -> dict[str, float]:
    return {
        "cache_hits": database.cache_hits,
        "cache_misses": database.cache_misses,
        "store_hits": database.store_hits,
        "store_misses": database.store_misses,
        "store_loaded": database.store_loaded,
        "bytes_written": store_path.stat().st_size if store_path else 0,
    }


class Workload:
    """A measured workload: untimed preparation, timed iterations, checks."""

    name = ""
    #: Iterations measured even when they overrun the run time.
    min_iterations = 1

    def __init__(self, seed: int, scale: Scale, work: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.work = work

    def spec(self, strategy: str = "exhaustive", store: Path | None = None) -> ExperimentSpec:
        workload = {}
        if self.scale.image_size is not None:
            side = self.scale.image_size
            workload = {"image_width": side, "image_height": side}
        return ExperimentSpec(
            workload=ComponentRef("vtc", workload),
            space=ComponentRef("vtc"),
            strategy=ComponentRef(
                strategy, {} if strategy == "exhaustive" else {"budget": self.scale.budget}
            ),
            store=(
                ComponentRef("binary", {"path": str(store)})
                if store is not None
                else ComponentRef("none")
            ),
            seed=self.seed,
        )

    def prepare(self) -> None:
        """Untimed work done once, before any timing."""

    def setup_only(self) -> float:
        raise NotImplementedError

    def iteration(self) -> Sample:
        raise NotImplementedError

    def check(self, sample: Sample) -> list[str]:
        """Problems found in ``sample``'s outputs (empty when correct)."""
        return []


class Sweep(Workload):
    """Exhaustive sweep writing to a fresh binary store."""

    name = "sweep"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._oracle = None

    def _fresh_store(self) -> Path:
        path = self.work / "sweep.bin"
        path.unlink(missing_ok=True)
        return path

    def setup_only(self) -> float:
        return setup_time(self.spec(store=self._fresh_store()))

    def iteration(self) -> Sample:
        store = self._fresh_store()
        flow = run_flow(self.spec(store=store), self.work / "sweep.json")
        return Sample(
            wall=flow.wall,
            setups=[flow.setup],
            configurations=len(flow.database),
            rss_mb=flow.rss_mb,
            counters=_counters(flow.database, store),
            outputs=[flow],
        )

    def check(self, sample: Sample) -> list[str]:
        """A fixed spot sample must equal single replay with batching off."""
        database = sample.outputs[0].database
        if self._oracle is None:
            self._oracle = Experiment(self.spec()).resolve().engine
            self._oracle.settings.batch_replay = False
        size = self._oracle.space.size()
        if len(database) != size:
            return [f"sweep: {len(database)} records, expected {size}"]
        problems = []
        for i in range(SPOT_SAMPLES):
            record = database[i * (size - 1) // (SPOT_SAMPLES - 1)]
            expected = self._oracle.run_point(
                record.parameters, label=record.configuration.label
            ).as_dict()
            actual = record.as_dict()
            expected.pop("index")
            actual.pop("index")
            if actual != expected:
                problems.append(
                    f"sweep: record {record.configuration.label} differs from single replay"
                )
        return problems


def _comparable(artefact: Path) -> str:
    """The artefact without its cache and store counters."""
    data = json.loads(artefact.read_text(encoding="utf-8"))
    data.pop("cache", None)
    data.pop("store", None)
    return json.dumps(data, indent=2)


class Resume(Workload):
    """The sweep spec against a store that already holds every point."""

    name = "resume"
    min_iterations = 3

    def prepare(self) -> None:
        self._seeded = self.work / "seeded.bin"
        reference = self.work / "reference.json"
        exhaustive_front(self.spec(store=self._seeded), self.work, reference)
        self._reference = _comparable(reference)

    def _store_copy(self) -> Path:
        path = self.work / "resume.bin"
        shutil.copyfile(self._seeded, path)
        return path

    def setup_only(self) -> float:
        return setup_time(self.spec(store=self._store_copy()))

    def iteration(self) -> Sample:
        store = self._store_copy()
        before = store.stat().st_size
        flow = run_flow(self.spec(store=store), self.work / "resume.json")
        counters = _counters(flow.database, store)
        counters["bytes_written"] -= before
        return Sample(
            wall=flow.wall,
            setups=[flow.setup],
            configurations=len(flow.database),
            rss_mb=flow.rss_mb,
            counters=counters,
            outputs=[flow],
        )

    def check(self, sample: Sample) -> list[str]:
        flow = sample.outputs[0]
        problems = []
        if flow.database.cache_misses:
            problems.append(f"resume: {flow.database.cache_misses} points replayed")
        if _comparable(flow.artefact) != self._reference:
            problems.append("resume: artefact differs from the sweep's")
        return problems


class Search(Workload):
    """The search portfolio at a 5 % budget, scored against the exhaustive front."""

    name = "search"

    def prepare(self) -> None:
        truth = exhaustive_front(self.spec(), self.work)
        # The reference comes from the exhaustive *front*: a reference from
        # every feasible vector lies so far out that any handful of points
        # already covers nearly all of its volume.
        self._reference = reference_point(truth)
        self._truth = hypervolume(truth, self._reference)
        self._digests: dict[str, str] = {}

    def setup_only(self) -> float:
        return setup_time(self.spec(STRATEGIES[0]))

    def iteration(self) -> Sample:
        flows = {
            name: run_flow(self.spec(name), self.work / f"{name}.json")
            for name in STRATEGIES
        }
        counters: dict[str, float] = {}
        figures: dict[str, float] = {}
        for name, flow in flows.items():
            for key, value in _counters(flow.database).items():
                counters[key] = counters.get(key, 0) + value
            front = [record.metric_vector() for record in flow.database.pareto_records()]
            figures[f"search_s.{name}"] = flow.run
            figures[f"hv_fraction.{name}"] = hypervolume(front, self._reference) / self._truth
        return Sample(
            wall=sum(flow.wall for flow in flows.values()),
            setups=[flow.setup for flow in flows.values()],
            configurations=sum(len(flow.database) for flow in flows.values()),
            rss_mb=max(flow.rss_mb for flow in flows.values()),
            counters=counters,
            figures=figures,
            outputs=list(flows.values()),
        )

    def check(self, sample: Sample) -> list[str]:
        """Every strategy spends its budget, scores hv_fraction <= 1 and
        writes the same artefact bytes in every iteration of the invocation
        (a traced run always makes at least two)."""
        problems = []
        for name, flow in zip(STRATEGIES, sample.outputs):
            digest = hashlib.sha256(flow.artefact.read_bytes()).hexdigest()
            if self._digests.setdefault(name, digest) != digest:
                problems.append(f"search: {name} artefact differs between runs")
            if len(flow.database) != self.scale.budget:
                problems.append(
                    f"search: {name} made {len(flow.database)} evaluations, "
                    f"budget {self.scale.budget}"
                )
            fraction = sample.figures[f"hv_fraction.{name}"]
            if fraction > 1.0 + HV_TOLERANCE:
                problems.append(f"search: {name} hv_fraction {fraction} exceeds 1")
        return problems


WORKLOAD_CLASSES = {cls.name: cls for cls in (Sweep, Search, Resume)}


# -- measuring a workload ------------------------------------------------------


@dataclass
class Pass:
    """The iterations of one measured pass (untraced or traced)."""

    samples: list[Sample] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.failed

    def median(self, key) -> float:
        return statistics.median(key(sample) for sample in self.samples)

    def total(self, counter: str) -> float:
        return sum(sample.counters[counter] for sample in self.samples)


def measure(workload: Workload, seconds: float, tracer: Tracer | None = None) -> Pass:
    """Closed loop: iterate for ``seconds`` (and at least ``min_iterations``).

    Only the iteration itself runs under the tracer; the output check runs
    after it, outside the timing.
    """
    result = Pass()
    started = time.perf_counter()
    while (
        result.attempted < workload.min_iterations
        or time.perf_counter() - started < seconds
    ):
        try:
            with tracer.installed() if tracer is not None else nullcontext():
                sample = workload.iteration()
            problems = workload.check(sample)
        except Exception:  # a broken program is reported, not fatal
            traceback.print_exc()
            result.failed += 1
            continue
        sample.outputs = []  # the databases are large; keep only the figures
        if problems:
            print("\n".join(problems), file=sys.stderr)
            result.failed += 1
        else:
            result.samples.append(sample)
    return result


def _fraction(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end_metrics(untraced: Pass, setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": untraced.median(lambda s: s.wall),
        "setup_s": statistics.median(setups),
        "configs_per_s": untraced.median(lambda s: s.configurations / s.wall),
        "peak_rss_mb": untraced.median(lambda s: s.rss_mb),
    }


def layer_values(
    untraced: Pass, traced: Pass, tracer: Tracer, figures: dict[str, float]
) -> dict[str, float]:
    """Per-flow per-layer figures of the traced pass, plus the search-only
    ``figures`` of the untraced pass and the tracing overhead."""
    flows = len(traced.samples)
    values: dict[str, float] = {}
    for layer in LAYERS:
        if layer.named_by is not None:
            continue
        totals = tracer.get(layer.name)
        values[f"{layer.name}.calls"] = totals.calls / flows
        values[f"{layer.name}.busy_s"] = totals.busy / flows
        values[f"{layer.name}.self_s"] = totals.own / flows
    for name in STRATEGIES:
        values[f"strategy.model.{name}"] = tracer.net.get(f"strategy.{name}", 0.0) / flows
        for figure in (f"search_s.{name}", f"hv_fraction.{name}"):
            values[figure] = figures.get(figure, 0.0)
    values["batch.fallback_frac"] = _fraction(
        tracer.get("batch.fallback").calls, tracer.get("batch.run_configuration").calls
    )
    lookups = traced.total("cache_hits") + traced.total("cache_misses")
    values["exploration.cache_hit_frac"] = _fraction(traced.total("cache_hits"), lookups)
    values["exploration.cache_lookups"] = lookups / flows
    values["store.loaded"] = traced.total("store_loaded") / flows
    store_lookups = traced.total("store_hits") + traced.total("store_misses")
    values["store.hit_frac"] = _fraction(traced.total("store_hits"), store_lookups)
    values["store.lookups"] = store_lookups / flows
    values["store.bytes_written"] = traced.total("bytes_written") / flows
    values["trace.overhead_s"] = traced.median(lambda s: s.wall) - figures["wall_s"]
    return values


@dataclass
class Result:
    """Everything one benchmark invocation measured."""

    workload: str
    attempted: int
    failed: int
    #: The metrics of the final JSON line: end-to-end (untraced run) or
    #: per-layer (traced run), each ``name -> (value, unit)``.
    metrics: dict[str, tuple[float, str]]
    #: The end-to-end figures of the untraced pass (with ``error_rate`` and
    #: the search-only ``search_s.*``/``hv_fraction.*``), plus the traced
    #: pass's ``trace.wall_s`` and ``trace.accounted_s`` when traced.
    figures: dict[str, float]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, work: Path, scale: Scale = Scale()
) -> Result:
    """Prepare, measure (and with ``trace`` also trace) one workload."""
    workload = WORKLOAD_CLASSES[name](seed, scale, work)
    workload.prepare()
    # Set-ups are sampled before and after the measured pass, so their
    # median spans the same stretch of machine time as the flows'.
    setups = [workload.setup_only() for _ in range(SETUP_SAMPLES // 2)]
    untraced = measure(workload, seconds)
    setups += [workload.setup_only() for _ in range(SETUP_SAMPLES // 2)]
    traced, tracer = Pass(), Tracer()
    if trace and untraced.samples:
        traced = measure(workload, seconds, tracer)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if not untraced.samples or (trace and not traced.samples):
        return Result(name, attempted, failed, {}, {})
    for sample in untraced.samples:
        setups.extend(sample.setups)
    figures = end_to_end_metrics(untraced, setups)
    for key in untraced.samples[0].figures:
        figures[key] = untraced.median(lambda sample: sample.figures[key])
    figures["error_rate"] = failed / attempted
    if trace:
        values = layer_values(untraced, traced, tracer, figures)
        figures["trace.wall_s"] = traced.median(lambda sample: sample.wall)
        figures["trace.accounted_s"] = sum(
            values[f"{layer}.busy_s"] for layer in ACCOUNTED_LAYERS
        )
        metrics = {metric: (values[metric], unit) for metric, unit, _ in layer_metrics()}
    else:
        metrics = {metric: (figures[metric], unit) for metric, unit in END_TO_END}
    return Result(name, attempted, failed, metrics, figures)


# -- provenance ----------------------------------------------------------------


def environment(root: Path) -> dict:
    """The machine and code a result was measured on."""
    sha = None  # not a git checkout: ``source_sha256`` identifies the code
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "load_average": list(os.getloadavg()),
        "cpu_calibration_s": cpu_calibration_s(),
    }


def cpu_calibration_s() -> float:
    """Median seconds of a fixed pure-Python loop: how fast the machine runs
    right now.  On a shared host this moves by tens of percent within
    minutes, which explains run-to-run spread no benchmark setting removes."""

    def loop() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return time.perf_counter() - started

    return statistics.median(loop() for _ in range(7))
