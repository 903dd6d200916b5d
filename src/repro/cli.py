"""Command-line interface of the exploration tool.

``dmexplore`` (or ``python -m repro``) is a thin shell over the
declarative experiment API (:mod:`repro.api`): every subcommand constructs
an :class:`~repro.api.ExperimentSpec` and hands it to
:class:`~repro.api.Experiment`, so a flag invocation and the equivalent
``dmexplore run EXPERIMENT.json`` produce byte-identical artefacts.

* ``dmexplore spec --out experiment.json``
    emit the commented default experiment description,
* ``dmexplore run experiment.json --set strategy.name=random``
    run an experiment file (``--dry-run`` prints the resolved spec),
* ``dmexplore list workloads``
    enumerate what the registries offer (all kinds without an argument),
* ``dmexplore explore --workload easyport --space compact --out results.json``
    run an exploration straight from flags,
* ``dmexplore merge shard1.json shard2.json --out merged.json``
    union shard artefacts back into one database,
* ``dmexplore serve experiment.json`` / ``dmexplore worker HOST:PORT``
    distribute an exhaustive sweep over worker processes (byte-identical
    to the single-host run; see ``docs/distributed.md``),
* ``dmexplore pareto results.json``
    print the Pareto-optimal configurations of a stored database,
* ``dmexplore report results.json --export-dir out/``
    print the dashboard and export the CSV / gnuplot artefacts
    (``--store PATH`` streams it straight from a persistent result store),
* ``dmexplore windows --workload diurnal --window-events 500``
    windowed phase analysis — one Pareto front per trace window, with the
    front-shift summary that exposes non-stationary workloads,
* ``dmexplore trace --workload vtc --out vtc.trace``
    generate and save a workload trace for inspection or reuse.

Every subcommand and flag is documented in ``docs/cli.md``.  The argparse
defaults are *derived from* :class:`~repro.api.ExperimentSpec` — the spec
is the single source of defaults (``tests/test_api.py`` asserts it).

Third-party components registered through :mod:`repro.api.registry`
(``registry.strategies.register(...)`` etc.) appear in the ``--workload``/
``--space``/``--strategy`` choices and in ``dmexplore list`` automatically:
the parser reads the registries live.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .api import registry
from .api.experiment import Experiment, ResolvedExperiment
from .api.spec import (
    DEFAULT_SEARCH_BUDGET,
    ComponentRef,
    ExperimentSpec,
    SpecError,
    apply_overrides,
    default_spec_document,
)
from .core.reporting import describe_record
from .core.results import ResultDatabase, StreamingResultView
from .core.store import (
    MergeError,
    StoreError,
    StoreRecordSource,
    merge_databases,
)
from .gui.report import dashboard, export_artifacts
from .profiling.metrics import metric_keys
from .workloads.traces import save_trace

#: The default experiment — the single source of the CLI defaults below.
_DEFAULTS = ExperimentSpec()

#: Registry kinds ``dmexplore list`` can enumerate.
LIST_KINDS = {
    "workloads": registry.workloads,
    "spaces": registry.spaces,
    "hierarchies": registry.hierarchies,
    "strategies": registry.strategies,
    "backends": registry.backends,
    "sinks": registry.sinks,
    "stores": registry.stores,
    "services": registry.services,
}


def __getattr__(name: str):
    """Deprecation shims for the pre-spec module-level registries.

    ``WORKLOADS``/``SPACES``/``HIERARCHIES`` were plain name→factory dicts
    and ``STRATEGIES`` a tuple of names; they now live in
    :mod:`repro.api.registry`.  The shims keep old imports working (one
    snapshot per access — later third-party registrations appear on the
    next access).
    """
    shims = {
        "WORKLOADS": lambda: {
            entry.name: (lambda e=entry: e.create())
            for entry in registry.workloads.items()
        },
        "SPACES": lambda: {
            entry.name: entry.factory for entry in registry.spaces.items()
        },
        "HIERARCHIES": lambda: {
            entry.name: entry.factory for entry in registry.hierarchies.items()
        },
        "STRATEGIES": lambda: tuple(registry.strategies.names()),
    }
    if name in shims:
        warnings.warn(
            f"repro.cli.{name} is deprecated; use repro.api.registry instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return shims[name]()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _jobs_count(text: str) -> int:
    """argparse type for ``--jobs``: a non-negative worker count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("jobs must be >= 0 (0 = all CPU cores)")
    return value


def _positive_int(text: str) -> int:
    """argparse type for window sizes: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _shard_label(text: str) -> str:
    """argparse type for ``--shard``: validates the ``K/N`` form early."""
    from .core.exploration import ShardSpec

    try:
        ShardSpec.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmexplore",
        description=(
            "Automated exploration of Pareto-optimal dynamic-memory allocator "
            "configurations (DATE 2006 reproduction)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    explore_parser = subparsers.add_parser("explore", help="run an exploration")
    explore_parser.add_argument(
        "--workload",
        choices=registry.workloads.names(),
        default=_DEFAULTS.workload.name,
    )
    explore_parser.add_argument(
        "--space", choices=registry.spaces.names(), default=_DEFAULTS.space.name
    )
    explore_parser.add_argument(
        "--hierarchy",
        choices=registry.hierarchies.names(),
        default=_DEFAULTS.hierarchy.name,
    )
    explore_parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    explore_parser.add_argument(
        "--sample",
        type=int,
        default=_DEFAULTS.sample,
        help="random-sample N points instead of exhaustive",
    )
    explore_parser.add_argument("--out", type=Path, default=Path("exploration.json"))
    explore_parser.add_argument(
        "--metrics", nargs="+", choices=metric_keys(), default=_DEFAULTS.metrics
    )
    explore_parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help=(
            "evaluate configurations on N worker processes "
            "(1 = serial, 0 = all CPU cores)"
        ),
    )
    explore_parser.add_argument(
        "--strategy",
        choices=registry.strategies.names(),
        default=_DEFAULTS.strategy.name,
        help="exhaustive enumeration (default) or a heuristic search",
    )
    explore_parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_SEARCH_BUDGET,
        help="evaluation budget for heuristic strategies (ignored by exhaustive)",
    )
    explore_parser.add_argument(
        "--store",
        type=Path,
        nargs="?",
        const=None,
        default=argparse.SUPPRESS,
        help=(
            "persist evaluated points in a result store and reuse them on "
            "later runs; without PATH the store lives under ~/.cache/"
            "dmexplore"
        ),
    )
    explore_parser.add_argument(
        "--store-format",
        choices=("jsonl", "binary"),
        default="jsonl",
        help=(
            "on-disk format of the --store file: 'jsonl' (text-tool "
            "friendly) or 'binary' (parse-free loads at scale); an existing "
            "store keeps its format"
        ),
    )
    explore_parser.add_argument(
        "--shard",
        type=_shard_label,
        default=_DEFAULTS.shard or None,
        metavar="K/N",
        help=(
            "evaluate only shard K of N (1-based) of the enumeration; "
            "merge the shard artefacts with 'dmexplore merge'"
        ),
    )

    run_parser = subparsers.add_parser(
        "run", help="run an experiment described by a JSON spec file"
    )
    run_parser.add_argument(
        "experiment", type=Path, help="experiment file written by 'dmexplore spec'"
    )
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override one spec field with a dotted path, e.g. "
            "--set strategy.name=random --set strategy.params.budget=64 "
            "(repeatable; values parse as JSON, else as strings)"
        ),
    )
    run_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="validate and print the resolved spec instead of running it",
    )
    run_parser.add_argument("--out", type=Path, default=Path("exploration.json"))

    spec_parser = subparsers.add_parser(
        "spec", help="emit the commented default experiment description"
    )
    spec_parser.add_argument(
        "--out", type=Path, default=None, help="write to PATH instead of stdout"
    )

    list_parser = subparsers.add_parser(
        "list", help="enumerate the registered experiment components"
    )
    list_parser.add_argument(
        "kind",
        nargs="?",
        choices=sorted(LIST_KINDS),
        default=None,
        help="one registry to list (all of them without an argument)",
    )

    merge_parser = subparsers.add_parser(
        "merge", help="union shard artefacts into one result database"
    )
    merge_parser.add_argument("inputs", type=Path, nargs="+")
    merge_parser.add_argument("--out", type=Path, default=Path("merged.json"))

    pareto_parser = subparsers.add_parser("pareto", help="list Pareto-optimal configurations")
    pareto_parser.add_argument("database", type=Path)
    pareto_parser.add_argument(
        "--metrics", nargs="+", choices=metric_keys(), default=None
    )

    report_parser = subparsers.add_parser("report", help="print the exploration dashboard")
    report_parser.add_argument(
        "database",
        type=Path,
        nargs="?",
        default=None,
        help="JSON artefact written by 'explore' or 'merge' (or use --store)",
    )
    report_parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "stream records straight from a persistent result store instead "
            "of a JSON artefact; --workload/--space/--hierarchy/--seed select "
            "the evaluation context, exactly as they did for 'explore'"
        ),
    )
    report_parser.add_argument(
        "--workload",
        choices=registry.workloads.names(),
        default=_DEFAULTS.workload.name,
    )
    report_parser.add_argument(
        "--space", choices=registry.spaces.names(), default=_DEFAULTS.space.name
    )
    report_parser.add_argument(
        "--hierarchy",
        choices=registry.hierarchies.names(),
        default=_DEFAULTS.hierarchy.name,
    )
    report_parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    report_parser.add_argument(
        "--metrics",
        nargs="+",
        choices=metric_keys(),
        default=None,
        help="emit (and extract the Pareto front over) only these metrics",
    )
    report_parser.add_argument("--export-dir", type=Path, default=None)
    report_parser.add_argument("--x-metric", choices=metric_keys(), default="accesses")
    report_parser.add_argument("--y-metric", choices=metric_keys(), default="footprint")

    serve_parser = subparsers.add_parser(
        "serve", help="coordinate a distributed exploration over worker processes"
    )
    serve_parser.add_argument(
        "experiment", type=Path, help="experiment file written by 'dmexplore spec'"
    )
    serve_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one spec field with a dotted path (as in 'run')",
    )
    serve_parser.add_argument(
        "--host",
        default=None,
        help="interface to listen on (default: spec serve.params.host, 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="port to listen on (default: spec serve.params.port; 0 = ephemeral)",
    )
    serve_parser.add_argument(
        "--lease-size",
        type=int,
        default=None,
        metavar="N",
        help="points per lease (default: spec serve.params.lease_size, else auto)",
    )
    serve_parser.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-lease a range when its worker misses heartbeats this long",
    )
    serve_parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "shared result store path workers commit to (default: the spec's "
            "store path, else ~/.cache/dmexplore; the spec's store kind "
            "decides the jsonl/binary format)"
        ),
    )
    serve_parser.add_argument("--out", type=Path, default=Path("exploration.json"))

    worker_parser = subparsers.add_parser(
        "worker", help="evaluate leased ranges for a running coordinator"
    )
    worker_parser.add_argument(
        "address", metavar="HOST:PORT", help="the coordinator's listen address"
    )
    worker_parser.add_argument(
        "--experiment",
        type=Path,
        default=None,
        help=(
            "local copy of the experiment file; its spec hash is sent in the "
            "hello so a mismatched worker is rejected up front"
        ),
    )
    worker_parser.add_argument(
        "--name",
        default="",
        help="worker identity in coordinator logs (default: worker-<pid>)",
    )

    store_parser = subparsers.add_parser(
        "store", help="maintain result store files (compact, convert, info)"
    )
    store_subparsers = store_parser.add_subparsers(
        dest="store_command", required=True, metavar="ACTION"
    )
    compact_parser = store_subparsers.add_parser(
        "compact",
        help=(
            "rewrite a store down to its live (last-write-wins) set, "
            "atomically and provenance-preservingly"
        ),
    )
    compact_parser.add_argument("path", type=Path, help="store file to compact")
    compact_parser.add_argument(
        "--format",
        choices=("jsonl", "binary"),
        default=None,
        help="also re-encode into this format while compacting",
    )
    convert_parser = store_subparsers.add_parser(
        "convert",
        help=(
            "rewrite a store into another format at a new path, keeping "
            "every entry in file order"
        ),
    )
    convert_parser.add_argument("source", type=Path, help="store file to read")
    convert_parser.add_argument("destination", type=Path, help="store file to write")
    convert_parser.add_argument(
        "--format",
        choices=("jsonl", "binary"),
        required=True,
        help="format of the destination store",
    )
    info_parser = store_subparsers.add_parser(
        "info", help="print a store's format, size and entry counts"
    )
    info_parser.add_argument("path", type=Path, help="store file to inspect")

    windows_parser = subparsers.add_parser(
        "windows",
        help="windowed (phase) Pareto analysis: one front per trace window",
    )
    windows_parser.add_argument(
        "--workload",
        choices=registry.workloads.names(),
        default=_DEFAULTS.workload.name,
    )
    windows_parser.add_argument(
        "--space", choices=registry.spaces.names(), default=_DEFAULTS.space.name
    )
    windows_parser.add_argument(
        "--hierarchy",
        choices=registry.hierarchies.names(),
        default=_DEFAULTS.hierarchy.name,
    )
    windows_parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    windows_parser.add_argument(
        "--sample",
        type=int,
        default=_DEFAULTS.sample,
        help="random-sample N points instead of exhaustive",
    )
    window_size = windows_parser.add_mutually_exclusive_group()
    window_size.add_argument(
        "--window-events",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cut the trace into windows of N events (default 1000)",
    )
    window_size.add_argument(
        "--window-time",
        type=_positive_int,
        default=None,
        metavar="TICKS",
        help="cut the trace into windows of TICKS timestamp ticks",
    )
    windows_parser.add_argument(
        "--metrics", nargs="+", choices=metric_keys(), default=_DEFAULTS.metrics
    )
    windows_parser.add_argument("--out", type=Path, default=Path("windows.json"))
    windows_parser.add_argument(
        "--store",
        type=Path,
        nargs="?",
        const=None,
        default=argparse.SUPPRESS,
        help=(
            "persist the final records (plain fingerprint) and each "
            "window's records (fingerprint:wK) in a result store; without "
            "PATH the store lives under ~/.cache/dmexplore"
        ),
    )
    windows_parser.add_argument(
        "--store-format",
        choices=("jsonl", "binary"),
        default="jsonl",
        help="on-disk format of the --store file (an existing store keeps its format)",
    )

    trace_parser = subparsers.add_parser("trace", help="generate and save a workload trace")
    trace_parser.add_argument(
        "--workload",
        choices=registry.workloads.names(),
        default=_DEFAULTS.workload.name,
    )
    trace_parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    trace_parser.add_argument("--out", type=Path, required=True)

    return parser


# -- spec construction and execution ------------------------------------------


def _spec_from_explore_args(args: argparse.Namespace) -> ExperimentSpec:
    """Translate ``explore`` flags into the equivalent experiment spec."""
    if args.jobs == 1:
        backend = ComponentRef("serial")
    elif args.jobs == 0:
        backend = ComponentRef("process")
    else:
        backend = ComponentRef("process", {"jobs": args.jobs})
    if hasattr(args, "store"):  # --store given (with or without a path)
        store = ComponentRef(
            getattr(args, "store_format", "jsonl"),
            {"path": str(args.store)} if args.store is not None else {},
        )
    else:
        store = ComponentRef("none")
    strategy_params = (
        {} if args.strategy == "exhaustive" else {"budget": args.budget}
    )
    return ExperimentSpec(
        workload=ComponentRef(args.workload),
        space=ComponentRef(args.space),
        hierarchy=ComponentRef(args.hierarchy),
        strategy=ComponentRef(args.strategy, strategy_params),
        backend=backend,
        store=store,
        seed=args.seed,
        metrics=tuple(args.metrics) if args.metrics else None,
        sample=args.sample,
        shard=args.shard or "",
    )


def _print_banner(resolved: ResolvedExperiment) -> None:
    """The pre-run description lines every execution path prints."""
    spec = resolved.spec
    print(f"workload: {resolved.workload.describe()}")
    print(f"space: {resolved.space.size()} configurations ({spec.space.name})")
    if resolved.shard is not None:
        owned = resolved.shard.size_of(spec.sample or resolved.space.size())
        print(f"shard: {resolved.shard.label} ({owned} configurations this run)")
    print(f"evaluation backend: {getattr(resolved.backend, 'jobs', 1)} job(s)")
    if resolved.store is not None:
        print(
            f"result store: {resolved.store.path} "
            f"({resolved.store.loaded} entries loaded, "
            f"{resolved.store.corrupt_entries} corrupt skipped)"
        )


def _execute_spec(spec: ExperimentSpec, out: Path) -> int:
    """Run a validated spec, write the artefact, print the report.

    The single execution path behind both ``explore`` and ``run`` — which
    is what makes their artefacts byte-identical for equivalent inputs.
    """
    experiment = Experiment(spec, progress=True)
    resolved = experiment.resolve()
    _print_banner(resolved)
    result = experiment.run()
    result.database.to_json(out)
    print(f"stored {len(result.database)} results in {out}")
    print(result.report(title=f"{spec.workload.name} exploration"))
    return 0


def _command_explore(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_explore_args(args)
        return _execute_spec(spec, args.out)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _command_run(args: argparse.Namespace) -> int:
    try:
        document = json.loads(args.experiment.read_text(encoding="utf-8"))
    except OSError as error:
        print(f"error: cannot read experiment file: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: {args.experiment} is not valid JSON: {error}", file=sys.stderr)
        return 2
    try:
        if not isinstance(document, dict):
            raise SpecError("experiment document must be a JSON object")
        apply_overrides(document, args.overrides)
        spec = ExperimentSpec.from_dict(document)
        if args.dry_run:
            spec.validate()
            print(json.dumps(spec.to_dict(), indent=2))
            return 0
        # _execute_spec validates through the Experiment constructor.
        return _execute_spec(spec, args.out)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _command_spec(args: argparse.Namespace) -> int:
    text = json.dumps(default_spec_document(), indent=2) + "\n"
    if args.out is not None:
        try:
            args.out.write_text(text, encoding="utf-8")
        except OSError as error:
            print(f"error: cannot write spec file: {error}", file=sys.stderr)
            return 2
        print(f"wrote default experiment spec to {args.out}")
    else:
        print(text, end="")
    return 0


def _strategy_params_line(entry) -> str | None:
    """The tunable-params signature of a search-strategy entry, or ``None``.

    Strategies wrapped by :func:`~repro.api.registry.search_strategy_factory`
    expose their class; its constructor signature (minus the arguments the
    experiment layer supplies: engine, budget, metrics) is exactly what
    ``strategy.params`` accepts, with the shown defaults.
    """
    import inspect

    cls = getattr(entry.factory, "strategy_class", None)
    if cls is None:
        return None
    supplied = {"self", "engine", "budget", "metrics"}
    parts = [f"budget={entry.defaults.get('budget', DEFAULT_SEARCH_BUDGET)}"]
    for name, parameter in inspect.signature(cls.__init__).parameters.items():
        if name in supplied or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            parts.append(name)
        else:
            parts.append(f"{name}={parameter.default}")
    return "params: " + ", ".join(parts)


def _command_list(args: argparse.Namespace) -> int:
    kinds = [args.kind] if args.kind else sorted(LIST_KINDS)
    for position, kind in enumerate(kinds):
        if position:
            print()
        print(f"{kind}:")
        for entry in LIST_KINDS[kind].items():
            description = entry.description or "(no description)"
            print(f"  {entry.name:<14} {description}")
            params_line = _strategy_params_line(entry)
            if params_line is not None:
                print(f"  {'':<14} {params_line}")
    return 0


def _load_artefact(path: Path) -> ResultDatabase | None:
    """Read a JSON artefact; ``None`` after one ``error:`` line on stderr.

    A missing file, invalid JSON and JSON of the wrong shape (which the
    record parsers meet as a missing key or a wrongly typed value) all end
    here, so ``merge``, ``pareto`` and ``report`` fail alike.
    """
    try:
        return ResultDatabase.from_json(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        print(f"error: cannot load artefact {path}: {error}", file=sys.stderr)
        return None


def _command_merge(args: argparse.Namespace) -> int:
    databases = [_load_artefact(path) for path in args.inputs]
    if None in databases:
        return 2
    try:
        merged = merge_databases(databases)
    except MergeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    merged.to_json(args.out)
    total = sum(len(database) for database in databases)
    print(
        f"merged {len(databases)} artefacts ({total} records) "
        f"into {args.out} ({len(merged)} records)"
    )
    print(f"Pareto-optimal configurations after merge: {len(merged.pareto_records())}")
    return 0


def _command_pareto(args: argparse.Namespace) -> int:
    database = _load_artefact(args.database)
    if database is None:
        return 2
    records = database.pareto_records(args.metrics)
    print(f"{len(records)} Pareto-optimal configurations (of {len(database)}):")
    for record in sorted(records, key=lambda r: r.metrics.accesses):
        print("  " + describe_record(record, args.metrics))
    return 0


def _command_report(args: argparse.Namespace) -> int:
    if (args.database is None) == (args.store is None):
        print(
            "error: report needs exactly one input: a JSON artefact or --store PATH",
            file=sys.stderr,
        )
        return 2
    if args.store is not None:
        database = _streamed_view(args)
        if database is None:
            return 2
    else:
        database = _load_artefact(args.database)
        if database is None:
            return 2
    print(
        dashboard(
            database,
            x_metric=args.x_metric,
            y_metric=args.y_metric,
            metrics=args.metrics,
        )
    )
    if args.export_dir is not None:
        paths = export_artifacts(database, args.export_dir, metrics=args.metrics)
        print("\nexported artefacts:")
        for kind, path in sorted(paths.items()):
            print(f"  {kind}: {path}")
    return 0


def _streamed_view(args: argparse.Namespace) -> StreamingResultView | None:
    """Build the streaming report view for ``report --store``.

    The workload/space/hierarchy/seed flags reconstruct the evaluation
    fingerprint exactly as ``explore`` computed it (through the same
    experiment resolution), then the store file is replayed as a record
    stream in global enumeration order — the report is byte-identical to
    one over the merged JSON artefacts of the same runs, without ever
    materialising the records.
    """
    if not args.store.exists():
        print(f"error: result store {args.store} does not exist", file=sys.stderr)
        return None
    spec = ExperimentSpec(
        workload=ComponentRef(args.workload),
        space=ComponentRef(args.space),
        hierarchy=ComponentRef(args.hierarchy),
        seed=args.seed,
    )
    resolved = Experiment(spec).resolve()
    try:
        source = StoreRecordSource(
            args.store, resolved.engine.fingerprint, space=resolved.space
        )
    except (StoreError, OSError) as error:
        print(f"error: cannot read result store: {error}", file=sys.stderr)
        return None
    if len(source) == 0:
        print(
            f"error: {args.store} holds no records for workload "
            f"'{args.workload}', space '{args.space}', seed {args.seed} "
            f"(skipped: {source.foreign_entries} other contexts, "
            f"{source.outside_space} outside the space, "
            f"{source.corrupt_entries} corrupt)",
            file=sys.stderr,
        )
        return None
    return StreamingResultView(source, name=f"{resolved.trace.name}-exploration")


def _command_serve(args: argparse.Namespace) -> int:
    # repro.distrib is imported lazily: every other subcommand works without
    # it, and the import pulls in the whole experiment layer eagerly.
    from .distrib import DistribError, serve_experiment

    try:
        document = json.loads(args.experiment.read_text(encoding="utf-8"))
    except OSError as error:
        print(f"error: cannot read experiment file: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: {args.experiment} is not valid JSON: {error}", file=sys.stderr)
        return 2
    try:
        if not isinstance(document, dict):
            raise SpecError("experiment document must be a JSON object")
        apply_overrides(document, args.overrides)
        spec = ExperimentSpec.from_dict(document)
        database = serve_experiment(
            spec,
            out=args.out,
            host=args.host,
            port=args.port,
            lease_size=args.lease_size,
            lease_timeout=args.lease_timeout,
            store_path=str(args.store) if args.store is not None else None,
        )
    except (SpecError, DistribError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"stored {len(database)} results in {args.out}")
    print(
        f"Pareto-optimal configurations: "
        f"{len(database.pareto_records(list(spec.metrics) if spec.metrics else None))}"
    )
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from .distrib import parse_address, run_worker

    try:
        address = parse_address(args.address)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spec_hash = ""
    if args.experiment is not None:
        try:
            spec_hash = ExperimentSpec.from_json(args.experiment).spec_hash()
        except SpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    return run_worker(address, spec_hash=spec_hash, name=args.name)


def _command_store(args: argparse.Namespace) -> int:
    from .core.store import compact_store, convert_store, store_info

    try:
        if args.store_command == "compact":
            stats = compact_store(args.path, output_format=args.format)
            print(
                f"compacted {stats['path']} ({stats['format']}): "
                f"{stats['live']} live of {stats['entries']} entries "
                f"({stats['dead']} dead, {stats['corrupt']} corrupt), "
                f"{stats['bytes_before']} -> {stats['bytes_after']} bytes"
            )
        elif args.store_command == "convert":
            stats = convert_store(args.source, args.destination, args.format)
            print(
                f"converted {stats['source']} ({stats['source_format']}) -> "
                f"{stats['path']} ({stats['format']}): "
                f"{stats['entries']} entries ({stats['corrupt']} corrupt), "
                f"{stats['bytes_before']} -> {stats['bytes_after']} bytes"
            )
        else:  # info
            stats = store_info(args.path)
            print(f"path:    {stats['path']}")
            print(f"format:  {stats['format']}")
            print(f"size:    {stats['size_bytes']} bytes")
            print(f"entries: {stats['entries']}")
            print(f"live:    {stats['live']}")
            print(f"dead:    {stats['dead']}")
            print(f"corrupt: {stats['corrupt']}")
    except (StoreError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _command_windows(args: argparse.Namespace) -> int:
    """Run the windowed phase analysis (``repro.stream.windows``) from flags."""
    from .core.reporting import exploration_report
    from .stream import WindowSpec, windowed_exploration

    if hasattr(args, "store"):  # --store given (with or without a path)
        store = ComponentRef(
            args.store_format,
            {"path": str(args.store)} if args.store is not None else {},
        )
    else:
        store = ComponentRef("none")
    try:
        spec = ExperimentSpec(
            workload=ComponentRef(args.workload),
            space=ComponentRef(args.space),
            hierarchy=ComponentRef(args.hierarchy),
            store=store,
            seed=args.seed,
            sample=args.sample,
            metrics=tuple(args.metrics) if args.metrics else None,
        )
        resolved = Experiment(spec).resolve()
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.window_time is not None:
        window = WindowSpec(time=args.window_time)
    else:
        window = WindowSpec(events=args.window_events or 1000)
    _print_banner(resolved)
    print(f"windows: {window.size} {window.mode} per window")
    try:
        database, analysis = windowed_exploration(
            resolved.engine,
            window,
            metrics=resolved.metrics,
            sink=resolved.sink,
        )
    finally:
        resolved.engine.close()
        if resolved.store is not None:
            resolved.store.close()
        if resolved.sink is not None and hasattr(resolved.sink, "finish"):
            resolved.sink.finish()
    database.to_json(args.out)
    print(
        f"stored {len(database)} results ({len(analysis)} windows, "
        f"{len(analysis.shifts())} front shifts) in {args.out}"
    )
    print(
        exploration_report(
            database,
            title=f"{spec.workload.name} windowed exploration",
            metrics=resolved.metrics,
        )
    )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    workload = registry.workloads.create(args.workload)
    trace = workload.generate(seed=args.seed)
    lines = save_trace(trace, args.out)
    summary = trace.summary()
    print(f"wrote {lines} lines to {args.out}")
    print(
        f"{summary.alloc_count} allocations / {summary.free_count} frees, "
        f"peak live {summary.peak_live_bytes} bytes"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``dmexplore`` and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "explore": _command_explore,
        "run": _command_run,
        "spec": _command_spec,
        "list": _command_list,
        "merge": _command_merge,
        "pareto": _command_pareto,
        "report": _command_report,
        "serve": _command_serve,
        "worker": _command_worker,
        "store": _command_store,
        "windows": _command_windows,
        "trace": _command_trace,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
