"""Declarative experiment description: :class:`ExperimentSpec`.

The paper's methodology is "describe the workload, the parameter space and
the cost model — the tool explores".  ``ExperimentSpec`` is that
description as a value: a frozen, JSON-serialisable record of *everything*
that defines a run — workload, space, hierarchy, energy model, strategy,
backend, store and sink, each a ``name`` + ``params``
reference resolved through :mod:`repro.api.registry` — with schema
validation, a ``spec_version`` for forward compatibility, and a canonical
hash that artefact provenance and persisted store entries embed, so any
stored result can state exactly which experiment produced it.

The spec is also the **single source of defaults**: ``ExperimentSpec()``
is the default experiment, and the CLI derives its argparse defaults from
it (asserted by the test suite) instead of restating them.

Round trip::

    spec = ExperimentSpec(workload=ComponentRef("uniform"),
                          space=ComponentRef("smoke"), seed=1)
    data = spec.to_dict()
    assert ExperimentSpec.from_dict(data) == spec

Keys beginning with ``//`` are comments and ignored anywhere in the
document, so ``dmexplore spec`` can emit a self-describing JSON file that
``dmexplore run`` accepts verbatim.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from ..core.exploration import ShardSpec
from ..core.search import DEFAULT_SEARCH_BUDGET  # noqa: F401  (re-exported: the CLI derives --budget from it)
from ..memhier.energy import EnergyModel
from ..profiling.metrics import metric_keys
from . import registry

#: Version of the spec schema.  Bump on incompatible schema changes;
#: ``from_dict`` rejects documents written under a different version with
#: an actionable error instead of misinterpreting them.
SPEC_VERSION = 1

#: Default workload-generation (and heuristic-search) seed — the paper's
#: publication year, as it always was on the CLI.
DEFAULT_SEED = 2006

#: Store backends an experiment may name (kept for compatibility; the open
#: set lives in :data:`repro.api.registry.stores`).  ``jsonl`` and
#: ``binary`` are the two formats of :class:`~repro.core.store.
#: ResultStore`; path ``None`` means the shared per-user default under
#: ``~/.cache/dmexplore``.
STORE_KINDS = ("none", "jsonl", "binary")

#: Energy models an experiment may name.  There is exactly one analytic
#: model today; its constants are the ref's params.
ENERGY_MODELS = ("default",)

#: Serve transports of the distributed service (:mod:`repro.distrib`).
#: There is one: length-prefixed JSON over TCP.  Its params configure
#: ``dmexplore serve`` — they never affect what the experiment produces.
SERVE_KINDS = ("tcp",)

#: Parameters a ``serve`` ref may carry, with the type each must have.
SERVE_PARAMS = {
    "host": str,
    "port": int,
    "lease_size": int,
    "lease_timeout": (int, float),
}


class SpecError(ValueError):
    """An experiment document that cannot describe a runnable experiment.

    Every message names the offending key (``strategy.name``,
    ``workload.params``, ``spec_version`` ...) so a failing ``dmexplore
    run`` points straight at the line to fix.
    """


@dataclass(frozen=True)
class ComponentRef:
    """A ``name`` + ``params`` reference into one registry.

    ``params`` override the registry entry's defaults key by key.  The ref
    is frozen; treat the params dict as immutable.
    """

    name: str
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        data: dict = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_value(cls, value: Any, key: str) -> "ComponentRef":
        """Parse ``{"name": ..., "params": {...}}`` (or the string shorthand).

        ``key`` is the spec field being parsed, used to name errors.
        """
        if isinstance(value, str):
            return cls(name=value)
        if not isinstance(value, dict):
            raise SpecError(
                f"{key}: expected a name string or an object with 'name'/'params', "
                f"got {type(value).__name__}"
            )
        value = _strip_comments(value)
        unknown = set(value) - {"name", "params"}
        if unknown:
            raise SpecError(f"{key}: unknown key '{sorted(unknown)[0]}'")
        if "name" not in value:
            raise SpecError(f"{key}.name: missing")
        name = value["name"]
        if not isinstance(name, str) or not name:
            raise SpecError(f"{key}.name: expected a non-empty string")
        params = value.get("params", {})
        if not isinstance(params, dict):
            raise SpecError(
                f"{key}.params: expected an object, got {type(params).__name__}"
            )
        if any(not isinstance(k, str) for k in params):
            raise SpecError(f"{key}.params: parameter names must be strings")
        return cls(name=name, params=dict(params))


def _strip_comments(data: dict) -> dict:
    """Drop ``//``-prefixed keys (recursively) — the spec comment syntax."""
    clean = {}
    for key, value in data.items():
        if isinstance(key, str) and key.startswith("//"):
            continue
        clean[key] = _strip_comments(value) if isinstance(value, dict) else value
    return clean


def _ref(name: str) -> Any:
    """Default factory helper for ComponentRef fields of the frozen spec."""
    return field(default_factory=lambda: ComponentRef(name))


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, serialisable description of one exploration experiment.

    Every field has the default the tool has always used, so
    ``ExperimentSpec()`` *is* the default experiment and any frontend
    (CLI, script, scheduler) only states what differs.
    """

    spec_version: int = SPEC_VERSION
    workload: ComponentRef = _ref("easyport")
    space: ComponentRef = _ref("compact")
    hierarchy: ComponentRef = _ref("2level")
    energy: ComponentRef = _ref("default")
    strategy: ComponentRef = _ref("exhaustive")
    backend: ComponentRef = _ref("serial")
    store: ComponentRef = _ref("none")
    sink: ComponentRef = _ref("none")
    serve: ComponentRef = _ref("tcp")
    seed: int = DEFAULT_SEED
    metrics: tuple[str, ...] | None = None
    sample: int | None = None
    sample_seed: int = 0
    shard: str = ""

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form; ``from_dict`` inverts it exactly."""
        return {
            "spec_version": self.spec_version,
            "workload": self.workload.as_dict(),
            "space": self.space.as_dict(),
            "hierarchy": self.hierarchy.as_dict(),
            "energy": self.energy.as_dict(),
            "strategy": self.strategy.as_dict(),
            "backend": self.backend.as_dict(),
            "store": self.store.as_dict(),
            "sink": self.sink.as_dict(),
            "serve": self.serve.as_dict(),
            "seed": self.seed,
            "metrics": list(self.metrics) if self.metrics is not None else None,
            "sample": self.sample,
            "sample_seed": self.sample_seed,
            "shard": self.shard,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Parse and structurally validate a spec document.

        Raises :class:`SpecError` naming the offending key for every
        malformation: missing/mismatched ``spec_version``, unknown keys,
        wrong value types.  Registry-name resolution happens in
        :meth:`validate` (called by :class:`repro.api.Experiment`), so a
        document can be parsed even where the registries differ.
        """
        if not isinstance(data, dict):
            raise SpecError(
                f"experiment document must be a JSON object, got {type(data).__name__}"
            )
        data = _strip_comments(data)
        # Retired keys (dominance pruning was removed): documents written
        # before then carry ``"prune": false`` and still parse.
        known = {f.name for f in fields(cls)} | {"prune", "prune_fraction"}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown key '{sorted(unknown)[0]}' in experiment document")
        if "spec_version" not in data:
            raise SpecError(
                "spec_version: missing (this tool writes "
                f"spec_version {SPEC_VERSION}; add it explicitly)"
            )
        version = data["spec_version"]
        if not isinstance(version, int) or isinstance(version, bool):
            raise SpecError(f"spec_version: expected an integer, got {version!r}")
        if version != SPEC_VERSION:
            raise SpecError(
                f"spec_version: this tool understands version {SPEC_VERSION}, "
                f"the document declares {version}"
            )
        kwargs: dict[str, Any] = {"spec_version": version}
        for key in ("workload", "space", "hierarchy", "energy", "strategy",
                    "backend", "store", "sink", "serve"):
            if key in data:
                kwargs[key] = ComponentRef.from_value(data[key], key)
        for key, kind in (("seed", int), ("sample_seed", int)):
            if key in data:
                kwargs[key] = _expect(data[key], kind, key)
        if "metrics" in data and data["metrics"] is not None:
            metrics = data["metrics"]
            if not isinstance(metrics, (list, tuple)) or any(
                not isinstance(m, str) for m in metrics
            ):
                raise SpecError("metrics: expected a list of metric-name strings")
            kwargs["metrics"] = tuple(metrics)
        if "sample" in data and data["sample"] is not None:
            kwargs["sample"] = _expect(data["sample"], int, "sample")
        if "shard" in data:
            kwargs["shard"] = _expect(data["shard"], str, "shard")
        if data.get("prune", False) is not False:
            raise SpecError(
                "prune: dominance pruning has been removed; "
                "delete the key or set it to false"
            )
        return cls(**kwargs)

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        """Serialise as JSON; also write to ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ExperimentSpec":
        """Load a spec from a JSON file path or a JSON string."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            try:
                text = Path(source).read_text(encoding="utf-8")
            except OSError as error:
                raise SpecError(f"cannot read experiment file: {error}") from None
        else:
            text = source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"experiment document is not valid JSON: {error}") from None
        return cls.from_dict(data)

    # -- identity ----------------------------------------------------------

    def canonical_dict(self) -> dict:
        """The execution-independent form the canonical hash is computed over.

        The hash identifies what an experiment *produces* (which records,
        in which order), so fields that only decide *how* it executes are
        normalised away:

        * ``shard`` — all shards of one partitioned experiment describe
          the same experiment; their artefacts carry one spec hash and
          merging them reproduces the unsharded run's provenance exactly;
        * ``backend`` — serial and parallel runs are byte-identical by
          construction;
        * ``store`` — a warm store changes what is profiled, never what is
          produced;
        * ``sink`` — a streaming consumer observes the run, it does not
          alter it;
        * ``serve`` — where a coordinator listens and how it leases are
          cluster topology; the distributed artefact is byte-identical to
          the single-host one by construction (and test).

        Component params are additionally normalised against the registry
        entry defaults, so equivalent descriptions hash equally:
        ``{"name": "random"}`` and ``{"name": "random", "params":
        {"budget": 200}}`` describe the same experiment.
        """
        data = self.to_dict()
        data["shard"] = ""
        # Retired fields, kept at their last values so existing specs and
        # artefacts keep their identity.
        data["prune"] = False
        data["prune_fraction"] = 0.25
        defaults = ExperimentSpec()
        data["backend"] = defaults.backend.as_dict()
        data["store"] = defaults.store.as_dict()
        data["sink"] = defaults.sink.as_dict()
        data["serve"] = defaults.serve.as_dict()
        for key, reg in (
            ("workload", registry.workloads),
            ("space", registry.spaces),
            ("hierarchy", registry.hierarchies),
            ("strategy", registry.strategies),
        ):
            ref: ComponentRef = getattr(self, key)
            if ref.name in reg:
                merged = {**reg.get(ref.name).defaults, **ref.params}
                data[key] = ComponentRef(ref.name, merged).as_dict()
        return data

    def canonical_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) of :meth:`canonical_dict`."""
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Hex SHA-256 of the canonical JSON — the experiment's identity.

        Embedded in artefact :class:`~repro.core.results.Provenance` and in
        persisted result-store entries.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # -- semantic validation ----------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check the spec describes a runnable experiment; returns ``self``.

        Resolves every component name against its registry, checks params
        against the factory signatures, and enforces the cross-field rules
        the engine assumes (shard only with exhaustive).  Raises
        :class:`SpecError` naming the offending key.
        """
        for key, reg in (
            ("workload", registry.workloads),
            ("space", registry.spaces),
            ("hierarchy", registry.hierarchies),
            ("strategy", registry.strategies),
            ("backend", registry.backends),
            ("sink", registry.sinks),
        ):
            ref: ComponentRef = getattr(self, key)
            if ref.name not in reg:
                raise SpecError(
                    f"{key}.name: unknown {reg.kind} '{ref.name}' "
                    f"(known: {', '.join(reg.names())})"
                )
            try:
                reg.check_params(ref.name, ref.params)
            except registry.RegistryError as error:
                raise SpecError(f"{key}.params: {error}") from None
        budget = self.strategy.params.get("budget", 1)
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise SpecError(
                "strategy.params.budget: expected a positive integer "
                f"(evaluations), got {budget!r}"
            )
        if self.energy.name not in ENERGY_MODELS:
            raise SpecError(
                f"energy.name: unknown energy model '{self.energy.name}' "
                f"(known: {', '.join(ENERGY_MODELS)})"
            )
        model_fields = {f.name for f in fields(EnergyModel)} - {"hierarchy"}
        unknown = set(self.energy.params) - model_fields
        if unknown:
            raise SpecError(
                f"energy.params: unknown parameter '{sorted(unknown)[0]}' "
                f"(known: {', '.join(sorted(model_fields))})"
            )
        if self.store.name not in registry.stores:
            raise SpecError(
                f"store.name: unknown store kind '{self.store.name}' "
                f"(known: {', '.join(registry.stores.names())})"
            )
        try:
            registry.stores.check_params(self.store.name, self.store.params)
        except registry.RegistryError as error:
            raise SpecError(f"store.params: {error}") from None
        if "auto_compact" in self.store.params:
            threshold = self.store.params["auto_compact"]
            if threshold is not None and (
                isinstance(threshold, bool)
                or not isinstance(threshold, int)
                or threshold < 1
            ):
                raise SpecError(
                    "store.params.auto_compact: expected a positive integer "
                    f"(dead entries before compaction), got {threshold!r}"
                )
        if self.serve.name not in SERVE_KINDS:
            raise SpecError(
                f"serve.name: unknown serve transport '{self.serve.name}' "
                f"(known: {', '.join(SERVE_KINDS)})"
            )
        unknown = set(self.serve.params) - set(SERVE_PARAMS)
        if unknown:
            raise SpecError(
                f"serve.params: unknown parameter '{sorted(unknown)[0]}' "
                f"(known: {', '.join(sorted(SERVE_PARAMS))})"
            )
        for name, kinds in SERVE_PARAMS.items():
            if name in self.serve.params:
                value = self.serve.params[name]
                if isinstance(value, bool) or not isinstance(value, kinds):
                    wanted = kinds[0] if isinstance(kinds, tuple) else kinds
                    raise SpecError(
                        f"serve.params.{name}: expected {wanted.__name__}, "
                        f"got {type(value).__name__}"
                    )
        valid_metrics = metric_keys()
        for metric in self.metrics or ():
            if metric not in valid_metrics:
                raise SpecError(
                    f"metrics: unknown metric '{metric}' "
                    f"(known: {', '.join(valid_metrics)})"
                )
        if self.sample is not None and self.sample <= 0:
            raise SpecError(f"sample: must be positive, got {self.sample}")
        if self.shard:
            try:
                ShardSpec.parse(self.shard)
            except ValueError as error:
                raise SpecError(f"shard: {error}") from None
            if self.strategy.name != "exhaustive":
                raise SpecError(
                    "shard: sharding partitions the exhaustive enumeration; "
                    f"it cannot be combined with strategy '{self.strategy.name}'"
                )
        if self.seed < 0:
            raise SpecError(f"seed: must be non-negative, got {self.seed}")
        return self


def _expect(value: Any, kind: type, key: str) -> Any:
    """Type-check one scalar document value, naming the key on mismatch."""
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SpecError(f"{key}: expected an integer, got {type(value).__name__}")
    if kind is bool and not isinstance(value, bool):
        raise SpecError(f"{key}: expected true/false, got {type(value).__name__}")
    if kind is str and not isinstance(value, str):
        raise SpecError(f"{key}: expected a string, got {type(value).__name__}")
    return value


# -- dotted overrides (CLI --set) ---------------------------------------------


def apply_overrides(data: dict, assignments: list[str]) -> dict:
    """Apply ``key.path=value`` assignments to a spec document (in place).

    The value is parsed as JSON when possible (``5``, ``true``,
    ``[1, 2]``), as a bare string otherwise — so ``--set
    strategy.name=random`` and ``--set strategy.params.budget=64`` both do
    what they look like.  Intermediate objects are created as needed.
    Returns ``data`` for chaining.
    """
    for assignment in assignments:
        key, separator, raw = assignment.partition("=")
        if not separator or not key:
            raise SpecError(
                f"override '{assignment}' is not of the form key.path=value"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = data
        parts = key.split(".")
        for part in parts[:-1]:
            existing = target.get(part)
            if existing is None:
                existing = target[part] = {}
            elif not isinstance(existing, dict):
                raise SpecError(
                    f"override '{key}': '{part}' is not an object in the document"
                )
            target = existing
        target[parts[-1]] = value
    return data


# -- the commented default document -------------------------------------------


def default_spec_document() -> dict:
    """The default experiment as a commented JSON document.

    ``//`` keys are comments (ignored by :meth:`ExperimentSpec.from_dict`);
    the remaining keys are exactly ``ExperimentSpec().to_dict()``, so the
    emitted file both documents the schema and runs unchanged.
    """
    spec = ExperimentSpec()
    return {
        "//": "dmexplore experiment - edit and run with: dmexplore run FILE",
        "spec_version": spec.spec_version,
        "//workload": f"registry: {', '.join(registry.workloads.names())}",
        "workload": spec.workload.as_dict(),
        "//space": f"registry: {', '.join(registry.spaces.names())}",
        "space": spec.space.as_dict(),
        "//hierarchy": f"registry: {', '.join(registry.hierarchies.names())}",
        "hierarchy": spec.hierarchy.as_dict(),
        "//energy": "analytic energy/time model; params override its constants",
        "energy": spec.energy.as_dict(),
        "//strategy": (
            f"registry: {', '.join(registry.strategies.names())}; heuristic "
            "strategies take params.budget (evaluation budget)"
        ),
        "strategy": spec.strategy.as_dict(),
        "//backend": f"registry: {', '.join(registry.backends.names())}",
        "backend": spec.backend.as_dict(),
        "//store": "'jsonl'/'binary' persist evaluations "
        "(params: path, auto_compact; null path = ~/.cache)",
        "store": spec.store.as_dict(),
        "//sink": f"registry: {', '.join(registry.sinks.names())}",
        "sink": spec.sink.as_dict(),
        "//serve": (
            "distributed service settings for 'dmexplore serve' "
            "(params: host, port, lease_size, lease_timeout)"
        ),
        "serve": spec.serve.as_dict(),
        "//seed": "workload generation seed (also seeds heuristic searches)",
        "seed": spec.seed,
        "//metrics": f"null = all of: {', '.join(metric_keys())}",
        "metrics": list(spec.metrics) if spec.metrics is not None else None,
        "//sample": "random-sample N points instead of exhaustive (null = off)",
        "sample": spec.sample,
        "sample_seed": spec.sample_seed,
        "//shard": "'K/N' evaluates one slice of the enumeration ('' = all)",
        "shard": spec.shard,
    }
