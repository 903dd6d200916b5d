"""Declarative experiment API: describe a run, let the tool explore.

This package is the stable surface of the exploration tool:

* :class:`ExperimentSpec` — a frozen, JSON-serialisable description of one
  experiment (workload + space + hierarchy + energy model + strategy +
  backend + store + sink), with schema validation, a
  ``spec_version`` and a canonical :meth:`~ExperimentSpec.spec_hash` that
  artefact provenance embeds.
* :mod:`repro.api.registry` — open registries (``workloads``, ``spaces``,
  ``hierarchies``, ``strategies``, ``backends``, ``sinks``) resolving the
  names a spec uses; third-party ``register()`` calls plug straight into
  both the Python API and the CLI.
* :class:`Experiment` / :func:`run_experiment` — resolve a spec and
  execute it end to end, returning a :class:`RunResult` (database +
  provenance + counters).

See ``docs/api.md`` for the schema reference and embedding examples.
"""

from . import registry
from .experiment import Experiment, ResolvedExperiment, RunResult, run_experiment
from .registry import Registry, RegistryEntry, RegistryError, search_strategy_factory
from .spec import (
    DEFAULT_SEED,
    SPEC_VERSION,
    ComponentRef,
    ExperimentSpec,
    SpecError,
    apply_overrides,
    default_spec_document,
)

__all__ = [
    "ComponentRef",
    "DEFAULT_SEED",
    "Experiment",
    "ExperimentSpec",
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "ResolvedExperiment",
    "RunResult",
    "SPEC_VERSION",
    "SpecError",
    "apply_overrides",
    "default_spec_document",
    "registry",
    "run_experiment",
    "search_strategy_factory",
]
