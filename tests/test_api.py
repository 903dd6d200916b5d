"""Tests for the declarative experiment API (repro.api).

Covers the spec schema (round-trip, validation errors naming the offending
key), the canonical spec hash (execution-independence), the registries
(third-party registration usable from the Python API and the CLI), the
Experiment runner (byte-identity with direct engine construction and with
the legacy flag CLI, with and without a store), and the rule that the CLI
argparse defaults are derived from ExperimentSpec.
"""

import json

import pytest

from repro.api import (
    ComponentRef,
    Experiment,
    ExperimentSpec,
    SpecError,
    apply_overrides,
    default_spec_document,
    registry,
    run_experiment,
)
from repro.cli import build_parser, main
from repro.core.search import (
    DEFAULT_PRUNE_FRACTION,
    DEFAULT_SEARCH_BUDGET,
    SearchStrategy,
)


def small_spec(**overrides) -> ExperimentSpec:
    """A spec that runs in well under a second."""
    settings = dict(
        workload=ComponentRef("uniform", {"operations": 300}),
        space=ComponentRef("smoke"),
        seed=1,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


class TestSpecRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = small_spec(
            strategy=ComponentRef("random", {"budget": 16}),
            metrics=("accesses", "footprint"),
            sample=7,
            prune=True,
            prune_fraction=0.5,
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_through_text(self):
        spec = small_spec()
        text = spec.to_json()
        assert ExperimentSpec.from_json(text) == spec

    def test_json_round_trip_through_file(self, tmp_path):
        path = tmp_path / "exp.json"
        spec = small_spec(shard="2/3")
        spec.to_json(path)
        assert ExperimentSpec.from_json(path) == spec

    def test_string_shorthand_for_component_refs(self):
        spec = ExperimentSpec.from_dict(
            {"spec_version": 1, "workload": "uniform", "space": "smoke"}
        )
        assert spec.workload == ComponentRef("uniform")
        assert spec.space == ComponentRef("smoke")

    def test_comment_keys_are_ignored(self):
        document = default_spec_document()
        assert any(key.startswith("//") for key in document)
        spec = ExperimentSpec.from_dict(document)
        assert spec == ExperimentSpec()

    def test_round_trip_run_is_byte_identical(self, tmp_path):
        spec = small_spec()
        copy = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        first = run_experiment(spec).database
        second = run_experiment(copy).database
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        first.to_json(a)
        second.to_json(b)
        assert a.read_bytes() == b.read_bytes()


class TestSpecValidation:
    def test_unknown_workload_names_the_key(self):
        with pytest.raises(SpecError, match="workload.name.*nosuch"):
            small_spec(workload=ComponentRef("nosuch")).validate()

    def test_unknown_strategy_names_the_key(self):
        with pytest.raises(SpecError, match="strategy.name.*warp"):
            small_spec(strategy=ComponentRef("warp")).validate()

    def test_unknown_workload_param_names_the_key(self):
        with pytest.raises(SpecError, match="workload.params"):
            small_spec(
                workload=ComponentRef("uniform", {"operatoins": 3})
            ).validate()

    def test_removed_backend_param_names_the_key(self):
        with pytest.raises(SpecError, match="backend.params.*share_trace"):
            small_spec(
                backend=ComponentRef("process", {"share_trace": False})
            ).validate()

    @pytest.mark.parametrize("budget", [0, -1, True, "8", None])
    def test_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(SpecError, match="strategy.params.budget"):
            small_spec(
                strategy=ComponentRef("random", {"budget": budget})
            ).validate()

    def test_bad_params_type_names_the_key(self):
        with pytest.raises(SpecError, match="strategy.params"):
            ExperimentSpec.from_dict(
                {"spec_version": 1, "strategy": {"name": "random", "params": [1, 2]}}
            )

    def test_missing_spec_version(self):
        with pytest.raises(SpecError, match="spec_version"):
            ExperimentSpec.from_dict({"workload": "uniform"})

    def test_wrong_spec_version(self):
        with pytest.raises(SpecError, match="spec_version"):
            ExperimentSpec.from_dict({"spec_version": 99})

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown key 'workloads'"):
            ExperimentSpec.from_dict({"spec_version": 1, "workloads": "uniform"})

    def test_unknown_component_key(self):
        with pytest.raises(SpecError, match="workload.*flavour"):
            ExperimentSpec.from_dict(
                {"spec_version": 1, "workload": {"name": "uniform", "flavour": "hot"}}
            )

    def test_unknown_metric(self):
        with pytest.raises(SpecError, match="metrics.*latency"):
            small_spec(metrics=("accesses", "latency")).validate()

    def test_shard_requires_exhaustive(self):
        with pytest.raises(SpecError, match="shard"):
            small_spec(
                shard="1/2", strategy=ComponentRef("random")
            ).validate()

    def test_prune_rejected_for_exhaustive(self):
        with pytest.raises(SpecError, match="prune"):
            small_spec(prune=True).validate()

    def test_prune_fraction_range(self):
        with pytest.raises(SpecError, match="prune_fraction"):
            small_spec(prune_fraction=1.5).validate()

    def test_unknown_store_kind(self):
        with pytest.raises(SpecError, match="store.name"):
            small_spec(store=ComponentRef("sqlite")).validate()

    def test_unknown_energy_param(self):
        with pytest.raises(SpecError, match="energy.params"):
            small_spec(
                energy=ComponentRef("default", {"cpu_overhead": 1})
            ).validate()

    def test_default_spec_is_valid(self):
        ExperimentSpec().validate()


class TestSpecHash:
    def test_hash_is_execution_independent(self):
        base = small_spec()
        assert base.spec_hash() == small_spec(shard="1/3").spec_hash()
        assert (
            base.spec_hash()
            == small_spec(backend=ComponentRef("process", {"jobs": 4})).spec_hash()
        )
        assert (
            base.spec_hash()
            == small_spec(store=ComponentRef("jsonl", {"path": "x.jsonl"})).spec_hash()
        )
        assert base.spec_hash() == small_spec(sink=ComponentRef("pareto")).spec_hash()

    def test_hash_normalises_registry_defaults_into_params(self):
        """Equivalent descriptions hash equally: stating a default = omitting it."""
        assert (
            small_spec(strategy=ComponentRef("random")).spec_hash()
            == small_spec(
                strategy=ComponentRef("random", {"budget": DEFAULT_SEARCH_BUDGET})
            ).spec_hash()
        )
        bare = ExperimentSpec(workload=ComponentRef("uniform"), seed=1)
        explicit = ExperimentSpec(
            workload=ComponentRef("uniform", {"operations": 3000}), seed=1
        )
        assert bare.spec_hash() == explicit.spec_hash()
        # ... but a non-default value is a different experiment.
        assert (
            bare.spec_hash()
            != ExperimentSpec(
                workload=ComponentRef("uniform", {"operations": 42}), seed=1
            ).spec_hash()
        )

    def test_hash_tracks_what_the_experiment_produces(self):
        base = small_spec()
        assert base.spec_hash() != small_spec(seed=2).spec_hash()
        assert (
            base.spec_hash()
            != small_spec(strategy=ComponentRef("random", {"budget": 8})).spec_hash()
        )
        assert base.spec_hash() != small_spec(space=ComponentRef("compact")).spec_hash()

    def test_hash_lands_in_provenance_and_store_entries(self, tmp_path):
        store_path = tmp_path / "cache.jsonl"
        spec = small_spec(store=ComponentRef("jsonl", {"path": str(store_path)}))
        result = run_experiment(spec)
        assert result.provenance.spec_hash == spec.spec_hash()
        entries = [
            json.loads(line)
            for line in store_path.read_text().splitlines()
            if line.strip()
        ]
        assert entries
        assert all(entry["spec_hash"] == spec.spec_hash() for entry in entries)

    def test_shards_share_the_merged_runs_hash(self, tmp_path):
        from repro.core.store import merge_databases

        shards = [
            run_experiment(small_spec(shard=f"{k}/2")).database for k in (1, 2)
        ]
        merged = merge_databases(shards)
        full = run_experiment(small_spec()).database
        a, b = tmp_path / "merged.json", tmp_path / "full.json"
        merged.to_json(a)
        full.to_json(b)
        assert a.read_bytes() == b.read_bytes()

    def test_hashless_legacy_shards_merge_with_spec_shards(self):
        """An empty spec hash is 'unknown experiment', not a distinct one."""
        from repro.core.exploration import ExplorationEngine, ExplorationSettings, ShardSpec
        from repro.core.space import smoke_parameter_space
        from repro.core.store import merge_databases
        from repro.workloads.synthetic import UniformRandomWorkload

        trace = UniformRandomWorkload(operations=300).generate(seed=1)
        legacy = ExplorationEngine(
            smoke_parameter_space(),
            trace,
            settings=ExplorationSettings(shard=ShardSpec(1, 2)),
        ).explore()
        assert legacy.provenance.spec_hash == ""
        modern = run_experiment(small_spec(shard="2/2")).database
        merged = merge_databases([legacy, modern])
        assert len(merged) == smoke_parameter_space().size()
        assert merged.provenance.spec_hash == small_spec().spec_hash()

    def test_distinct_experiments_never_merge(self):
        """Two different non-empty spec hashes are rejected, even when the
        evaluation fingerprints match (e.g. only the metric selection
        differs)."""
        from repro.core.store import MergeError, merge_databases

        first = run_experiment(small_spec(shard="1/2")).database
        second = run_experiment(
            small_spec(shard="2/2", metrics=("accesses", "footprint"))
        ).database
        with pytest.raises(MergeError, match="spec"):
            merge_databases([first, second])


class TestOverrides:
    def test_dotted_overrides(self):
        data = ExperimentSpec().to_dict()
        apply_overrides(
            data,
            [
                "workload.name=uniform",
                "workload.params.operations=300",
                "strategy.name=random",
                "strategy.params.budget=8",
                "seed=1",
            ],
        )
        spec = ExperimentSpec.from_dict(data)
        assert spec.workload == ComponentRef("uniform", {"operations": 300})
        assert spec.strategy == ComponentRef("random", {"budget": 8})
        assert spec.seed == 1

    def test_override_values_parse_as_json_else_string(self):
        data = ExperimentSpec().to_dict()
        apply_overrides(data, ["shard=1/2", "prune=true", "sample=5"])
        spec = ExperimentSpec.from_dict(data)
        assert spec.shard == "1/2"  # not JSON -> kept as string
        assert spec.prune is True
        assert spec.sample == 5

    def test_malformed_override_rejected(self):
        with pytest.raises(SpecError, match="key.path=value"):
            apply_overrides({}, ["no-equals-sign"])


class TestExperimentRunner:
    def test_matches_direct_engine_construction(self, tmp_path):
        from repro.core.exploration import ExplorationEngine
        from repro.core.space import smoke_parameter_space
        from repro.workloads.synthetic import UniformRandomWorkload

        result = run_experiment(small_spec())
        trace = UniformRandomWorkload(operations=300).generate(seed=1)
        engine = ExplorationEngine(smoke_parameter_space(), trace)
        engine.spec_hash = small_spec().spec_hash()
        direct = engine.explore()
        a, b = tmp_path / "api.json", tmp_path / "direct.json"
        result.database.to_json(a)
        direct.to_json(b)
        assert a.read_bytes() == b.read_bytes()

    def test_run_result_bundles_counters_and_provenance(self):
        result = run_experiment(small_spec())
        assert result.provenance is not None
        assert result.provenance.fingerprint
        assert set(result.counters) >= {"cache_hits", "cache_misses", "store_hits"}
        assert result.pareto_records()
        assert "Pareto" in result.report()

    def test_sink_is_resolved_and_fed(self):
        result = run_experiment(small_spec(sink=ComponentRef("pareto")))
        assert result.sink is not None
        assert result.sink.seen == len(result.database)
        assert result.sink.records()

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(SpecError):
            Experiment(small_spec(workload=ComponentRef("nosuch")))

    def test_experiment_is_rerunnable(self, tmp_path):
        experiment_spec = small_spec()
        first = Experiment(experiment_spec).run().database
        second = Experiment(experiment_spec).run().database
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        first.to_json(a)
        second.to_json(b)
        assert a.read_bytes() == b.read_bytes()


class FirstPointsSearch(SearchStrategy):
    """Toy third-party strategy: evaluate the first ``budget`` points."""

    name = "firstpoints"

    def _search(self, database):
        points = [
            self.engine.space.point_at(i)
            for i in range(min(self.budget.evaluations, self.engine.space.size()))
        ]
        self._evaluate_batch(points, database)


@pytest.fixture
def registered_strategy():
    from repro.api.registry import search_strategy_factory

    registry.strategies.register(
        "firstpoints",
        search_strategy_factory(FirstPointsSearch),
        description="first N points of the enumeration (test strategy)",
    )
    yield "firstpoints"
    registry.strategies.unregister("firstpoints")


class TestThirdPartyRegistration:
    def test_usable_from_python_api(self, registered_strategy):
        spec = small_spec(strategy=ComponentRef("firstpoints", {"budget": 4}))
        result = run_experiment(spec)
        assert len(result.database) == 4
        assert result.database[0].configuration.label.startswith("firstpoints")

    def test_usable_from_cli_without_touching_cli_py(
        self, registered_strategy, tmp_path, capsys
    ):
        out = tmp_path / "fp.json"
        code = main(
            [
                "explore",
                "--workload",
                "uniform",
                "--space",
                "smoke",
                "--seed",
                "1",
                "--strategy",
                "firstpoints",
                "--budget",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(json.loads(out.read_text())["records"]) == 4

    def test_usable_from_cli_run_spec_file(self, registered_strategy, tmp_path):
        spec_path = tmp_path / "exp.json"
        small_spec(strategy=ComponentRef("firstpoints", {"budget": 3})).to_json(
            spec_path
        )
        out = tmp_path / "fp.json"
        assert main(["run", str(spec_path), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["records"]) == 3

    def test_listed_by_dmexplore_list(self, registered_strategy, capsys):
        assert main(["list", "strategies"]) == 0
        assert "firstpoints" in capsys.readouterr().out

    def test_duplicate_registration_rejected(self, registered_strategy):
        from repro.api.registry import RegistryError

        with pytest.raises(RegistryError, match="already registered"):
            registry.strategies.register("firstpoints", lambda: None)


class TestCliDefaultsDerived:
    """The spec is the single source of defaults; argparse restates nothing."""

    def test_explore_defaults_come_from_the_spec(self):
        parser = build_parser()
        args = parser.parse_args(["explore"])
        spec = ExperimentSpec()
        assert args.workload == spec.workload.name
        assert args.space == spec.space.name
        assert args.hierarchy == spec.hierarchy.name
        assert args.seed == spec.seed
        assert args.metrics == spec.metrics
        assert args.sample == spec.sample
        assert args.strategy == spec.strategy.name
        assert args.budget == DEFAULT_SEARCH_BUDGET
        assert args.prune == spec.prune
        assert args.prune_fraction == spec.prune_fraction
        assert args.shard == (spec.shard or None)

    def test_report_defaults_come_from_the_spec(self):
        parser = build_parser()
        args = parser.parse_args(["report", "x.json"])
        spec = ExperimentSpec()
        assert args.workload == spec.workload.name
        assert args.space == spec.space.name
        assert args.hierarchy == spec.hierarchy.name
        assert args.seed == spec.seed

    def test_core_defaults_are_the_specs_defaults(self):
        """The chain core -> spec -> CLI has one definition per default."""
        from repro.core.search import SearchBudget

        spec = ExperimentSpec()
        assert spec.prune_fraction == DEFAULT_PRUNE_FRACTION
        assert SearchBudget().evaluations == DEFAULT_SEARCH_BUDGET

    def test_parser_choices_read_the_registries(self):
        parser = build_parser()
        explore = next(
            action
            for action in parser._subparsers._group_actions[0].choices[
                "explore"
            ]._actions
            if action.dest == "workload"
        )
        assert list(explore.choices) == registry.workloads.names()
