"""Unit tests for the heuristic search strategies (repro.core.search)."""

import pytest

from repro.core.configuration import AllocatorConfiguration, PoolSpec
from repro.core.exploration import ExplorationEngine
from repro.core.pareto import dominates
from repro.core.results import ExplorationRecord
from repro.core.search import (
    EvolutionarySearch,
    HillClimbSearch,
    RandomSearch,
    SearchBudget,
)
from repro.core.space import compact_parameter_space, smoke_parameter_space
from repro.profiling.metrics import MetricSet
from repro.workloads.easyport import EasyportWorkload
from repro.workloads.synthetic import UniformRandomWorkload


@pytest.fixture(scope="module")
def engine():
    trace = EasyportWorkload(packets=150).generate(seed=5)
    return ExplorationEngine(compact_parameter_space(), trace)


@pytest.fixture(scope="module")
def exhaustive_reference():
    trace = EasyportWorkload(packets=150).generate(seed=5)
    engine = ExplorationEngine(smoke_parameter_space(), trace)
    return engine, engine.explore()


class TestSearchBudget:
    def test_positive_budget_required(self):
        with pytest.raises(ValueError):
            SearchBudget(evaluations=0)


class TestRandomSearch:
    def test_respects_budget(self, engine):
        database = RandomSearch(engine, SearchBudget(evaluations=10, seed=1)).run()
        assert len(database) == 10

    def test_deterministic_for_seed(self, engine):
        first = RandomSearch(engine, SearchBudget(evaluations=8, seed=2)).run()
        second = RandomSearch(engine, SearchBudget(evaluations=8, seed=2)).run()
        assert [r.parameters for r in first] == [r.parameters for r in second]

    def test_budget_capped_at_space_size(self, exhaustive_reference):
        engine, _ = exhaustive_reference
        database = RandomSearch(engine, SearchBudget(evaluations=1000, seed=0)).run()
        assert len(database) == engine.space.size()


class TestHillClimbSearch:
    def test_respects_budget(self, engine):
        search = HillClimbSearch(engine, SearchBudget(evaluations=12, seed=3))
        database = search.run()
        assert 1 <= len(database) <= 12
        assert search.evaluations_used <= 12

    def test_finds_a_reasonable_configuration(self, exhaustive_reference):
        engine, exhaustive = exhaustive_reference
        search = HillClimbSearch(engine, SearchBudget(evaluations=6, seed=4))
        database = search.run()
        best_found = min(record.metrics.accesses for record in database)
        worst_exhaustive = max(record.metrics.accesses for record in exhaustive)
        assert best_found <= worst_exhaustive


class TestEvolutionarySearch:
    def test_respects_budget(self, engine):
        search = EvolutionarySearch(
            engine, SearchBudget(evaluations=20, seed=5), population=6, offspring=6
        )
        database = search.run()
        assert len(database) <= 20

    def test_front_quality_not_worse_than_random(self, engine):
        budget = 24
        random_db = RandomSearch(engine, SearchBudget(evaluations=budget, seed=6)).run()
        evo_db = EvolutionarySearch(
            engine, SearchBudget(evaluations=budget, seed=6), population=6, offspring=6
        ).run()
        # The evolutionary front must not be strictly dominated by the random
        # front on the accesses/footprint plane.
        evo_front = evo_db.pareto_records(["accesses", "footprint"])
        random_front = random_db.pareto_records(["accesses", "footprint"])
        assert evo_front
        fully_dominated = all(
            any(
                dominates(r.metric_vector(["accesses", "footprint"]),
                          e.metric_vector(["accesses", "footprint"]))
                for r in random_front
            )
            for e in evo_front
        )
        assert not fully_dominated

    def test_invalid_population(self, engine):
        with pytest.raises(ValueError):
            EvolutionarySearch(engine, population=1, offspring=0)
        with pytest.raises(ValueError, match="mutation_rate"):
            EvolutionarySearch(engine, mutation_rate=5)
        with pytest.raises(ValueError, match="mutation_rate"):
            EvolutionarySearch(engine, mutation_rate=-0.1)

    def test_selection_ranks_infeasible_records_last(self, engine):
        # An OOM replay stopped at its first failed allocation, so its
        # metrics look cheap: this one dominates every feasible record, yet
        # it must not displace any of them.
        def record(label, value, oom=0):
            return ExplorationRecord(
                configuration=AllocatorConfiguration(
                    pools=[PoolSpec(name="general", kind="general")], label=label
                ),
                metrics=MetricSet(
                    accesses=value, footprint=value, energy_nj=value, cycles=value
                ),
                oom_failures=oom,
            )

        feasible = [record("a", 30), record("b", 20), record("c", 40)]
        failed = [record("x", 5, oom=3), record("y", 1, oom=1)]
        search = EvolutionarySearch(engine, population=4, offspring=2)
        selected = search._select([failed[0], *feasible, failed[1]])
        assert [r.configuration_id for r in selected] == ["b", "a", "c", "y"]


class TestSearchInternals:
    def test_mutation_changes_exactly_one_or_zero_parameters(self, engine):
        search = RandomSearch(engine, SearchBudget(evaluations=1, seed=7))
        point = engine.space.point_at(0)
        mutated = search._mutate(point)
        differing = [name for name in point if point[name] != mutated[name]]
        assert len(differing) <= 1
        engine.space.validate_point(mutated)

    def test_crossover_produces_valid_point(self, engine):
        search = RandomSearch(engine, SearchBudget(evaluations=1, seed=8))
        first = engine.space.point_at(0)
        second = engine.space.point_at(engine.space.size() - 1)
        child = search._crossover(first, second)
        engine.space.validate_point(child)
        for name, value in child.items():
            assert value in (first[name], second[name])

    def test_memoisation_avoids_duplicate_evaluations(self, exhaustive_reference):
        engine, _ = exhaustive_reference
        search = RandomSearch(engine, SearchBudget(evaluations=4, seed=9))
        database = search.run()
        point = database[0].parameters
        before = search.evaluations_used
        search._evaluate(point, database)
        assert search.evaluations_used == before


class TestDominancePruning:
    """Acceptance: pruning skips >0 evaluations on the standard (compact)
    space without changing the final Pareto front."""

    def _run(self, prune, seed=3):
        trace = UniformRandomWorkload(operations=300).generate(seed=7)
        engine = ExplorationEngine(compact_parameter_space(), trace)
        search = RandomSearch(
            engine, SearchBudget(evaluations=64, seed=seed), prune=prune
        )
        return search, search.run()

    def test_pruned_front_equals_unpruned_front_with_skips(self):
        # Random search draws the identical candidate sample with and
        # without pruning, so front preservation is exactly testable.
        trace = UniformRandomWorkload(operations=300).generate(seed=7)
        for seed in (0, 3):
            results = {}
            for prune in (False, True):
                engine = ExplorationEngine(compact_parameter_space(), trace)
                search = RandomSearch(
                    engine, SearchBudget(evaluations=64, seed=seed), prune=prune
                )
                database = search.run()
                results[prune] = (search, database)
            unpruned_front = sorted(
                r.configuration_id for r in results[False][1].pareto_records()
            )
            pruned_search, pruned_db = results[True]
            pruned_front = sorted(
                r.configuration_id for r in pruned_db.pareto_records()
            )
            assert pruned_front == unpruned_front
            assert pruned_search.prune_skipped > 0
            assert pruned_search.prune_predicted > 0
            assert len(pruned_db) < len(results[False][1])

    def test_counters_surface_on_database_summary_json_and_report(self, tmp_path):
        search, database = self._run(prune=True)
        assert database.prune_skipped == search.prune_skipped > 0
        assert database.prune_predicted == search.prune_predicted > 0
        summary = database.summary()
        assert summary["pruning"] == {
            "skipped": search.prune_skipped,
            "predicted": search.prune_predicted,
            "surrogate": search.surrogate_skips,
        }
        # Surrogate (quorum) skips are a subset of all skips.
        assert 0 <= search.surrogate_skips <= search.prune_skipped
        assert database.surrogate_skips == search.surrogate_skips
        path = tmp_path / "db.json"
        database.to_json(path)
        from repro.core.results import ResultDatabase

        loaded = ResultDatabase.from_json(path)
        assert loaded.prune_skipped == search.prune_skipped
        assert loaded.prune_predicted == search.prune_predicted
        assert loaded.surrogate_skips == search.surrogate_skips
        from repro.core.reporting import exploration_report

        report = exploration_report(database)
        assert (
            f"Dominance pruning: {search.prune_skipped} of "
            f"{search.prune_predicted} predicted candidates skipped"
        ) in report

    def test_no_pruning_means_no_counters(self):
        search, database = self._run(prune=False)
        assert search.prune_skipped == 0
        assert search.prune_predicted == 0
        assert "pruning" not in database.summary()

    def test_known_points_are_never_predicted(self, exhaustive_reference):
        # Every smoke-space point is memoised by the shared engine, so a
        # pruning search over the same space must not spend predictions.
        engine, _ = exhaustive_reference
        search = RandomSearch(engine, SearchBudget(evaluations=8, seed=2), prune=True)
        search.run()
        assert search.prune_predicted == 0
        assert search.prune_skipped == 0

    def test_invalid_prune_fraction_rejected(self, engine):
        with pytest.raises(ValueError):
            RandomSearch(engine, SearchBudget(evaluations=4), prune=True, prune_fraction=1.5)

    def test_predict_point_is_a_lower_bound(self, engine):
        # Metric accumulation over the trace is monotone, so the prefix
        # vector must never exceed the full vector on any objective.
        for index in (0, 17, 63):
            point = engine.space.point_at(index)
            record = engine.evaluate_point(point)
            partial, _oom = engine.predict_point(point, fraction=0.25)
            full = record.metric_vector()
            assert all(p <= f for p, f in zip(partial, full)), (partial, full)
