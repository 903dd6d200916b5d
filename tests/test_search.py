"""Unit tests for the heuristic search strategies (repro.core.search)."""

import pytest

from repro.core.configuration import AllocatorConfiguration, PoolSpec
from repro.core.exploration import ExplorationEngine
from repro.core.pareto import dominates
from repro.core.results import ExplorationRecord
from repro.core.search import (
    EvolutionarySearch,
    RandomSearch,
    SearchBudget,
)
from repro.core.space import compact_parameter_space, smoke_parameter_space
from repro.profiling.metrics import MetricSet
from repro.workloads.easyport import EasyportWorkload


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
        search._evaluate_batch([point], database)
        assert search.evaluations_used == before
