"""Unit tests for the surrogate-guided search portfolio (repro.core.strategies).

Covers the NSGA-II machinery (fast non-dominated sorting, crowding
distance), the TPE density model, the random-forest regressor, and the
strategy-level contracts all three new strategies share: budget respect,
fixed-seed determinism, and the ``surrogate_skips`` accounting.
"""

import random

import pytest

from repro.core.exploration import ExplorationEngine
from repro.core.pareto import non_dominated, pareto_rank
from repro.core.search import SearchBudget
from repro.core.space import compact_parameter_space
from repro.core.strategies import (
    NSGA2Search,
    RandomForest,
    RegressionTree,
    SurrogateSearch,
    TPESearch,
    crowding_distance,
    fast_non_dominated_sort,
)
from repro.workloads.synthetic import UniformRandomWorkload


@pytest.fixture(scope="module")
def trace():
    return UniformRandomWorkload(operations=300).generate(seed=7)


def make_engine(trace):
    return ExplorationEngine(compact_parameter_space(), trace)


class TestFastNonDominatedSort:
    def test_single_front(self):
        fronts = fast_non_dominated_sort([(1, 2), (2, 1)])
        assert fronts == [[0, 1]]

    def test_layered_fronts(self):
        fronts = fast_non_dominated_sort([(1, 1), (2, 2), (3, 3)])
        assert fronts == [[0], [1], [2]]

    def test_empty(self):
        assert fast_non_dominated_sort([]) == []

    def test_duplicates_share_a_front(self):
        fronts = fast_non_dominated_sort([(1, 1), (1, 1), (2, 2)])
        assert fronts == [[0, 1], [2]]

    def test_property_matches_pareto_rank(self):
        # Each layer must be the batch front of what the earlier layers
        # leave behind, for arbitrary vector sets (discrete values force
        # plenty of ties); pareto_rank is the same layering per vector.
        rng = random.Random(11)
        for _ in range(50):
            count = rng.randrange(1, 30)
            vectors = [
                tuple(rng.randrange(0, 5) for _ in range(3)) for _ in range(count)
            ]
            peeled, remaining = [], list(range(count))
            while remaining:
                front = [
                    remaining[i]
                    for i in non_dominated([vectors[index] for index in remaining])
                ]
                peeled.append(front)
                remaining = [index for index in remaining if index not in front]
            assert fast_non_dominated_sort(vectors) == peeled
            ranks = pareto_rank(vectors)
            assert ranks == [
                next(layer for layer, front in enumerate(peeled) if index in front)
                for index in range(count)
            ]

    def test_every_index_appears_exactly_once(self):
        rng = random.Random(2)
        vectors = [tuple(rng.random() for _ in range(4)) for _ in range(40)]
        fronts = fast_non_dominated_sort(vectors)
        flat = [index for front in fronts for index in front]
        assert sorted(flat) == list(range(40))


class TestCrowdingDistance:
    def test_boundaries_are_infinite(self):
        vectors = [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        distances = crowding_distance(vectors, [0, 1, 2, 3, 4])
        assert distances[0] == float("inf")
        assert distances[4] == float("inf")

    def test_isolated_point_beats_crowded_point(self):
        # Objective space 0..10: point 2 sits in a tight cluster, point 1
        # is isolated — the isolated one must get the larger distance.
        vectors = [(0, 10), (5, 5), (8.8, 1.2), (9, 1), (9.2, 0.8), (10, 0)]
        distances = crowding_distance(vectors, list(range(6)))
        assert distances[1] > distances[3]

    def test_tiny_fronts_are_all_boundary(self):
        vectors = [(1, 2), (2, 1)]
        assert crowding_distance(vectors, [0, 1]) == {
            0: float("inf"),
            1: float("inf"),
        }

    def test_zero_span_objective_contributes_nothing(self):
        vectors = [(1, 7), (2, 7), (3, 7)]
        distances = crowding_distance(vectors, [0, 1, 2])
        assert distances[0] == float("inf")
        assert distances[2] == float("inf")
        assert distances[1] == pytest.approx(2 / 2)  # only the first objective


class TestRegressionForest:
    def rows(self, rng, count=60, features=5):
        return [
            tuple(float(rng.randrange(0, 4)) for _ in range(features))
            for _ in range(count)
        ]

    def test_constant_targets_predict_the_constant(self):
        rng = random.Random(0)
        rows = self.rows(rng)
        tree = RegressionTree().fit(rows, [3.5] * len(rows), random.Random(1))
        assert tree.predict_row(rows[0]) == pytest.approx(3.5)

    def test_learns_an_additive_function(self):
        rng = random.Random(3)
        rows = self.rows(rng, count=120)
        targets = [sum(row) for row in rows]
        forest = RandomForest(trees=10, max_depth=8).fit(rows, targets, random.Random(4))
        predictions = forest.predict_batch(rows)
        mean = sum(targets) / len(targets)
        baseline = sum((t - mean) ** 2 for t in targets)
        residual = sum((t - p) ** 2 for t, p in zip(targets, predictions))
        # The forest must explain most of the variance of a learnable target.
        assert residual < 0.25 * baseline

    def test_batch_prediction_matches_per_row_walks(self):
        # The (optionally numpy-accelerated) batch path must return exactly
        # the scalar tree walk's floats.
        rng = random.Random(5)
        rows = self.rows(rng, count=80)
        targets = [row[0] * 2 + row[3] for row in rows]
        forest = RandomForest(trees=6).fit(rows, targets, random.Random(6))
        queries = self.rows(rng, count=50)
        assert forest.predict_batch(queries) == [
            forest.predict_row(row) for row in queries
        ]

    def test_fit_is_deterministic_for_a_seeded_rng(self):
        rng = random.Random(7)
        rows = self.rows(rng, count=40)
        targets = [row[1] - row[2] for row in rows]
        first = RandomForest(trees=5).fit(rows, targets, random.Random(8))
        second = RandomForest(trees=5).fit(rows, targets, random.Random(8))
        queries = self.rows(rng, count=20)
        assert first.predict_batch(queries) == second.predict_batch(queries)

    def test_invalid_construction_and_fit_rejected(self):
        with pytest.raises(ValueError):
            RandomForest(trees=0)
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RandomForest().fit([], [], random.Random(0))
        with pytest.raises(ValueError):
            RandomForest().fit([(1.0,)], [1.0, 2.0], random.Random(0))


class TestTPEModel:
    def test_histograms_are_laplace_smoothed_distributions(self, trace):
        engine = make_engine(trace)
        search = TPESearch(engine, SearchBudget(evaluations=8, seed=1))
        points = [engine.space.point_at(i) for i in (0, 1, 2)]
        model = search._histograms(points)
        for parameter in engine.space:
            weights = model[parameter.name]
            assert sum(weights.values()) == pytest.approx(1.0)
            # Smoothing: even unobserved values keep non-zero density.
            assert min(weights.values()) > 0.0

    def test_split_puts_infeasible_members_in_rest(self, trace):
        engine = make_engine(trace)
        search = TPESearch(engine, SearchBudget(evaluations=8, seed=1))
        database_records = engine.evaluate_points(
            [(engine.space.point_at(i), f"p{i}") for i in range(8)]
        )
        members = [
            (engine.space.point_at(i), record)
            for i, record in enumerate(database_records)
        ]
        good, rest = search._split(members)
        feasible = [m for m in members if m[1].feasible]
        assert len(good) == max(1, int(search.gamma * len(feasible) + 0.999999))
        assert len(good) + len(rest) == len(members)
        for point, record in members:
            if not record.feasible:
                assert point in rest

    def test_invalid_params_rejected(self, trace):
        engine = make_engine(trace)
        with pytest.raises(ValueError):
            TPESearch(engine, gamma=1.5)
        with pytest.raises(ValueError):
            TPESearch(engine, batch=0)


class TestStrategyContracts:
    CASES = [
        (NSGA2Search, dict(population=5, offspring=5)),
        (TPESearch, dict(startup=5, batch=4, candidates=20)),
        (
            SurrogateSearch,
            dict(initial=5, candidates=24, surrogate_fraction=0.25, trees=4, depth=3),
        ),
    ]

    @pytest.mark.parametrize("cls,params", CASES, ids=["nsga2", "tpe", "surrogate"])
    def test_budget_is_respected_and_spent(self, trace, cls, params):
        engine = make_engine(trace)
        database = cls(engine, SearchBudget(evaluations=18, seed=3), **params).run()
        assert len(database) == 18  # budget fully used on the 128-point space

    @pytest.mark.parametrize("cls,params", CASES, ids=["nsga2", "tpe", "surrogate"])
    def test_fixed_seed_runs_are_identical(self, trace, tmp_path, cls, params):
        names = iter(("a.json", "b.json"))
        payloads = []
        for _ in range(2):
            engine = make_engine(trace)
            database = cls(engine, SearchBudget(evaluations=16, seed=5), **params).run()
            path = tmp_path / next(names)
            database.to_json(path)
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_nsga2_invalid_params_rejected(self, trace):
        engine = make_engine(trace)
        with pytest.raises(ValueError):
            NSGA2Search(engine, population=1)
        with pytest.raises(ValueError):
            NSGA2Search(engine, mutation_rate=1.5)

    def test_surrogate_invalid_params_rejected(self, trace):
        engine = make_engine(trace)
        with pytest.raises(ValueError):
            SurrogateSearch(engine, surrogate_fraction=0.0)
        with pytest.raises(ValueError):
            SurrogateSearch(engine, trees=0)

    def test_strategies_reach_most_of_the_true_hypervolume(self, trace):
        """Acceptance: with a ~19 % budget of the compact space, every
        portfolio member recovers well over half of the exhaustive front's
        hypervolume on every seed tried (the full quality-vs-evaluations
        curves, with their much tighter gates, live in
        benchmarks/test_search_quality.py)."""
        from repro.core.pareto import hypervolume, reference_point

        exhaustive = make_engine(trace).explore()
        truth_vectors = [
            record.metric_vector() for record in exhaustive.feasible_records()
        ]
        reference = reference_point(truth_vectors)
        truth = hypervolume(
            [record.metric_vector() for record in exhaustive.pareto_records()],
            reference,
        )

        def quality(database):
            vectors = [record.metric_vector() for record in database.pareto_records()]
            return hypervolume(vectors, reference) / truth

        for cls, params in self.CASES:
            for seed in (2, 5, 9):
                budget = SearchBudget(evaluations=24, seed=seed)
                achieved = quality(cls(make_engine(trace), budget, **params).run())
                assert achieved > 0.7, (cls.name, seed, achieved)


class TestSurrogateSkipAccounting:
    def run_surrogate(self, trace, prune=False):
        engine = make_engine(trace)
        search = SurrogateSearch(
            engine,
            SearchBudget(evaluations=20, seed=4),
            initial=5,
            candidates=32,
            surrogate_fraction=0.25,
            trees=4,
            depth=3,
            prune=prune,
        )
        return search, search.run()

    def test_model_discards_count_as_surrogate_skips_only(self, trace):
        # Without pruning there is no prefix profiling at all, so every
        # skip recorded must come from the learned model.
        search, database = self.run_surrogate(trace)
        assert search.surrogate_skips > 0
        assert search.prune_skipped == 0
        assert search.prune_predicted == 0
        assert database.surrogate_skips == search.surrogate_skips

    def test_surrogate_skips_surface_everywhere(self, trace, tmp_path):
        from repro.core.reporting import exploration_report
        from repro.core.results import ResultDatabase

        search, database = self.run_surrogate(trace)
        summary = database.summary()
        assert summary["pruning"]["surrogate"] == search.surrogate_skips
        path = tmp_path / "db.json"
        database.to_json(path)
        loaded = ResultDatabase.from_json(path)
        assert loaded.surrogate_skips == search.surrogate_skips
        report = exploration_report(database)
        assert f"Surrogate skips: {search.surrogate_skips}" in report

    def test_dashboard_shows_surrogate_counter(self, trace):
        import io

        from repro.gui.live import LiveDashboardSink

        search, _ = self.run_surrogate(trace)
        sink = LiveDashboardSink(interval=0.0, stream=io.StringIO())
        sink.attach_strategy(search)
        assert any(
            f"surrogate {search.surrogate_skips}" in line
            for line in sink.status_lines()
        )

    def test_experiment_counters_include_surrogate_skips(self):
        from repro.api import ComponentRef, Experiment, ExperimentSpec

        spec = ExperimentSpec(
            workload=ComponentRef("uniform", {"operations": 300}),
            space=ComponentRef("compact"),
            strategy=ComponentRef(
                "surrogate",
                {
                    "budget": 15,
                    "initial": 5,
                    "candidates": 24,
                    "surrogate_fraction": 0.25,
                    "trees": 3,
                    "depth": 3,
                },
            ),
            seed=7,
        )
        result = Experiment(spec).run()
        assert result.counters["surrogate_skips"] == result.database.surrogate_skips
        assert result.counters["surrogate_skips"] > 0
