"""Unit tests for the exploration engine, result database and trade-off analysis."""

import pytest

from repro.core.configuration import AllocatorConfiguration, PoolSpec
from repro.core.exploration import (
    LABEL_PREFIX,
    ExplorationEngine,
    ExplorationSettings,
    explore,
)
from repro.core.results import ExplorationRecord, ResultDatabase
from repro.core.space import smoke_parameter_space
from repro.core.tradeoff import TradeoffAnalysis, compare_against_baseline
from repro.memhier.hierarchy import embedded_two_level
from repro.profiling.metrics import MetricSet, metric_keys
from repro.workloads.easyport import EasyportWorkload
from repro.workloads.synthetic import FixedSizesWorkload


@pytest.fixture(scope="module")
def small_trace():
    return EasyportWorkload(packets=200).generate(seed=3)


@pytest.fixture(scope="module")
def smoke_database(small_trace):
    engine = ExplorationEngine(smoke_parameter_space(), small_trace)
    return engine.explore()


def make_record(label, accesses, footprint, energy=1.0, cycles=1, oom=0):
    configuration = AllocatorConfiguration(
        pools=[PoolSpec(name="general", kind="general")], label=label
    )
    return ExplorationRecord(
        configuration=configuration,
        metrics=MetricSet(accesses=accesses, footprint=footprint, energy_nj=energy, cycles=cycles),
        trace_name="t",
        oom_failures=oom,
    )


class TestExplorationEngine:
    def test_explores_every_point(self, small_trace, smoke_database):
        assert len(smoke_database) == smoke_parameter_space().size()

    def test_results_are_deterministic(self, small_trace):
        first = ExplorationEngine(smoke_parameter_space(), small_trace).explore()
        second = ExplorationEngine(smoke_parameter_space(), small_trace).explore()
        for a, b in zip(first, second):
            assert a.metrics == b.metrics
            assert a.configuration.fingerprint() == b.configuration.fingerprint()

    def test_sampled_exploration(self, small_trace):
        settings = ExplorationSettings(sample=3, sample_seed=1)
        engine = ExplorationEngine(smoke_parameter_space(), small_trace, settings=settings)
        assert len(engine.explore()) == 3

    def test_dedicated_pools_reduce_accesses(self, small_trace, smoke_database):
        without = [
            record
            for record in smoke_database
            if record.parameters["num_dedicated_pools"] == 0
        ]
        with_pools = [
            record
            for record in smoke_database
            if record.parameters["num_dedicated_pools"] > 0
        ]
        assert min(r.metrics.accesses for r in with_pools) < min(
            r.metrics.accesses for r in without
        )

    def test_scratchpad_configs_use_less_energy_than_all_dram(self, small_trace):
        # Same policies, only the dedicated pool placement differs.
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        base_point = {
            "num_dedicated_pools": 3,
            "dedicated_pool_kind": "fixed",
            "dedicated_pool_placement": "scratchpad",
            "general_free_list": "lifo",
            "general_fit": "first_fit",
            "general_coalescing": "never",
            "general_splitting": "always",
            "chunk_size": 4096,
        }
        scratchpad_record = engine.run_point(base_point)
        dram_point = dict(base_point, dedicated_pool_placement="main")
        dram_record = engine.run_point(dram_point)
        assert scratchpad_record.metrics.energy_nj < dram_record.metrics.energy_nj

    def test_progress_callback(self, small_trace):
        calls = []
        engine = ExplorationEngine(
            smoke_parameter_space(),
            small_trace,
            progress_callback=lambda done, total: calls.append((done, total)),
        )
        engine.explore()
        assert calls[-1][0] == smoke_parameter_space().size()

    def test_hot_sizes_default_from_trace(self, small_trace):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        assert engine.hot_sizes == small_trace.hot_sizes(top=8)

    def test_explore_helper(self, small_trace):
        database = explore(smoke_parameter_space(), small_trace, sample=2)
        assert len(database) == 2

    def test_engine_with_explicit_hierarchy(self, small_trace):
        hierarchy = embedded_two_level(scratchpad_size=32 * 1024)
        engine = ExplorationEngine(
            smoke_parameter_space(), small_trace, hierarchy=hierarchy
        )
        record = engine.run_point(smoke_parameter_space().point_at(0))
        assert record.metrics.accesses > 0


    def test_run_points_batches_and_matches_run_point(self, small_trace):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        items = [
            (point, f"p{index}")
            for index, point in list(engine.enumerate_points())[:4]
        ]
        batched = engine.run_points(items)
        assert engine._batch is not None
        assert engine._batch.batched_configurations > 0
        for (point, label), record in zip(items, batched):
            single = engine.run_point(point, label=label)
            assert record.metrics == single.metrics
            assert record.oom_failures == single.oom_failures
            assert record.configuration.label == label

    def test_labels_follow_enumeration_index(self, smoke_database):
        labels = [record.configuration.label for record in smoke_database]
        assert labels == [f"{LABEL_PREFIX}{i:05d}" for i in range(len(labels))]
        assert LABEL_PREFIX == "cfg"

    @pytest.mark.parametrize(
        "name", ["batch_replay", "label_prefix", "payload_access_factor"]
    )
    def test_retired_settings_are_refused(self, name):
        """Settings that no longer exist fail loudly instead of being ignored."""
        with pytest.raises(TypeError, match=name):
            ExplorationSettings(**{name: False})


class TestResultDatabase:
    def make_database(self):
        database = ResultDatabase("test")
        database.add(make_record("a", accesses=100, footprint=50))
        database.add(make_record("b", accesses=50, footprint=100))
        database.add(make_record("c", accesses=200, footprint=200))
        database.add(make_record("d", accesses=10, footprint=10, oom=5))
        return database

    def test_best_and_worst_ignore_infeasible(self):
        database = self.make_database()
        assert database.best_by("accesses").configuration_id == "b"
        assert database.worst_by("accesses").configuration_id == "c"
        assert database.best_by("accesses", feasible_only=False).configuration_id == "d"

    def test_metric_range(self):
        database = self.make_database()
        assert database.metric_range("footprint") == (50, 200)

    def test_pareto_excludes_infeasible_and_dominated(self):
        database = self.make_database()
        front_ids = {record.configuration_id for record in database.pareto_records(["accesses", "footprint"])}
        assert front_ids == {"a", "b"}

    def test_pareto_can_include_infeasible_when_asked(self):
        database = self.make_database()
        front = database.pareto_records(["accesses", "footprint"], feasible_only=False)
        assert {record.configuration_id for record in front} == {"d"}

    def test_feasible_split(self):
        database = self.make_database()
        assert len(database.feasible_records()) == 3
        assert len(database.infeasible_records()) == 1

    def test_where_parameter(self, smoke_database):
        with_pools = smoke_database.where_parameter("num_dedicated_pools", 3)
        assert all(r.parameters["num_dedicated_pools"] == 3 for r in with_pools)
        assert with_pools

    def test_json_round_trip(self, tmp_path, smoke_database):
        path = tmp_path / "db.json"
        smoke_database.to_json(path)
        loaded = ResultDatabase.from_json(path)
        assert len(loaded) == len(smoke_database)
        assert loaded[0].metrics == smoke_database[0].metrics
        assert loaded[0].parameters == smoke_database[0].parameters

    def test_csv_export(self, tmp_path, smoke_database):
        path = tmp_path / "db.csv"
        rows = smoke_database.to_csv(path)
        lines = path.read_text().splitlines()
        assert rows == len(smoke_database)
        assert len(lines) == rows + 1  # header
        assert "accesses" in lines[0]

    def test_metric_table_contains_parameters(self, smoke_database):
        table = smoke_database.metric_table()
        assert "param_general_free_list" in table[0]

    def test_summary(self, smoke_database):
        summary = smoke_database.summary()
        assert summary["records"] == len(smoke_database)
        assert summary["pareto_count"] >= 1

    def test_empty_database_errors(self):
        database = ResultDatabase()
        with pytest.raises(ValueError):
            database.best_by("accesses")
        assert database.summary() == {"records": 0}

    def test_knee_record(self, smoke_database):
        knee = smoke_database.knee_record()
        assert knee in smoke_database.pareto_records()


class TestTradeoffAnalysis:
    def test_pareto_count_and_ranges(self, smoke_database):
        analysis = TradeoffAnalysis(smoke_database)
        assert analysis.pareto_count == len(smoke_database.pareto_records())
        tradeoff = analysis.metric_tradeoff("accesses")
        assert tradeoff.overall_min <= tradeoff.pareto_min
        assert tradeoff.pareto_max <= tradeoff.overall_max
        assert tradeoff.overall_range_factor >= tradeoff.pareto_gain_factor >= 1.0

    def test_percent_consistent_with_factor(self, smoke_database):
        tradeoff = TradeoffAnalysis(smoke_database).metric_tradeoff("footprint")
        expected = 100.0 * (1 - 1 / tradeoff.pareto_gain_factor)
        assert tradeoff.pareto_gain_percent == pytest.approx(expected)

    def test_summary_round_trip(self, smoke_database):
        summary = TradeoffAnalysis(smoke_database).summary()
        data = summary.as_dict()
        assert set(data["metrics"]) == set(metric_keys())
        assert data["pareto_count"] == summary.pareto_count

    def test_best_configuration_is_on_front(self, smoke_database):
        analysis = TradeoffAnalysis(smoke_database)
        best = analysis.best_configuration("energy_nj")
        assert best in analysis.pareto_records

    def test_paper_style_report_mentions_metrics(self, smoke_database):
        report = TradeoffAnalysis(smoke_database).paper_style_report()
        for key in metric_keys():
            assert key in report

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            TradeoffAnalysis(ResultDatabase())

    def test_all_infeasible_rejected(self):
        database = ResultDatabase()
        database.add(make_record("x", 1, 1, oom=3))
        with pytest.raises(ValueError):
            TradeoffAnalysis(database)

    def test_compare_against_baseline(self, smoke_database):
        baseline = MetricSet(accesses=10**9, footprint=10**9, energy_nj=1e9, cycles=10**9)
        factor = compare_against_baseline(smoke_database, baseline, "accesses")
        assert factor > 1.0


class TestCustomWorkloadExploration:
    def test_fixed_size_workload_favours_dedicated_pools(self):
        trace = FixedSizesWorkload(sizes=[64], operations=400).generate(seed=2)
        engine = ExplorationEngine(smoke_parameter_space(), trace)
        database = engine.explore()
        best = database.best_by("accesses")
        assert best.parameters["num_dedicated_pools"] > 0
