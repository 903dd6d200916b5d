"""Tests for the evaluation backends and the point memoisation cache.

The contract under test: whichever backend performs the point evaluations,
an exploration (exhaustive or heuristic) must produce a byte-identical
:class:`ResultDatabase` and the same Pareto front for the same seed — the
backend only changes *where* points are profiled, never *which* points or
*in which order* results are recorded.
"""

import pytest

from repro.core.exploration import (
    ExplorationEngine,
    ExplorationSettings,
    ProcessPoolBackend,
    SerialBackend,
    canonical_point_key,
    explore,
    make_backend,
)
from repro.core.search import RandomSearch, SearchBudget
from repro.core.space import compact_parameter_space, smoke_parameter_space
from repro.core.strategies import NSGA2Search
from repro.workloads.easyport import EasyportWorkload
from repro.workloads.synthetic import FixedSizesWorkload


@pytest.fixture(scope="module")
def small_trace():
    return EasyportWorkload(packets=150).generate(seed=5)


@pytest.fixture(scope="module")
def pool_backend():
    backend = ProcessPoolBackend(jobs=4)
    yield backend
    backend.close()


def database_bytes(database, tmp_path, name):
    path = tmp_path / name
    database.to_json(path)
    return path.read_bytes()


def pareto_ids(database):
    return [record.configuration_id for record in database.pareto_records()]


class TestBackendSelection:
    def test_make_backend_serial(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)

    def test_make_backend_pool(self):
        backend = make_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3
        backend.close()

    def test_make_backend_zero_means_all_cores(self):
        import os

        backend = make_backend(0)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == (os.cpu_count() or 1)
        backend.close()

    def test_make_backend_negative_rejected(self):
        with pytest.raises(ValueError):
            make_backend(-2)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=0)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=2, chunk_size=0)

    def test_backends_satisfy_protocol(self):
        from repro.core.exploration import EvaluationBackend

        assert isinstance(SerialBackend(), EvaluationBackend)
        assert isinstance(ProcessPoolBackend(jobs=2), EvaluationBackend)


class TestSerialParallelEquivalence:
    def test_exhaustive_databases_byte_identical(self, small_trace, tmp_path, pool_backend):
        serial = ExplorationEngine(smoke_parameter_space(), small_trace).explore()
        parallel = ExplorationEngine(
            smoke_parameter_space(), small_trace, backend=pool_backend
        ).explore()
        assert database_bytes(serial, tmp_path, "serial.json") == database_bytes(
            parallel, tmp_path, "parallel.json"
        )
        assert pareto_ids(serial) == pareto_ids(parallel)

    def test_sampled_exploration_identical(self, small_trace, tmp_path, pool_backend):
        settings = ExplorationSettings(sample=5, sample_seed=11)
        serial = ExplorationEngine(
            smoke_parameter_space(), small_trace, settings=settings
        ).explore()
        parallel = ExplorationEngine(
            smoke_parameter_space(), small_trace, settings=settings, backend=pool_backend
        ).explore()
        assert database_bytes(serial, tmp_path, "s.json") == database_bytes(
            parallel, tmp_path, "p.json"
        )

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda engine: RandomSearch(engine, SearchBudget(evaluations=12, seed=7)),
            lambda engine: NSGA2Search(engine, SearchBudget(evaluations=12, seed=7)),
        ],
        ids=["random", "nsga2"],
    )
    def test_search_trajectories_identical(
        self, small_trace, tmp_path, pool_backend, strategy_factory
    ):
        serial_engine = ExplorationEngine(compact_parameter_space(), small_trace)
        serial = strategy_factory(serial_engine).run()
        parallel_engine = ExplorationEngine(
            compact_parameter_space(), small_trace, backend=pool_backend
        )
        parallel = strategy_factory(parallel_engine).run()
        assert database_bytes(serial, tmp_path, "s.json") == database_bytes(
            parallel, tmp_path, "p.json"
        )
        assert pareto_ids(serial) == pareto_ids(parallel)

    def test_progress_callback_with_parallel_backend(self, small_trace, pool_backend):
        calls = []
        engine = ExplorationEngine(
            smoke_parameter_space(),
            small_trace,
            backend=pool_backend,
            progress_callback=lambda done, total: calls.append((done, total)),
        )
        engine.explore()
        assert calls[-1] == (smoke_parameter_space().size(), smoke_parameter_space().size())

    def test_explore_helper_with_jobs(self, small_trace):
        serial = explore(smoke_parameter_space(), small_trace)
        parallel = explore(smoke_parameter_space(), small_trace, jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics

    def test_engine_mutation_between_batches_reaches_workers(self, small_trace):
        """Mutating engine state in place between batches must re-snapshot
        the workers: parallel results track the mutation exactly like serial
        ones, instead of profiling against a stale pickled engine."""

        def run(backend):
            engine = ExplorationEngine(
                smoke_parameter_space(), small_trace, backend=backend
            )
            items = [(engine.space.point_at(i), f"a{i}") for i in range(4)]
            first = engine.evaluate_points(items)
            engine.hot_sizes = engine.hot_sizes[:2]  # in-place state change
            engine.clear_cache()  # force re-evaluation of the same points
            second = engine.evaluate_points(items)
            return [record.metrics for record in first + second]

        serial_metrics = run(SerialBackend())
        pool = ProcessPoolBackend(jobs=2)
        try:
            parallel_metrics = run(pool)
        finally:
            pool.close()
        assert serial_metrics == parallel_metrics

    def test_pool_of_one_job_falls_back_to_in_process(self, small_trace):
        backend = ProcessPoolBackend(jobs=1)
        engine = ExplorationEngine(smoke_parameter_space(), small_trace, backend=backend)
        database = engine.explore()
        assert len(database) == smoke_parameter_space().size()
        assert backend._pool is None  # never forked workers
        backend.close()


class TestMemoisationCache:
    def test_repeat_evaluation_hits_cache(self, small_trace):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        point = engine.space.point_at(0)
        first = engine.evaluate_point(point, "a")
        second = engine.evaluate_point(point, "b")
        assert engine.cache_misses == 1
        assert engine.cache_hits == 1
        assert engine.cached_point_count == 1
        assert first.metrics == second.metrics

    def test_cache_hits_honour_the_submitted_label(self, small_trace):
        """A later caller must not record a point under the first caller's
        label (e.g. a random-search record tagged ``nsga2_...``)."""
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        point = engine.space.point_at(0)
        first = engine.evaluate_point(point, "nsga2_000000")
        second = engine.evaluate_point(point, "random_000000")
        unlabelled = engine.evaluate_point(point)
        assert first.configuration_id == "nsga2_000000"
        assert second.configuration_id == "random_000000"
        assert unlabelled.configuration_id == "nsga2_000000"  # cached label kept
        assert first.metrics == second.metrics

    def test_key_order_does_not_matter(self, small_trace):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        point = engine.space.point_at(1)
        reversed_point = dict(reversed(list(point.items())))
        assert canonical_point_key(point) == canonical_point_key(reversed_point)
        engine.evaluate_point(point)
        engine.evaluate_point(reversed_point)
        assert engine.cache_hits == 1

    def test_duplicates_within_batch_profiled_once(self, small_trace):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        point = engine.space.point_at(2)
        records = engine.evaluate_points([(point, "x"), (point, "y"), (point, "z")])
        assert engine.cache_misses == 1
        assert engine.cache_hits == 2
        assert len({id(record) for record in records}) == 3  # distinct objects
        assert records[0].metrics == records[1].metrics == records[2].metrics

    def test_cached_records_are_copies(self, small_trace):
        """Adding a cached record to a second database must not clobber the
        index it got in the first."""
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        point = engine.space.point_at(0)
        from repro.core.results import ResultDatabase

        first_db, second_db = ResultDatabase("a"), ResultDatabase("b")
        first_db.add(engine.evaluate_point(point))
        second_db.add(engine.evaluate_point(engine.space.point_at(1)))
        second_db.add(engine.evaluate_point(point))
        assert first_db[0].index == 0
        assert second_db[1].index == 1

    def test_no_stale_results_when_trace_differs(self):
        """The cache is engine-scoped, and engines are trace-scoped: the same
        point on a different trace must be re-profiled, not served stale."""
        point = smoke_parameter_space().point_at(0)
        trace_a = FixedSizesWorkload(sizes=[64], operations=300).generate(seed=2)
        trace_b = FixedSizesWorkload(sizes=[640], operations=500).generate(seed=2)
        engine_a = ExplorationEngine(smoke_parameter_space(), trace_a)
        engine_b = ExplorationEngine(smoke_parameter_space(), trace_b)
        record_a = engine_a.evaluate_point(point)
        record_b = engine_b.evaluate_point(point)
        assert engine_b.cache_hits == 0  # nothing leaked across engines
        assert record_a.metrics != record_b.metrics
        assert record_a.metrics == engine_a.evaluate_point(point).metrics

    def test_clear_cache(self, small_trace):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        engine.evaluate_point(engine.space.point_at(0))
        engine.clear_cache()
        assert engine.cached_point_count == 0
        assert engine.cache_hits == 0 and engine.cache_misses == 0
        engine.evaluate_point(engine.space.point_at(0))
        assert engine.cache_misses == 1

    def test_search_revisits_do_not_reprofile(self, small_trace):
        """An NSGA-II run on the 8-point smoke space must revisit points; every
        revisit must be a cache hit, and the database must record the split."""
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        database = NSGA2Search(engine, SearchBudget(evaluations=8, seed=3)).run()
        assert engine.cache_misses <= smoke_parameter_space().size()
        assert database.cache_misses == engine.cache_misses
        assert database.cache_hits == engine.cache_hits
        assert database.cache_hits > 0  # offspring of an 8-point space must revisit

    def test_cache_counters_survive_json_round_trip(self, small_trace, tmp_path):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        database = NSGA2Search(engine, SearchBudget(evaluations=8, seed=3)).run()
        path = tmp_path / "db.json"
        database.to_json(path)
        from repro.core.results import ResultDatabase

        loaded = ResultDatabase.from_json(path)
        assert loaded.cache_hits == database.cache_hits
        assert loaded.cache_misses == database.cache_misses
        assert "cache" in database.summary()

    def test_summary_counts_engine_misses(self, small_trace):
        database = ExplorationEngine(smoke_parameter_space(), small_trace).explore()
        assert database.summary()["cache"] == {
            "hits": 0,
            "misses": smoke_parameter_space().size(),
        }

    def test_summary_omits_cache_for_hand_built_databases(self, small_trace):
        from repro.core.results import ResultDatabase

        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        database = ResultDatabase("manual")
        database.add(engine.run_point(engine.space.point_at(0)))
        assert "cache" not in database.summary()


class TestSeedDeterminismAcrossStrategies:
    def test_strategies_own_their_rng(self, small_trace):
        """Two interleaved strategies must not perturb each other's streams."""
        engine = ExplorationEngine(compact_parameter_space(), small_trace)
        alone = RandomSearch(engine, SearchBudget(evaluations=6, seed=9))
        alone_points = [alone._random_point() for _ in range(6)]

        first = RandomSearch(engine, SearchBudget(evaluations=6, seed=9))
        second = RandomSearch(engine, SearchBudget(evaluations=6, seed=1234))
        interleaved = []
        for _ in range(6):
            interleaved.append(first._random_point())
            second._random_point()
        assert interleaved == alone_points


class TestRegistryStrategiesBackendIdentity:
    """Every strategy reachable through the registry — including the
    retired names, which run NSGA-II — must produce a byte-identical
    database serially, under a process pool, and across repeat runs with
    the same seed."""

    # Small per-strategy params so each run fits a 12-evaluation budget and
    # still exercises the model-guided phases (TPE densities, NSGA-II
    # generations); the retired names take a budget only.
    PARAMS = {
        "exhaustive": {},
        "random": {},
        "hillclimb": {},
        "evolutionary": {"population": 4, "offspring": 4},
        "nsga2": {"population": 4, "offspring": 4},
        "tpe": {"startup": 4, "batch": 4, "candidates": 16},
        "surrogate": {},
    }

    def _run(self, name, trace, backend=None):
        from repro.api import registry

        entry = registry.strategies.get(name)
        space = (
            smoke_parameter_space() if name == "exhaustive" else compact_parameter_space()
        )
        engine = ExplorationEngine(space, trace, backend=backend)
        kwargs = dict(self.PARAMS[name])
        if name != "exhaustive":
            kwargs["budget"] = 12
        return entry.factory(engine, seed=7, **kwargs)

    def test_every_registered_strategy_is_covered(self):
        from repro.api import registry

        assert sorted(self.PARAMS) == registry.strategies.names()

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_serial_pool_and_repeat_runs_byte_identical(
        self, name, small_trace, tmp_path, pool_backend
    ):
        serial = self._run(name, small_trace)
        repeat = self._run(name, small_trace)
        pooled = self._run(name, small_trace, backend=pool_backend)
        reference = database_bytes(serial, tmp_path, "serial.json")
        assert reference == database_bytes(repeat, tmp_path, "repeat.json")
        assert reference == database_bytes(pooled, tmp_path, "pool.json")
        assert pareto_ids(serial) == pareto_ids(pooled)
        assert len(serial) > 0


class TestWorkerPayloads:
    """The process-pool backend must ship O(points) per chunk, not O(trace).

    The engine state travels once per worker through the pool initializer,
    split into an engine-sans-trace payload (flat in the trace size) and the
    compiled columnar trace (a few bytes per event when a spawned worker
    unpickles it).  Chunk items stay (point, label) tuples whatever the
    workload.
    """

    def engine_for(self, packets):
        trace = EasyportWorkload(packets=packets).generate(seed=5)
        return ExplorationEngine(smoke_parameter_space(), trace)

    def test_engine_payload_flat_in_trace_size(self):
        import pickle

        backend = ProcessPoolBackend(jobs=2)
        small = self.engine_for(50)
        big = self.engine_for(2000)
        small_payload = backend._engine_payload(small)
        big_payload = backend._engine_payload(big)
        assert len(big.trace) > 10 * len(small.trace)
        # Engine payload no longer embeds the events: growing the trace by
        # an order of magnitude must not move it by more than a few hundred
        # bytes (hot sizes/fingerprint strings may differ slightly).
        assert abs(len(big_payload) - len(small_payload)) < 512
        # The trace ships in columnar form: small per-event cost, and far
        # below the event-object pickle the initializer used to receive.
        event_payload = pickle.dumps(
            big.trace.events, protocol=pickle.HIGHEST_PROTOCOL
        )
        compiled_payload = pickle.dumps(
            big.trace.compiled(), protocol=pickle.HIGHEST_PROTOCOL
        )
        assert len(compiled_payload) < len(event_payload) / 2

    def test_chunk_items_are_o_points(self):
        import pickle

        engine = self.engine_for(2000)
        items = [
            (point, f"cfg{index:05d}")
            for index, point in enumerate(engine.space.points())
        ]
        chunk_payload = pickle.dumps(items[:4], protocol=pickle.HIGHEST_PROTOCOL)
        # Four points must cost well under a kilobyte — nothing trace-sized
        # rides along with a chunk.
        assert len(chunk_payload) < 1024

    def test_worker_reconstructs_equivalent_records(self, small_trace, pool_backend):
        """End-to-end: records computed in workers match in-process ones."""
        serial = ExplorationEngine(smoke_parameter_space(), small_trace)
        parallel = ExplorationEngine(
            smoke_parameter_space(), small_trace, backend=pool_backend
        )
        items = [
            (point, f"cfg{index:05d}")
            for index, point in enumerate(smoke_parameter_space().points())
        ][:6]
        assert [record.metrics for record in serial.evaluate_points(items)] == [
            record.metrics for record in parallel.evaluate_points(items)
        ]

    def test_trace_mutation_rebuilds_the_pool(self):
        """Appending to the live trace must reach the workers.

        The next pooled batch after a mutation must match a serial engine
        over the mutated trace, on a freshly built pool.
        """
        from repro.profiling.events import alloc

        trace = EasyportWorkload(packets=150).generate(seed=5)
        backend = ProcessPoolBackend(jobs=2, serial_threshold=0)
        pooled = ExplorationEngine(smoke_parameter_space(), trace, backend=backend)
        items = [
            (point, f"cfg{index:05d}")
            for index, point in enumerate(smoke_parameter_space().points())
        ]
        try:
            before = backend.evaluate(pooled, items)
            first_pool = backend._pool
            assert first_pool is not None
            # An allocation larger than any pool forces a different outcome.
            trace.append(alloc(10**6, 1 << 20, 10**6))
            got = backend.evaluate(pooled, items)
            assert backend._pool is not None and backend._pool is not first_pool
        finally:
            backend.close()
        serial = ExplorationEngine(
            smoke_parameter_space(), trace, hot_sizes=pooled.hot_sizes
        )
        want = [record.as_dict() for record in serial.run_points(items)]
        assert [record.as_dict() for record in got] == want
        assert [record.as_dict() for record in before] != want
