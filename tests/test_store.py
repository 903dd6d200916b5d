"""Unit tests for the persistent result store (repro.core.store.ResultStore).

Covers the L1/L2 cache layering of the exploration engine, the incremental
("warm store") acceptance criterion — a second run over the same trace
performs zero fresh profiler evaluations — recovery from corrupt or
partially written store files, and concurrent-writer safety (parallel
shards on one host sharing a single store file).
"""

import json
import multiprocessing

import pytest

from repro.core.exploration import ExplorationEngine, ExplorationSettings
from repro.core.space import smoke_parameter_space
from repro.core.store import (
    METRIC_VERSION,
    ResultStore,
    StoreError,
    default_store_path,
)
from repro.workloads.synthetic import FixedSizesWorkload, UniformRandomWorkload


@pytest.fixture(scope="module")
def small_trace():
    return UniformRandomWorkload(operations=300).generate(seed=7)


def make_engine(trace, store):
    return ExplorationEngine(smoke_parameter_space(), trace, store=store)


class TestResultStore:
    def test_starts_empty(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert len(store) == 0
        assert store.loaded == 0
        assert store.corrupt_entries == 0

    def test_put_get_round_trip(self, tmp_path, small_trace):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(0)
        record = engine.run_point(point, label="cfg00000")
        assert store.put("fp", point, record) is True
        assert store.put("fp", point, record) is False  # already present
        fetched = store.get("fp", point)
        assert fetched is not None
        assert fetched.metrics == record.metrics
        assert fetched.configuration.label == record.configuration.label
        assert store.hits == 1

    def test_get_returns_fresh_objects(self, tmp_path, small_trace):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(0)
        store.put("fp", point, engine.run_point(point))
        first = store.get("fp", point)
        second = store.get("fp", point)
        assert first is not second
        first.index = 99
        assert second.index != 99

    def test_point_key_is_order_insensitive(self, tmp_path, small_trace):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(0)
        store.put("fp", point, engine.run_point(point))
        shuffled = dict(reversed(list(point.items())))
        assert store.get("fp", shuffled) is not None

    def test_fingerprint_isolates_entries(self, tmp_path, small_trace):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(0)
        store.put("fp-a", point, engine.run_point(point))
        assert store.get("fp-b", point) is None
        assert store.misses == 1

    def test_metric_version_isolates_entries(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(0)
        old = ResultStore(path, metric_version=METRIC_VERSION)
        old.put("fp", point, engine.run_point(point))
        old.close()
        bumped = ResultStore(path, metric_version=METRIC_VERSION + 1)
        assert bumped.get("fp", point) is None
        # The stale entry is still on disk (rolling back revalidates it).
        assert bumped.loaded == 1

    def test_reload_across_processes(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(1)
        with ResultStore(path) as writer:
            writer.put("fp", point, engine.run_point(point))
        reader = ResultStore(path)
        assert reader.loaded == 1
        assert reader.get("fp", point) is not None

    def test_directory_path_is_an_error(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(tmp_path)

    def test_default_store_path_respects_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = default_store_path()
        assert str(path).startswith(str(tmp_path))
        assert path.name == "results.jsonl"


class TestCorruptionRecovery:
    def put_one(self, path, trace, point_index=0):
        engine = make_engine(trace, store=None)
        point = engine.space.point_at(point_index)
        with ResultStore(path) as store:
            store.put("fp", point, engine.run_point(point))
        return point

    def test_truncated_trailing_line_is_skipped(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        first = self.put_one(path, small_trace, point_index=0)
        second = self.put_one(path, small_trace, point_index=1)
        # Simulate a writer killed mid-append: chop the last line in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(raw.splitlines(keepends=True)[-1]) // 2 - 1])
        store = ResultStore(path)
        assert store.corrupt_entries == 1
        assert store.loaded == 1
        assert store.get("fp", first) is not None
        assert store.get("fp", second) is None

    def test_garbage_lines_are_skipped(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        point = self.put_one(path, small_trace)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"json": "but wrong shape"}\n')
            handle.write('{"fingerprint": "fp", "point": {}, "metric_version": 1, "record": {"bad": 1}}\n')
        store = ResultStore(path)
        assert store.corrupt_entries == 3
        assert store.loaded == 1
        assert store.get("fp", point) is not None

    def test_appends_after_partial_write_start_on_fresh_line(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        point = self.put_one(path, small_trace, point_index=0)
        # Leave a truncated, newline-less tail behind.
        raw = path.read_bytes()
        path.write_bytes(raw + b'{"fingerprint": "fp", "poi')
        engine = make_engine(small_trace, store=None)
        other = engine.space.point_at(1)
        with ResultStore(path) as store:
            assert store.corrupt_entries == 1
            store.put("fp", other, engine.run_point(other))
        reopened = ResultStore(path)
        assert reopened.corrupt_entries == 1  # the old tail, still skipped
        assert reopened.get("fp", point) is not None
        assert reopened.get("fp", other) is not None

    def test_last_write_wins_on_duplicate_keys(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(0)
        record = engine.run_point(point, label="first")
        with ResultStore(path) as store:
            store.put("fp", point, record)
        # A second writer (e.g. after a metric recalibration under the same
        # version) appends the same key again.
        entry = {
            "fingerprint": "fp",
            "point": point,
            "metric_version": METRIC_VERSION,
            "record": engine.run_point(point, label="second").as_dict(),
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        store = ResultStore(path)
        assert store.get("fp", point).configuration.label == "second"


def _append_worker(path, worker, entries, barrier):
    """Subprocess body: hammer one shared store file with appends."""
    trace = UniformRandomWorkload(operations=300).generate(seed=7)
    engine = ExplorationEngine(smoke_parameter_space(), trace)
    record = engine.run_point(engine.space.point_at(0), label=f"worker{worker}")
    with ResultStore(path) as store:
        barrier.wait()  # maximise interleaving: everyone appends at once
        for index in range(entries):
            # Distinct fingerprints -> every append is a distinct key.
            store.put(f"worker{worker}-fp{index}", {"i": index}, record)


class TestConcurrentWriters:
    def test_parallel_processes_share_one_store_file(self, tmp_path):
        """Acceptance (concurrent-writer safety): N processes append to one
        store file simultaneously; every entry survives, none is torn."""
        path = tmp_path / "shared.jsonl"
        workers, entries = 4, 25
        context = multiprocessing.get_context()
        barrier = context.Barrier(workers)
        processes = [
            context.Process(
                target=_append_worker, args=(str(path), worker, entries, barrier)
            )
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        store = ResultStore(path)
        assert store.corrupt_entries == 0
        assert store.loaded == workers * entries
        for worker in range(workers):
            for index in range(entries):
                assert store.get(f"worker{worker}-fp{index}", {"i": index}) is not None

    def test_racing_writers_of_the_same_key_keep_the_store_loadable(self, tmp_path, small_trace):
        # Two handles that both believe the key is absent (the in-memory
        # view is per-process) append the same key; last write wins.
        path = tmp_path / "store.jsonl"
        engine = make_engine(small_trace, store=None)
        point = engine.space.point_at(0)
        first = ResultStore(path)
        second = ResultStore(path)
        assert first.put("fp", point, engine.run_point(point, label="first"))
        assert second.put("fp", point, engine.run_point(point, label="second"))
        first.close()
        second.close()
        reopened = ResultStore(path)
        assert reopened.corrupt_entries == 0
        assert reopened.get("fp", point).configuration.label == "second"


class TestEngineStoreIntegration:
    def test_cold_run_populates_store(self, tmp_path, small_trace):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = make_engine(small_trace, store=store)
        database = engine.explore()
        assert database.cache_misses == len(database)
        assert database.store_hits == 0
        assert database.store_misses == len(database)
        assert len(store) == len(database)

    def test_second_run_profiles_nothing(self, tmp_path, small_trace):
        """Acceptance: a warm store answers every point, zero fresh profiles."""
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            first = make_engine(small_trace, store=store).explore()
        with ResultStore(path) as store:
            engine = make_engine(small_trace, store=store)
            second = engine.explore()
            assert engine.cache_misses == 0  # zero fresh profiler evaluations
        assert second.cache_misses == 0
        assert second.store_hits == len(second)
        assert second.store_loaded == len(first)
        # Same records, same Pareto front.
        for a, b in zip(first, second):
            assert a.metrics == b.metrics
            assert a.configuration_id == b.configuration_id
        assert [r.configuration_id for r in first.pareto_records()] == [
            r.configuration_id for r in second.pareto_records()
        ]

    def test_l1_cache_shields_the_store(self, tmp_path, small_trace):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = make_engine(small_trace, store=store)
        point = engine.space.point_at(0)
        engine.evaluate_point(point)
        hits_before = store.hits
        engine.evaluate_point(point)  # answered by L1, store untouched
        assert store.hits == hits_before
        assert engine.cache_hits == 1

    def test_store_hits_do_not_count_as_profiled(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            make_engine(small_trace, store=store).explore()
        with ResultStore(path) as store:
            engine = make_engine(small_trace, store=store)
            database = engine.explore()
        summary = database.summary()
        assert summary["store"] == {
            "hits": len(database),
            "misses": 0,
            "loaded": len(database),
        }
        assert "cache" not in summary  # nothing profiled, nothing L1-answered

    def test_different_trace_misses_the_store(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            make_engine(small_trace, store=store).explore()
        other_trace = FixedSizesWorkload().generate(seed=7)
        with ResultStore(path) as store:
            engine = make_engine(other_trace, store=store)
            database = engine.explore()
        assert database.store_hits == 0
        assert database.cache_misses == len(database)

    def test_store_survives_pickling_the_engine(self, tmp_path, small_trace):
        import pickle

        store = ResultStore(tmp_path / "store.jsonl")
        engine = make_engine(small_trace, store=store)
        engine.evaluate_point(engine.space.point_at(0))
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.store is None  # workers never ship the store handle
        assert engine.store is store

    def test_settings_change_changes_fingerprint(self, small_trace):
        engine = make_engine(small_trace, store=None)
        other = ExplorationEngine(
            smoke_parameter_space(),
            small_trace,
            settings=ExplorationSettings(payload_access_factor=3.0),
        )
        assert engine.fingerprint != other.fingerprint

    def test_trace_rename_keeps_fingerprint(self, small_trace):
        renamed = UniformRandomWorkload(operations=300).generate(seed=7)
        renamed.name = "renamed"
        a = make_engine(small_trace, store=None)
        b = make_engine(renamed, store=None)
        assert a.fingerprint == b.fingerprint
