"""Byte-identity of the batch replay engine against both replay oracles.

The batch kernel (:class:`repro.profiling.batch.BatchReplayEngine`) scores
many configurations off shared pool-group simulations; its contract is that
every :class:`~repro.profiling.metrics.ProfileResult` is *exactly* what the
single fast replay — and through ``tests/test_replay_identity.py``'s own
contract, the legacy event loop — would have produced.  This file holds the
kernel to that across every standard space and workload, through the
exploration engine and both backends, for dedicated pools that spill to the
general pool on OOM, for policy tuples keyed by behaviour, and
for the process pool under both transports of its compiled trace: forked
workers inherit the parent's object, spawned workers unpickle it.
"""

import itertools
import json
from dataclasses import replace

import pytest

from repro.allocator.coalescing import COALESCING_POLICIES
from repro.allocator.errors import OutOfMemoryError
from repro.allocator.fit import FIT_POLICIES
from repro.allocator.freelist import FREE_LIST_POLICIES
from repro.allocator.splitting import SPLITTING_POLICIES
from repro.core.configuration import configuration_from_point
from repro.core.exploration import (
    ExplorationEngine,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.core.factory import AllocatorFactory
from repro.core.space import STANDARD_SPACES
from repro.core.store import ResultStore
from repro.memhier.hierarchy import embedded_two_level
from repro.profiling.batch import BatchReplayEngine
from repro.profiling.profiler import Profiler
from repro.workloads.easyport import EasyportWorkload
from repro.workloads.synthetic import PhasedWorkload, UniformRandomWorkload
from repro.workloads.vtc import VTCWorkload

from benchmarks._oracle import replay_event_loop

#: Points sampled per parameter space for the cross-space sweep.
POINTS_PER_SPACE = 4

WORKLOADS = {
    "easyport": lambda: EasyportWorkload(packets=120).generate(seed=7),
    "vtc": lambda: VTCWorkload(image_width=24, image_height=24).generate(seed=7),
    "uniform": lambda: UniformRandomWorkload(operations=400).generate(seed=7),
    "phased": lambda: PhasedWorkload().generate(seed=7),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_trace(request):
    return request.param, WORKLOADS[request.param]()


def result_bytes(result):
    return json.dumps(result.as_dict(), sort_keys=True, default=repr).encode()


def single_replay(trace, configuration, hierarchy, fast=True):
    """One configuration's single replay: the fast kernel, or with
    ``fast=False`` the event-loop oracle."""
    factory = AllocatorFactory(hierarchy)
    built = factory.build(configuration)
    profiler = Profiler(built.mapping)
    if not fast:
        return replay_event_loop(
            profiler, built.allocator, trace, configuration.configuration_id
        )[0]
    return profiler.run(built.allocator, trace, configuration.configuration_id)


def configuration_of(trace, point, hierarchy, label=""):
    return configuration_from_point(
        point,
        hot_sizes=trace.hot_sizes(top=8),
        scratchpad_module=hierarchy.fastest.name,
        main_module=hierarchy.background_module.name,
        label=label,
    )


class TestKernelIdentityAcrossSpaces:
    """BatchReplayEngine vs the single fast replay, every space × workload."""

    @pytest.mark.parametrize("space_name", sorted(STANDARD_SPACES))
    def test_batch_matches_fast_replay(self, space_name, workload_trace):
        _name, trace = workload_trace
        hierarchy = embedded_two_level()
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy))
        space = STANDARD_SPACES[space_name]()
        for index, point in enumerate(space.sample(POINTS_PER_SPACE, seed=11)):
            configuration = configuration_of(trace, point, hierarchy, f"p{index}")
            batch = engine.run_configuration(configuration)
            fast = single_replay(trace, configuration, hierarchy)
            assert result_bytes(batch) == result_bytes(fast)
        assert engine.batched_configurations > 0

    def test_batch_matches_legacy_loop(self, workload_trace):
        """The legacy event loop is the executable specification."""
        _name, trace = workload_trace
        hierarchy = embedded_two_level()
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy))
        space = STANDARD_SPACES["smoke"]()
        for index, point in enumerate(space.points()):
            configuration = configuration_of(trace, point, hierarchy, f"s{index}")
            batch = engine.run_configuration(configuration)
            legacy = single_replay(trace, configuration, hierarchy, fast=False)
            assert result_bytes(batch) == result_bytes(legacy)


class TestKernelIdentityAcrossPolicies:
    """Every general-pool policy combination through the flat kernel."""

    def test_all_policy_combinations(self):
        trace = UniformRandomWorkload(operations=400).generate(seed=3)
        hierarchy = embedded_two_level()
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy))
        count = 0
        for free_list in sorted(FREE_LIST_POLICIES):
            for fit in sorted(FIT_POLICIES):
                for coalescing in sorted(COALESCING_POLICIES):
                    for splitting in sorted(SPLITTING_POLICIES):
                        point = {
                            "num_dedicated_pools": 0,
                            "general_free_list": free_list,
                            "general_fit": fit,
                            "general_coalescing": coalescing,
                            "general_splitting": splitting,
                            "chunk_size": 2048,
                        }
                        configuration = configuration_of(
                            trace, point, hierarchy, f"c{count}"
                        )
                        batch = engine.run_configuration(configuration)
                        fast = single_replay(trace, configuration, hierarchy)
                        assert result_bytes(batch) == result_bytes(fast), point
                        count += 1
        assert engine.fallback_configurations == 0


class TestOOMSpill:
    """A dedicated pool's OOM spill joins the general stream in the kernel."""

    def check(self, trace, hierarchy, points, tag, legacy=True):
        """Every point matches the oracles; returns the engine."""
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy))
        for index, point in enumerate(points):
            configuration = configuration_of(trace, point, hierarchy, f"{tag}{index}")
            batch = engine.run_configuration(configuration)
            fast = single_replay(trace, configuration, hierarchy)
            assert result_bytes(batch) == result_bytes(fast), point
            assert set(batch.per_pool["__profile__"]) == {"oom_failures"}
            if legacy:
                slow = single_replay(trace, configuration, hierarchy, fast=False)
                assert result_bytes(batch) == result_bytes(slow), point
        assert engine.fallback_configurations == 0
        return engine

    @staticmethod
    def spilling_groups(engine):
        return [
            key for key, group in engine._dedicated_cache.items() if group.spilled
        ]

    def test_spilled_groups_match_both_oracles(self):
        trace = EasyportWorkload(packets=400).generate(seed=7)
        # Scratchpad small enough that dedicated pools overflow mid-trace
        # and spill to the general pool.
        hierarchy = embedded_two_level(scratchpad_size=2048, main_size=16384)
        space = STANDARD_SPACES["default"]()
        engine = self.check(trace, hierarchy, space.sample(6, seed=2), "o")
        assert self.spilling_groups(engine), "no dedicated pool ever spilled"

    def test_slab_pool_spills(self):
        trace = EasyportWorkload(packets=400).generate(seed=7)
        hierarchy = embedded_two_level(scratchpad_size=4096, main_size=None)
        points = [
            {
                "num_dedicated_pools": pools,
                "dedicated_pool_kind": "slab",
                "general_free_list": free_list,
                "general_fit": "first_fit",
                "general_coalescing": "immediate",
                "general_splitting": "always",
                "chunk_size": 1024,
            }
            for pools in (1, 2, 4)
            for free_list in ("lifo", "address_ordered")
        ]
        engine = self.check(trace, hierarchy, points, "slab")
        assert any(key[0] == "slab" for key in self.spilling_groups(engine))

    def test_spill_that_also_runs_out_of_main_memory(self):
        trace = EasyportWorkload(packets=400).generate(seed=7)
        hierarchy = embedded_two_level(scratchpad_size=2048, main_size=6144)
        space = STANDARD_SPACES["default"]()
        points = space.sample(12, seed=2)
        engine = self.check(trace, hierarchy, points, "m")
        assert self.spilling_groups(engine)
        refused_twice = sum(
            refused_by_every_pool(
                trace, configuration_of(trace, point, hierarchy), hierarchy
            )
            for point in points
        )
        assert refused_twice > 0, "no spilled allocation ran out of main memory"

    def test_vtc_space_on_vtc_trace(self):
        trace = VTCWorkload(image_width=128, image_height=128).generate(seed=7)
        hierarchy = embedded_two_level()
        space = STANDARD_SPACES["vtc"]()
        engine = self.check(trace, hierarchy, space.sample(12, seed=5), "v", legacy=False)
        assert self.spilling_groups(engine)


class TestWindowBoundaries:
    """The engine's window boundaries: what it accepts, and the configurations
    it cannot window.  ``tests/test_kernel_oracle.py`` holds every window's
    result to the event-loop replay of its prefix."""

    def setup(self):
        trace = EasyportWorkload(packets=40).generate(seed=1)
        hierarchy = embedded_two_level()
        point = STANDARD_SPACES["smoke"]().sample(1, seed=0)[0]
        return trace, hierarchy, configuration_of(trace, point, hierarchy, "w")

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(lambda n: [], id="empty"),
            pytest.param(lambda n: [n // 2], id="short-of-the-trace"),
            pytest.param(lambda n: [n // 2, n + 1], id="past-the-trace"),
            pytest.param(lambda n: [n // 2, n // 2, n], id="repeated"),
            pytest.param(lambda n: [n // 2, n // 4, n], id="descending"),
        ],
    )
    def test_boundaries_must_ascend_to_the_trace_length(self, cut):
        trace, hierarchy, _configuration = self.setup()
        with pytest.raises(ValueError, match="must ascend to the trace length"):
            BatchReplayEngine(trace, AllocatorFactory(hierarchy), boundaries=cut(len(trace)))

    def test_default_is_one_window_over_the_whole_trace(self):
        trace, hierarchy, configuration = self.setup()
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy))
        assert engine.boundaries == [len(trace)]
        (whole,) = engine.run_windows(configuration)
        assert "__profile__" in whole.per_pool
        assert result_bytes(whole) == result_bytes(
            single_replay(trace, configuration, hierarchy)
        )

    def test_only_the_last_window_carries_the_profile(self):
        trace, hierarchy, configuration = self.setup()
        boundaries = [len(trace) // 3, 2 * len(trace) // 3, len(trace)]
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy), boundaries=boundaries)
        results = engine.run_windows(configuration)
        assert [result.operation_count for result in results] == boundaries
        assert ["__profile__" in result.per_pool for result in results] == [
            False, False, True,
        ]
        assert result_bytes(results[-1]) == result_bytes(
            single_replay(trace, configuration, hierarchy)
        )
        assert engine.fallback_configurations == 0

    def test_refused_configuration_cannot_be_windowed(self):
        """A configuration ``_plan`` refuses takes a single replay when there
        is one window, and raises, naming it, when there are more."""
        trace, hierarchy, configuration = self.setup()
        configuration.pools = configuration.pools[:-1] + [
            replace(configuration.pools[-1], kind="segregated")
        ]
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy))
        (whole,) = engine.run_windows(configuration)
        assert engine.fallback_configurations == 1
        assert result_bytes(whole) == result_bytes(
            single_replay(trace, configuration, hierarchy, fast=False)
        )
        windowed = BatchReplayEngine(
            trace, AllocatorFactory(hierarchy), boundaries=[len(trace) // 2, len(trace)]
        )
        with pytest.raises(ValueError, match=repr(configuration.configuration_id)):
            windowed.run_windows(configuration)


def refused_by_every_pool(trace, configuration, hierarchy):
    """Allocations of a dedicated size that no pool could serve (real pools)."""
    allocator = AllocatorFactory(hierarchy).build(configuration).allocator
    dedicated = {pool.block_size for pool in configuration.dedicated_pools}
    address_of = {}
    refused = 0
    for event in trace:
        if event.is_alloc:
            try:
                address_of[event.request_id] = allocator.malloc(event.size)
            except OutOfMemoryError:
                refused += event.size in dedicated
        else:
            address = address_of.pop(event.request_id, None)
            if address is not None:
                allocator.free(address)
    return refused


def behaviour_class(free_list, fit, coalescing, splitting):
    """The policy tuple a general group is keyed by (see ``_general_key``)."""
    if fit == "exact_fit":
        splitting = "never"
    elif fit == "best_fit" and free_list == "size_ordered":
        fit = "first_fit"
    return free_list, fit, coalescing, splitting


class TestBehaviourKeys:
    """Tuples keyed alike replay alike in the real ``GeneralPool``."""

    def replay(self, trace, free_list, fit, coalescing, splitting):
        hierarchy = embedded_two_level()
        point = {
            "num_dedicated_pools": 2,
            "general_free_list": free_list,
            "general_fit": fit,
            "general_coalescing": coalescing,
            "general_splitting": splitting,
            "chunk_size": 2048,
        }
        configuration = configuration_of(trace, point, hierarchy, "key")
        return result_bytes(single_replay(trace, configuration, hierarchy))

    @pytest.mark.parametrize("coalescing", sorted(COALESCING_POLICIES))
    @pytest.mark.parametrize("free_list", sorted(FREE_LIST_POLICIES))
    def test_exact_fit_ignores_splitting(self, workload_trace, free_list, coalescing):
        _name, trace = workload_trace
        results = {
            self.replay(trace, free_list, "exact_fit", coalescing, splitting)
            for splitting in SPLITTING_POLICIES
        }
        assert len(results) == 1

    @pytest.mark.parametrize("coalescing", sorted(COALESCING_POLICIES))
    @pytest.mark.parametrize("splitting", sorted(SPLITTING_POLICIES))
    def test_size_ordered_best_fit_is_first_fit(self, workload_trace, coalescing, splitting):
        _name, trace = workload_trace
        best = self.replay(trace, "size_ordered", "best_fit", coalescing, splitting)
        first = self.replay(trace, "size_ordered", "first_fit", coalescing, splitting)
        assert best == first

    def test_one_general_group_per_class(self):
        trace = UniformRandomWorkload(operations=400).generate(seed=3)
        hierarchy = embedded_two_level()
        engine = BatchReplayEngine(trace, AllocatorFactory(hierarchy))
        classes = set()
        for combination in itertools.product(
            sorted(FREE_LIST_POLICIES),
            sorted(FIT_POLICIES),
            sorted(COALESCING_POLICIES),
            sorted(SPLITTING_POLICIES),
        ):
            free_list, fit, coalescing, splitting = combination
            point = {
                "num_dedicated_pools": 0,
                "general_free_list": free_list,
                "general_fit": fit,
                "general_coalescing": coalescing,
                "general_splitting": splitting,
                "chunk_size": 2048,
            }
            engine.run_configuration(configuration_of(trace, point, hierarchy))
            classes.add(behaviour_class(*combination))
        unbounded = [key for key in engine._general_cache if len(key) == 7]
        assert len(unbounded) == len(classes) < 180


class PerPointEngine(ExplorationEngine):
    """An engine whose batches take one single replay per point."""

    def run_points(self, items):
        return [self.run_point(point, label=label) for point, label in items]


class TestEngineLevelIdentity:
    """Batch vs per-point replay through ExplorationEngine: same database."""

    def database_rows(self, database):
        return [
            (
                record.configuration.label,
                record.configuration.configuration_id,
                record.metrics.as_dict(),
                record.oom_failures,
            )
            for record in database.records
        ]

    def explore_with(self, trace, batched, store=None):
        engine_class = ExplorationEngine if batched else PerPointEngine
        engine = engine_class(STANDARD_SPACES["smoke"](), trace, store=store)
        try:
            rows = self.database_rows(engine.explore())
            # The batch kernel scored the batched run, and only that one.
            assert (engine._batch is not None) == batched
            return rows
        finally:
            engine.close()

    def test_database_identical(self, workload_trace):
        _name, trace = workload_trace
        assert self.explore_with(trace, True) == self.explore_with(trace, False)

    def test_store_entries_identical(self, workload_trace, tmp_path):
        _name, trace = workload_trace
        self.explore_with(trace, True, store=ResultStore(tmp_path / "batch.jsonl"))
        self.explore_with(trace, False, store=ResultStore(tmp_path / "point.jsonl"))

        def entries(path):
            return sorted(
                json.dumps({k: v for k, v in json.loads(line).items() if k != "at"},
                           sort_keys=True)
                for line in path.read_text().splitlines()
            )

        assert entries(tmp_path / "batch.jsonl") == entries(tmp_path / "point.jsonl")


class TestProcessPoolBatchDispatch:
    """Sub-batch dispatch, the spawn transport, serial threshold."""

    def test_pool_matches_serial(self):
        trace = EasyportWorkload(packets=150).generate(seed=5)
        space = STANDARD_SPACES["smoke"]()
        serial = ExplorationEngine(space, trace, backend=SerialBackend())
        backend = ProcessPoolBackend(jobs=2, serial_threshold=0)
        pooled = ExplorationEngine(space, trace, backend=backend)
        try:
            items = [(point, f"cfg{i:05d}") for i, point in enumerate(space.points())]
            want = serial.evaluate_points(items)
            got = pooled.evaluate_points(items)
            assert backend._pool is not None, "pool was never created"
            assert [result_record(r) for r in got] == [result_record(r) for r in want]
        finally:
            serial.close()
            pooled.close()

    def test_spawn_transport_matches_serial(self):
        """Spawned workers receive the compiled trace pickled in initargs.

        Runs in a child interpreter so its stderr can be checked: a trace
        transport that leaks OS resources makes ``multiprocessing`` print
        tracebacks at exit even when the records are right.
        """
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        import repro

        script = textwrap.dedent(
            """
            from repro.core.exploration import (
                ExplorationEngine, ProcessPoolBackend, SerialBackend,
            )
            from repro.core.space import STANDARD_SPACES
            from repro.workloads.easyport import EasyportWorkload

            def records(backend):
                space = STANDARD_SPACES["smoke"]()
                trace = EasyportWorkload(packets=4000).generate(seed=5)
                engine = ExplorationEngine(space, trace, backend=backend)
                items = [(p, f"cfg{i:05d}") for i, p in enumerate(space.points())]
                try:
                    return [r.as_dict() for r in engine.evaluate_points(items)]
                finally:
                    engine.close()

            if __name__ == "__main__":
                pool = ProcessPoolBackend(
                    jobs=2, start_method="spawn", serial_threshold=0
                )
                same = records(pool) == records(SerialBackend())
                print("equal" if same else "differ")
            """
        )
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "equal"
        assert "Traceback" not in completed.stderr, completed.stderr

    def test_small_batches_never_touch_the_pool(self):
        trace = EasyportWorkload(packets=150).generate(seed=5)
        space = STANDARD_SPACES["smoke"]()
        backend = ProcessPoolBackend(jobs=2)  # serial_threshold defaults to 8
        engine = ExplorationEngine(space, trace, backend=backend)
        serial = ExplorationEngine(space, trace, backend=SerialBackend())
        try:
            items = [(point, f"cfg{i:05d}") for i, point in enumerate(space.points())]
            assert len(items) <= backend.serial_threshold
            got = engine.evaluate_points(items)
            want = serial.evaluate_points(items)
            assert backend._pool is None, "small batch spun up worker processes"
            assert [result_record(r) for r in got] == [result_record(r) for r in want]
        finally:
            engine.close()
            serial.close()

    def test_serial_threshold_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(jobs=2, serial_threshold=-1)


def result_record(record):
    return (
        record.configuration.label,
        record.configuration.configuration_id,
        record.metrics.as_dict(),
        record.oom_failures,
    )
