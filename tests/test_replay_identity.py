"""Byte-identity of the compiled fast replay path against the legacy path.

The legacy event loop is the executable specification.  The suites reach it
through :func:`benchmarks._oracle.event_loop`, a ``ComposedAllocator``
subclass the kernel does not take (``TestOracleRule`` holds that rule).  The
fast path must reproduce its :class:`~repro.profiling.metrics.ProfileResult`
*exactly* — every counter of every pool, every level breakdown, every metric
bit — across every standard parameter space and for OOM-skipping traces.
The allocator object the replay leaves
behind must match too (owner map, live tables, free lists, freed sets),
because engines reuse and inspect it.  All four replay paths (fast, event
loop, batch kernel, seed snapshot) write the same ``__profile__`` section.
"""

import json
from dataclasses import replace

import pytest

from repro.allocator.composed import ComposedAllocator
from repro.core.configuration import configuration_from_point
from repro.core.factory import AllocatorFactory
from repro.core.space import STANDARD_SPACES
from repro.memhier.hierarchy import embedded_two_level
from repro.profiling.batch import BatchReplayEngine
from repro.profiling.profiler import Profiler, SegmentReplaySession, kernel_can_replay
from repro.workloads.easyport import EasyportWorkload
from repro.workloads.synthetic import PhasedWorkload, UniformRandomWorkload
from repro.workloads.vtc import VTCWorkload

from benchmarks._oracle import EventLoopAllocator, event_loop, replay_event_loop
from benchmarks._seed_replay import SeedProfiler, seedify_allocator

#: Points sampled per parameter space (each is profiled twice per mode).
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


def allocator_state(allocator):
    """Full observable allocator end state, as comparable plain data."""
    state = {
        "owner": sorted((a, p.name) for a, p in allocator._owner_of.items()),
        "dispatch": allocator.dispatch_accesses,
        "live_blocks": allocator.live_blocks,
    }
    for pool in allocator.pools:
        free_list = getattr(pool, "free_list", None)
        state[pool.name] = {
            "live": sorted(
                (a, b.size, b.requested_size, b.status.value, b.pool_name)
                for a, b in pool._live.items()
            ),
            "freed": sorted(pool._freed_addresses),
            "free_list": (
                [
                    (b.address, b.size, b.status.value, b.requested_size, b.pool_name)
                    for b in free_list.blocks()
                ]
                if free_list is not None
                else None
            ),
            "insertion_visits": (
                free_list.last_insertion_visits if free_list is not None else None
            ),
            "stats": pool.stats.snapshot(),
        }
    return json.dumps(state, sort_keys=True)


def run_both(trace, point, hierarchy=None):
    """Profile ``point`` with the fast and the legacy path; return both."""
    hierarchy = hierarchy or embedded_two_level()
    factory = AllocatorFactory(hierarchy)
    hot = trace.hot_sizes(top=8)
    configuration = configuration_from_point(
        point,
        hot_sizes=hot,
        scratchpad_module=hierarchy.fastest.name,
        main_module=hierarchy.background_module.name,
    )
    built = factory.build(configuration)
    fast = Profiler(built.mapping).run(built.allocator, trace, "under-test")
    oracle = factory.build(configuration)
    legacy = replay_event_loop(
        Profiler(oracle.mapping), oracle.allocator, trace, "under-test"
    )
    return [(fast, built.allocator), legacy]


class TestByteIdentityAcrossSpaces:
    @pytest.mark.parametrize("space_name", sorted(STANDARD_SPACES))
    def test_fast_path_matches_legacy(self, space_name, workload_trace):
        _name, trace = workload_trace
        space = STANDARD_SPACES[space_name]()
        for point in space.sample(POINTS_PER_SPACE, seed=11):
            (fast_result, fast_alloc), (legacy_result, legacy_alloc) = run_both(
                trace, point
            )
            assert result_bytes(fast_result) == result_bytes(legacy_result)
            assert allocator_state(fast_alloc) == allocator_state(legacy_alloc)


class TestByteIdentityUnderOOM:
    def tiny_hierarchy(self):
        # A scratchpad small enough that dedicated pools overflow and spill,
        # and a bounded main memory so even the fallback eventually OOMs.
        return embedded_two_level(scratchpad_size=2048, main_size=16384)

    def oom_point(self, space_name="default"):
        space = STANDARD_SPACES[space_name]()
        return space.sample(6, seed=2)

    def test_oom_skip_identical(self, workload_trace):
        _name, trace = workload_trace
        hierarchy = self.tiny_hierarchy()
        saw_oom = False
        for point in self.oom_point():
            (fast_result, fast_alloc), (legacy_result, legacy_alloc) = run_both(
                trace, point, hierarchy=hierarchy
            )
            assert result_bytes(fast_result) == result_bytes(legacy_result)
            assert allocator_state(fast_alloc) == allocator_state(legacy_alloc)
            oom = fast_result.per_pool["__profile__"]["oom_failures"]
            saw_oom = saw_oom or oom > 0
        assert saw_oom, "OOM scenario never triggered; shrink the hierarchy"


class TestProfileSection:
    """Every replay path writes the same ``__profile__`` section.

    The fast kernel, the event loop, the batch kernel and the seed snapshot
    all record ``{"oom_failures": N}`` with the same ``N``, and no path
    adds a per-event section (such as a footprint timeline) to the result.
    """

    HIERARCHIES = {
        "roomy": embedded_two_level,
        # Small enough that every sampled point spills, and some run out.
        "tiny": lambda: embedded_two_level(scratchpad_size=2048, main_size=16384),
    }

    def results_by_path(self, trace, point, hierarchy):
        factory = AllocatorFactory(hierarchy)
        configuration = configuration_from_point(
            point,
            hot_sizes=trace.hot_sizes(top=8),
            scratchpad_module=hierarchy.fastest.name,
            main_module=hierarchy.background_module.name,
        )
        results = {}
        built = factory.build(configuration)
        results["fast"] = Profiler(built.mapping).run(built.allocator, trace, "under-test")
        built = factory.build(configuration)
        results["event-loop"], _ = replay_event_loop(
            Profiler(built.mapping), built.allocator, trace, "under-test"
        )
        batch = BatchReplayEngine(trace, factory)
        results["batch"] = batch.run_configuration(configuration)
        built = factory.build(configuration)
        seed = SeedProfiler(built.mapping)
        results["seed"] = seed.run(seedify_allocator(built.allocator), trace, "seed")
        return results

    @pytest.mark.parametrize("hierarchy_name", sorted(HIERARCHIES))
    def test_every_path_records_only_oom_failures(self, hierarchy_name, workload_trace):
        _name, trace = workload_trace
        hierarchy = self.HIERARCHIES[hierarchy_name]()
        space = STANDARD_SPACES["default"]()
        counts = []
        for point in space.sample(3, seed=2):
            results = self.results_by_path(trace, point, hierarchy)
            sections = {path: r.per_pool["__profile__"] for path, r in results.items()}
            expected = {"oom_failures": sections["event-loop"]["oom_failures"]}
            assert sections == dict.fromkeys(results, expected), point
            keys = {path: set(r.per_pool) for path, r in results.items()}
            assert keys == dict.fromkeys(results, keys["event-loop"]), point
            assert "__timeline__" not in keys["event-loop"]
            counts.append(expected["oom_failures"])
        if hierarchy_name == "tiny":
            assert max(counts) > 0, "OOM scenario never triggered; shrink the hierarchy"


class TestCollectUsesCachedLength:
    def test_operation_count_does_not_reiterate(self):
        trace = EasyportWorkload(packets=40).generate(seed=1)

        class CountingTrace(type(trace)):
            iterations = 0

            def __iter__(self):
                CountingTrace.iterations += 1
                return super().__iter__()

        counting = CountingTrace(events=trace.events, name=trace.name)
        point = STANDARD_SPACES["smoke"]().sample(1, seed=0)[0]
        hierarchy = embedded_two_level()
        factory = AllocatorFactory(hierarchy)
        configuration = configuration_from_point(
            point,
            hot_sizes=counting.hot_sizes(top=4),
            scratchpad_module=hierarchy.fastest.name,
            main_module=hierarchy.background_module.name,
        )
        built = factory.build(configuration)
        CountingTrace.iterations = 0
        result, _ = replay_event_loop(
            Profiler(built.mapping), built.allocator, counting, "count"
        )
        # One pass for the replay itself; _collect must not re-iterate.
        assert CountingTrace.iterations == 1
        assert result.operation_count == len(counting)

    def test_fast_path_never_iterates_events(self):
        trace = EasyportWorkload(packets=40).generate(seed=1)
        compiled = trace.compiled()
        from repro.profiling.tracer import AllocationTrace

        lazy = AllocationTrace.from_compiled(compiled)
        point = STANDARD_SPACES["smoke"]().sample(1, seed=0)[0]
        hierarchy = embedded_two_level()
        factory = AllocatorFactory(hierarchy)
        configuration = configuration_from_point(
            point,
            hot_sizes=trace.hot_sizes(top=4),
            scratchpad_module=hierarchy.fastest.name,
            main_module=hierarchy.background_module.name,
        )
        built = factory.build(configuration)
        result = Profiler(built.mapping).run(built.allocator, lazy, "lazy")
        assert lazy._events is None  # replay + collect stayed columnar
        assert result.operation_count == len(trace)


class TestLiveRebindingFallback:
    """Malformed streams that re-allocate a live id take the event loop.

    Static slot resolution cannot express the legacy semantics for such
    streams (the legacy loop rebinds the id only when the allocation
    succeeds at runtime), so the compiled form flags them and the profiler
    falls back — keeping byte-identity even for traces validate() rejects.
    A streaming session in fast mode refuses them instead.
    """

    def malformed_setup(self):
        from repro.allocator.composed import ComposedAllocator
        from repro.allocator.pool import FixedSizePool, GeneralPool
        from repro.memhier.mapping import PoolMapping
        from repro.profiling.events import alloc, free
        from repro.profiling.tracer import AllocationTrace

        hierarchy = embedded_two_level()
        mapping = PoolMapping(hierarchy)
        mapping.place_pool("fixed", "main_memory", reserved_bytes=128)
        mapping.place_pool("general", "main_memory", reserved_bytes=0)
        pool = FixedSizePool(
            "fixed",
            block_size=64,
            address_space=mapping.address_space_for("fixed"),
            chunk_blocks=1,
            strict=True,
        )
        general = GeneralPool("general", address_space=mapping.address_space_for("general"))
        # A standard stack, so only the trace keeps it off the kernel path.
        allocator = ComposedAllocator([pool, general])
        # id 1 is re-allocated while live; the second allocation OOMs (the
        # 128-byte reservation fits one 72-byte gross block only, and the
        # general pool has no room at all), so the legacy loop keeps the
        # first binding and the FREE releases it.
        trace = AllocationTrace(
            [alloc(1, 64, 0), alloc(1, 64, 1), free(1, 2), alloc(2, 64, 3)],
            name="malformed",
        )
        return allocator, mapping, trace

    def test_flag_set_on_live_rebinding(self):
        _allocator, _mapping, trace = self.malformed_setup()
        assert trace.compiled().has_live_rebinding

    def test_flag_clear_on_wellformed_reuse(self):
        from repro.profiling.events import alloc, free
        from repro.profiling.tracer import AllocationTrace

        trace = AllocationTrace(
            [alloc(1, 8, 0), free(1, 1), alloc(1, 8, 2), free(1, 3)]
        )
        assert not trace.compiled().has_live_rebinding

    def test_malformed_stream_byte_identical(self):
        from repro.stream import stream_profile

        allocator, mapping, trace = self.malformed_setup()
        results = [Profiler(mapping).run(allocator, trace, "malformed")]
        allocator, mapping, trace = self.malformed_setup()
        results.append(
            replay_event_loop(Profiler(mapping), allocator, trace, "malformed")[0]
        )
        assert result_bytes(results[0]) == result_bytes(results[1])
        # A stream through the event loop replays it identically too.
        allocator, mapping, trace = self.malformed_setup()
        streamed = stream_profile(
            iter(trace),
            mapping,
            event_loop(allocator),
            segment_events=2,
            configuration_id="malformed",
            name=trace.name,
        )
        assert result_bytes(streamed.result) == result_bytes(results[1])
        # The legacy semantics: one OOM, two successful allocs, one free.
        profile = results[0].per_pool["__profile__"]
        assert profile["oom_failures"] == 1
        assert results[0].per_pool["fixed"]["alloc_ops"] == 2
        assert results[0].per_pool["fixed"]["free_ops"] == 1

    def test_streaming_fast_mode_refuses_the_stream(self):
        from repro.stream import stream_profile

        allocator, mapping, trace = self.malformed_setup()
        with pytest.raises(ValueError, match="re-binds a live request id") as error:
            stream_profile(iter(trace), mapping, allocator, segment_events=2)
        assert "option" not in str(error.value)


class TestOracleRule:
    """The event loop runs exactly when the kernel path cannot express the replay.

    The rule: the allocator is not exactly a ``ComposedAllocator``, its pools
    were used already or do not form a standard stack (strict fixed or slab
    pools with distinct block sizes in front of a general pool that accepts
    every size), or the trace re-binds a live request id.  The identity
    suites rely on it to reach the oracle, so this holds the kernel path
    away from such replays and the event loop away from every other one.
    """

    def spy(self, monkeypatch):
        calls = {"kernel": 0, "event-loop": 0}
        kernel = SegmentReplaySession._replay_by_pool
        loop = Profiler._replay_events

        def counting_kernel(session, segment):
            calls["kernel"] += 1
            return kernel(session, segment)

        def counting_loop(profiler, *args):
            calls["event-loop"] += 1
            return loop(profiler, *args)

        monkeypatch.setattr(SegmentReplaySession, "_replay_by_pool", counting_kernel)
        monkeypatch.setattr(Profiler, "_replay_events", counting_loop)
        return calls

    def configuration(self, trace, hierarchy):
        return configuration_from_point(
            STANDARD_SPACES["smoke"]().sample(1, seed=0)[0],
            hot_sizes=trace.hot_sizes(top=4),
            scratchpad_module=hierarchy.fastest.name,
            main_module=hierarchy.background_module.name,
        )

    def built(self, edit=None):
        trace = EasyportWorkload(packets=40).generate(seed=1)
        hierarchy = embedded_two_level()
        configuration = self.configuration(trace, hierarchy)
        if edit is not None:
            configuration.pools = edit(configuration.pools)
        return trace, AllocatorFactory(hierarchy).build(configuration)

    def test_exact_type_takes_the_kernel(self, monkeypatch):
        calls = self.spy(monkeypatch)
        trace, built = self.built()
        assert kernel_can_replay(built.allocator)
        Profiler(built.mapping).run(built.allocator, trace)
        assert calls == {"kernel": 1, "event-loop": 0}

    def test_subclass_takes_the_event_loop(self, monkeypatch):
        calls = self.spy(monkeypatch)
        trace, built = self.built()
        oracle = event_loop(built.allocator)
        assert type(oracle) is EventLoopAllocator
        assert oracle.pools == built.allocator.pools
        Profiler(built.mapping).run(oracle, trace)
        assert calls == {"kernel": 0, "event-loop": 1}

    def test_live_rebinding_takes_the_event_loop(self, monkeypatch):
        calls = self.spy(monkeypatch)
        allocator, mapping, trace = TestLiveRebindingFallback().malformed_setup()
        assert kernel_can_replay(allocator)
        Profiler(mapping).run(allocator, trace)
        assert calls == {"kernel": 0, "event-loop": 1}

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(
                lambda pools: pools[:-1] + [replace(pools[-1], max_block_size=4096)],
                id="bounded-general",
            ),
            pytest.param(
                lambda pools: pools[:-1] + [replace(pools[-1], kind="segregated")],
                id="segregated",
            ),
            pytest.param(
                lambda pools: [replace(pools[0], kind="region")] + pools[1:],
                id="region-in-front",
            ),
        ],
    )
    def test_non_standard_stack_takes_the_event_loop(self, monkeypatch, edit):
        calls = self.spy(monkeypatch)
        trace, built = self.built(edit)
        assert type(built.allocator) is ComposedAllocator
        assert not kernel_can_replay(built.allocator)
        result = Profiler(built.mapping).run(built.allocator, trace)
        assert calls == {"kernel": 0, "event-loop": 1}
        _trace, oracle = self.built(edit)
        reference, _ = replay_event_loop(Profiler(oracle.mapping), oracle.allocator, trace)
        assert result_bytes(result) == result_bytes(reference)

    def test_used_allocator_takes_the_event_loop(self, monkeypatch):
        """A second run continues from the first run's end state, which the
        kernel path must have left exactly as the event loop does."""
        trace, built = self.built()
        _trace, oracle = self.built()
        oracle_allocator = event_loop(oracle.allocator)
        results = []
        for allocator, mapping in ((built.allocator, built.mapping),
                                   (oracle_allocator, oracle.mapping)):
            Profiler(mapping).run(allocator, trace)
            calls = self.spy(monkeypatch)
            assert not kernel_can_replay(allocator)
            results.append(Profiler(mapping).run(allocator, trace))
            assert calls == {"kernel": 0, "event-loop": 1}
        assert result_bytes(results[0]) == result_bytes(results[1])
        assert allocator_state(built.allocator) == allocator_state(oracle_allocator)

    def test_streamed_fixed_pools_stay_on_the_kernel(self, monkeypatch):
        """Every segment of a stream replays its fixed pools on the kernel,
        not only the first: the evaluator benchmark's replay configuration,
        cut into two segments, never calls ``FixedSizePool.allocate``."""
        from benchmarks.test_eval_speed import _configuration
        from repro.allocator.pool import FixedSizePool
        from repro.stream import stream_profile

        trace = EasyportWorkload(packets=2000).generate(seed=2006)
        hierarchy = embedded_two_level()
        configuration = _configuration(trace, hierarchy)
        factory = AllocatorFactory(hierarchy)
        reference, _ = replay_event_loop(
            Profiler(factory.build(configuration).mapping),
            factory.build(configuration).allocator,
            trace,
            "under-test",
        )
        calls = {"allocate": 0}
        allocate = FixedSizePool.allocate

        def counting_allocate(pool, size):
            calls["allocate"] += 1
            return allocate(pool, size)

        monkeypatch.setattr(FixedSizePool, "allocate", counting_allocate)
        built = factory.build(configuration)
        assert any(type(pool) is FixedSizePool for pool in built.allocator.pools)
        streamed = stream_profile(
            iter(trace),
            built.mapping,
            built.allocator,
            segment_events=len(trace) // 2 + 1,
            configuration_id="under-test",
            name=trace.name,
        )
        assert streamed.segments == 2
        assert calls == {"allocate": 0}
        assert result_bytes(streamed.result) == result_bytes(reference)

    def test_event_loop_needs_a_fresh_allocator(self):
        _trace, built = self.built()
        built.allocator.malloc(16)
        with pytest.raises(ValueError, match="freshly built"):
            event_loop(built.allocator)
