"""Unit tests for the profiling substrate: events, traces, profiler, metrics."""

import pytest

from repro.allocator.composed import ComposedAllocator
from repro.allocator.pool import FixedSizePool, GeneralPool
from repro.memhier.energy import EnergyModel
from repro.memhier.hierarchy import embedded_two_level
from repro.memhier.mapping import PoolMapping
from repro.profiling.events import AllocationEvent, EventKind, alloc, free
from repro.profiling.metrics import (
    METRICS,
    MetricSet,
    improvement_factor,
    metric_keys,
    metric_spec,
    percent_decrease,
)
from repro.memhier.access import breakdown_accesses
from repro.profiling.profiler import (
    DEFAULT_PAYLOAD_ACCESS_FACTOR,
    Profiler,
    profile_trace,
)
from repro.profiling.tracer import AllocationTrace, TraceError

from benchmarks._oracle import event_loop


class TestEvents:
    def test_alloc_constructor(self):
        event = alloc(3, 128, timestamp=7, tag="pkt")
        assert event.is_alloc and not event.is_free
        assert event.size == 128
        assert event.request_id == 3

    def test_free_constructor(self):
        event = free(3, timestamp=9)
        assert event.is_free
        assert event.size == 0

    def test_alloc_requires_positive_size(self):
        with pytest.raises(ValueError):
            alloc(1, 0)

    def test_free_must_not_carry_size(self):
        with pytest.raises(ValueError):
            AllocationEvent(EventKind.FREE, 1, size=8)

    def test_negative_ids_and_timestamps_rejected(self):
        with pytest.raises(ValueError):
            alloc(-1, 8)
        with pytest.raises(ValueError):
            alloc(1, 8, timestamp=-1)


class TestTraceValidation:
    def test_valid_trace(self):
        trace = AllocationTrace([alloc(0, 8, 0), free(0, 1)])
        trace.validate()

    def test_free_before_alloc_rejected(self):
        trace = AllocationTrace([free(0, 0)])
        with pytest.raises(TraceError):
            trace.validate()

    def test_double_free_rejected(self):
        trace = AllocationTrace([alloc(0, 8, 0), free(0, 1), free(0, 2)])
        with pytest.raises(TraceError):
            trace.validate()

    def test_duplicate_alloc_rejected(self):
        trace = AllocationTrace([alloc(0, 8, 0), alloc(0, 8, 1)])
        with pytest.raises(TraceError):
            trace.validate()

    def test_backwards_timestamps_rejected(self):
        trace = AllocationTrace([alloc(0, 8, 5), alloc(1, 8, 3)])
        with pytest.raises(TraceError):
            trace.validate()


class TestTraceStatistics:
    def make_trace(self):
        return AllocationTrace(
            [
                alloc(0, 100, 0),
                alloc(1, 50, 1),
                free(0, 2),
                alloc(2, 100, 3),
                free(1, 4),
                free(2, 5),
            ],
            name="t",
        )

    def test_summary(self):
        summary = self.make_trace().summary()
        assert summary.alloc_count == 3
        assert summary.free_count == 3
        assert summary.total_requested_bytes == 250
        assert summary.peak_live_bytes == 150
        assert summary.peak_live_blocks == 2
        assert summary.leaked_blocks == 0
        assert summary.max_size == 100
        assert summary.min_size == 50

    def test_size_histogram(self):
        histogram = self.make_trace().size_histogram()
        assert histogram[100] == 2
        assert histogram[50] == 1

    def test_hot_sizes(self):
        assert self.make_trace().hot_sizes(1) == [100]
        with pytest.raises(ValueError):
            self.make_trace().hot_sizes(0)

    def test_live_profile_never_negative_and_ends_at_zero(self):
        profile = self.make_trace().live_profile()
        assert all(live >= 0 for _ts, live in profile)
        assert profile[-1][1] == 0

    def test_slice(self):
        partial = self.make_trace().slice(0, 2)
        assert len(partial) == 2


class TestMetrics:
    def test_metric_registry(self):
        assert set(metric_keys()) == set(METRICS)
        assert metric_spec("accesses").lower_is_better
        with pytest.raises(KeyError):
            metric_spec("latency")

    def test_metric_set_values(self):
        metrics = MetricSet(accesses=10, footprint=20, energy_nj=3.5, cycles=40)
        assert metrics.value("accesses") == 10
        assert metrics.values(["footprint", "cycles"]) == (20, 40)
        with pytest.raises(KeyError):
            metrics.value("bogus")

    def test_metric_set_round_trip(self):
        metrics = MetricSet(accesses=10, footprint=20, energy_nj=3.5, cycles=40)
        assert MetricSet.from_dict(metrics.as_dict()) == metrics

    def test_improvement_factor(self):
        assert improvement_factor(100, 25) == 4.0
        assert improvement_factor(0, 0) == 1.0
        assert improvement_factor(10, 0) == float("inf")
        with pytest.raises(ValueError):
            improvement_factor(-1, 1)

    def test_percent_decrease(self):
        assert percent_decrease(100, 25) == 75.0
        assert percent_decrease(0, 0) == 0.0


def build_profiling_setup(scratchpad_reservation=16384):
    hierarchy = embedded_two_level()
    mapping = PoolMapping(hierarchy)
    mapping.place_pool("hot", "l1_scratchpad", scratchpad_reservation)
    mapping.place_pool("general", "main_memory")
    hot = FixedSizePool("hot", 64, strict=True, address_space=mapping.address_space_for("hot"))
    general = GeneralPool("general", address_space=mapping.address_space_for("general"))
    allocator = ComposedAllocator([hot, general], name="setup")
    return allocator, mapping, hierarchy


class TestProfiler:
    def make_trace(self, count=50):
        events = []
        for i in range(count):
            events.append(alloc(i, 64 if i % 2 == 0 else 200, timestamp=i))
        for i in range(count):
            events.append(free(i, timestamp=count + i))
        return AllocationTrace(events, name="synthetic")

    def test_profile_produces_all_metrics(self):
        allocator, mapping, hierarchy = build_profiling_setup()
        trace = self.make_trace()
        result = profile_trace(allocator, trace, mapping, configuration_id="cfg")
        assert result.totals.accesses > 0
        assert result.totals.footprint > 0
        assert result.totals.energy_nj > 0
        assert result.totals.cycles > 0
        assert result.operation_count == len(trace)
        assert result.leaked_blocks == 0

    def test_per_level_breakdown_covers_hierarchy(self):
        allocator, mapping, hierarchy = build_profiling_setup()
        result = profile_trace(allocator, self.make_trace(), mapping)
        assert set(result.per_level) == set(hierarchy.module_names())

    def test_per_pool_breakdown(self):
        allocator, mapping, _ = build_profiling_setup()
        result = profile_trace(allocator, self.make_trace(), mapping)
        assert "hot" in result.per_pool
        assert result.per_pool["hot"]["module"] == "l1_scratchpad"

    def test_accesses_metric_excludes_payload(self):
        allocator, mapping, _ = build_profiling_setup()
        trace = self.make_trace()
        result = Profiler(mapping).run(allocator, trace)
        metadata = breakdown_accesses(allocator, mapping).total
        payload = DEFAULT_PAYLOAD_ACCESS_FACTOR * sum(
            event.size for event in trace if event.is_alloc
        )
        assert payload > 0
        # The accesses metric counts the allocator's own metadata traffic;
        # the per-level breakdown, which energy and cycles are charged
        # from, carries the application's payload accesses on top.
        assert result.totals.accesses == metadata
        level_accesses = sum(
            level.reads + level.writes for level in result.per_level.values()
        )
        assert level_accesses == metadata + payload

    def test_oom_failures_recorded_not_raised(self):
        hierarchy = embedded_two_level(main_size=4096)
        mapping = PoolMapping(hierarchy)
        mapping.place_pool("general", "main_memory")
        general = GeneralPool("general", address_space=mapping.address_space_for("general"))
        allocator = ComposedAllocator([general])
        events = [alloc(i, 1024, timestamp=i) for i in range(10)]
        trace = AllocationTrace(events, name="oom")
        result = profile_trace(allocator, trace, mapping)
        assert result.per_pool["__profile__"]["oom_failures"] > 0

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "event-loop"])
    def test_oom_counted_and_its_free_skipped(self, fast):
        """A failed allocation is counted once; its later free is a no-op."""
        hierarchy = embedded_two_level(main_size=4096)
        mapping = PoolMapping(hierarchy)
        mapping.place_pool("general", "main_memory")
        general = GeneralPool("general", address_space=mapping.address_space_for("general"))
        allocator = ComposedAllocator([general])
        events = [alloc(i, 1024, timestamp=i) for i in range(10)]
        events += [free(i, timestamp=10 + i) for i in range(10)]
        trace = AllocationTrace(events, name="oom")
        if not fast:
            allocator = event_loop(allocator)
        result = Profiler(mapping).run(allocator, trace)
        failures = result.per_pool["__profile__"]["oom_failures"]
        assert 0 < failures < 10
        assert general.stats.alloc_ops + failures == 10
        assert general.stats.free_ops == general.stats.alloc_ops
        assert allocator.check_all_freed()
        assert result.leaked_blocks == 0

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "event-loop"])
    def test_profile_section_is_oom_failures_only(self, fast):
        allocator, mapping, _ = build_profiling_setup()
        if not fast:
            allocator = event_loop(allocator)
        result = Profiler(mapping).run(allocator, self.make_trace(10))
        assert result.per_pool["__profile__"] == {"oom_failures": 0}
        assert set(result.per_pool) == {"hot", "general", "__profile__"}

    @pytest.mark.parametrize(
        "entry", ["Profiler", "profile_trace", "stream_profile", "BatchReplayEngine"]
    )
    def test_retired_options_are_refused(self, entry):
        """No replay entry point takes options: passing some fails loudly
        instead of being ignored."""
        import repro.profiling as profiling
        from repro.core.factory import AllocatorFactory
        from repro.stream import stream_profile

        allocator, mapping, hierarchy = build_profiling_setup()
        trace = self.make_trace(4)
        calls = {
            "Profiler": lambda: Profiler(mapping, options=None),
            "profile_trace": lambda: profile_trace(
                allocator, trace, mapping, options=None
            ),
            "stream_profile": lambda: stream_profile(
                iter(trace), mapping, allocator, options=None
            ),
            "BatchReplayEngine": lambda: profiling.BatchReplayEngine(
                trace, AllocatorFactory(hierarchy), options=None
            ),
        }
        with pytest.raises(TypeError, match="options"):
            calls[entry]()
        assert not hasattr(profiling, "ProfilerOptions")

    def test_scratchpad_mapping_lowers_energy(self):
        trace = self.make_trace()
        hot_allocator, hot_mapping, _ = build_profiling_setup()
        hot_result = profile_trace(hot_allocator, trace, hot_mapping)

        hierarchy = embedded_two_level()
        cold_mapping = PoolMapping(hierarchy)
        cold_mapping.place_pool("hot", "main_memory", 16384)
        cold_mapping.place_pool("general", "main_memory")
        hot_pool = FixedSizePool(
            "hot", 64, strict=True, address_space=cold_mapping.address_space_for("hot")
        )
        general = GeneralPool("general", address_space=cold_mapping.address_space_for("general"))
        cold_allocator = ComposedAllocator([hot_pool, general])
        cold_result = profile_trace(cold_allocator, trace, cold_mapping)

        assert hot_result.totals.energy_nj < cold_result.totals.energy_nj
        assert hot_result.totals.cycles < cold_result.totals.cycles

    def test_energy_model_override(self):
        allocator, mapping, hierarchy = build_profiling_setup()
        expensive = EnergyModel(hierarchy, cpu_overhead_cycles=10_000)
        result = profile_trace(
            allocator, self.make_trace(), mapping, energy_model=expensive
        )
        cheap_allocator, cheap_mapping, cheap_hierarchy = build_profiling_setup()
        cheap = EnergyModel(cheap_hierarchy, cpu_overhead_cycles=1)
        cheap_result = profile_trace(
            cheap_allocator, self.make_trace(), cheap_mapping, energy_model=cheap
        )
        assert result.totals.cycles > cheap_result.totals.cycles
