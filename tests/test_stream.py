"""Streaming workload subsystem: ingestion, segment replay, windows.

The load-bearing property: replaying a trace as compiled *segments* —
any segmentation, including one event per segment — is byte-identical to
the one-shot compile-and-replay, on every standard parameter space.  That
identity is what lets million-event logs stream through in bounded memory
while producing exactly the artefacts the in-memory paths produce.
"""

import dataclasses
import gzip
import itertools
import json
import random

import pytest

from repro.api import registry
from repro.core.configuration import configuration_from_point
from repro.core.exploration import LABEL_PREFIX, ExplorationEngine, ExplorationSettings
from repro.core.factory import AllocatorFactory
from repro.core.reporting import exploration_report
from repro.core.results import ResultDatabase
from repro.core.space import STANDARD_SPACES
from repro.gui.live import LiveDashboardSink
from repro.memhier.hierarchy import embedded_two_level
from repro.profiling.compiled import SegmentedTraceCompiler, compile_trace
from repro.profiling.events import alloc, free
from repro.profiling.logformat import write_log
from repro.profiling.metrics import LevelMetrics, MetricSet, ProfileResult
from repro.profiling.profiler import Profiler, SegmentReplaySession, kernel_can_replay
from repro.profiling.tracer import AllocationTrace
from repro.stream import (
    ProfilingLogSource,
    StreamFormatError,
    SyntheticSource,
    TraceFileSource,
    WindowSpec,
    compile_stream,
    iter_event_chunks,
    stream_profile,
    windowed_exploration,
)
from repro.workloads import (
    DiurnalWorkload,
    RequestBurstWorkload,
    SessionChurnWorkload,
    TraceFormatError,
    UniformRandomWorkload,
    VTCWorkload,
    load_trace,
    round_trip_equal,
    save_trace,
)
from repro.workloads.easyport import EasyportWorkload

from benchmarks._oracle import event_loop, replay_event_loop


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


def random_cuts(length, rng):
    """A random segmentation of [0, length) into contiguous chunks."""
    cuts = sorted(rng.sample(range(1, length), min(rng.randint(1, 8), length - 1)))
    return [0] + cuts + [length]


def build(trace, point, hierarchy=None):
    hierarchy = hierarchy or embedded_two_level()
    factory = AllocatorFactory(hierarchy)
    configuration = configuration_from_point(
        point,
        hot_sizes=trace.hot_sizes(top=8),
        scratchpad_module=hierarchy.fastest.name,
        main_module=hierarchy.background_module.name,
    )
    return factory.build(configuration)


def oneshot(trace, point, hierarchy=None, oracle=False):
    """One-shot replay; ``oracle=True`` takes the event loop."""
    built = build(trace, point, hierarchy)
    allocator = event_loop(built.allocator) if oracle else built.allocator
    result = Profiler(built.mapping).run(allocator, trace, "under-test")
    return result, allocator


def segmented(trace, point, offsets, hierarchy=None, oracle=False):
    """Segment-by-segment replay; ``oracle=True`` takes the event loop."""
    built = build(trace, point, hierarchy)
    allocator = event_loop(built.allocator) if oracle else built.allocator
    session = SegmentReplaySession(Profiler(built.mapping), allocator, name=trace.name)
    assert kernel_can_replay(allocator) is not oracle
    compiler = SegmentedTraceCompiler(trace.name)
    events = trace.events
    for start, stop in zip(offsets, offsets[1:]):
        session.replay_segment(compiler.feed(events[start:stop]))
    assert compiler.fingerprint() == trace.fingerprint()
    return session.finish("under-test"), allocator


class TestSegmentedCompiler:
    def test_concatenated_segments_equal_oneshot_compile(self):
        trace = SessionChurnWorkload(ticks=300).generate(seed=5)
        whole = compile_trace(trace)
        compiler = SegmentedTraceCompiler(trace.name)
        rng = random.Random(9)
        offsets = random_cuts(len(trace), rng)
        segments = [
            compiler.feed(trace.events[start:stop])
            for start, stop in zip(offsets, offsets[1:])
        ]
        assert b"".join(s.kinds for s in segments) == whole.kinds
        for column in ("sizes", "request_ids", "timestamps", "slots"):
            joined = [v for s in segments for v in getattr(s, column)]
            assert joined == list(getattr(whole, column)), column
        slot_sizes = [v for s in segments for v in s.slot_sizes]
        assert slot_sizes == list(whole.slot_sizes)
        assert compiler.slot_count == whole.slot_count
        assert compiler.fingerprint() == trace.fingerprint()
        assert [s.slot_base for s in segments] == [
            sum(seg.slot_count for seg in segments[:i]) for i in range(len(segments))
        ]

    def test_chunking_bounds_and_order(self):
        source = SyntheticSource(operations=1000, live_limit=32, seed=1)
        chunks = list(iter_event_chunks(source.events(), 64))
        assert all(len(chunk) <= 64 for chunk in chunks)
        assert sum(len(chunk) for chunk in chunks) == sum(1 for _ in source.events())
        with pytest.raises(ValueError):
            list(iter_event_chunks([], 0))

    @pytest.mark.parametrize("seed", range(6))
    def test_every_segmentation_concatenates_to_the_oneshot_compile(self, seed):
        # A tagged trace (VTC) and an untagged one: tags reach the
        # fingerprint but not the columns or the reconstructed events.
        rng = random.Random(seed)
        workload = (
            VTCWorkload(image_width=64, image_height=64)
            if seed % 2
            else RequestBurstWorkload(bursts=6)
        )
        trace = workload.generate(seed=seed)
        whole = compile_trace(trace.events, name=trace.name)
        compiler = SegmentedTraceCompiler(trace.name)
        offsets = random_cuts(len(trace), rng)
        segments = [
            compiler.feed(trace.events[start:stop])
            for start, stop in zip(offsets, offsets[1:])
        ]
        assert b"".join(s.kinds for s in segments) == whole.kinds
        for column in ("sizes", "request_ids", "timestamps", "slots", "slot_sizes"):
            joined = [v for s in segments for v in getattr(s, column)]
            assert joined == list(getattr(whole, column)), column
        assert compiler.fingerprint() == whole.fingerprint == trace.fingerprint()
        assert all(s.fingerprint == "" for s in segments)
        untagged = [dataclasses.replace(event, tag="") for event in trace]
        assert [e for s in segments for e in s.events()] == untagged
        assert whole.events() == untagged


#: Fingerprint of every registry workload at seed 1.  The fingerprint keys
#: result-store entries, artefact provenance and cluster leases, so a change
#: to the trace layer must leave every value here untouched.
FINGERPRINT_PINS = {
    "bursty": "1b4a2a6726d266b7e3cc9a451b5ed60baac54d22de3e864aa671264f01320a18",
    "diurnal": "30386fd7ca8c4c1d100a721fb770868e7c10c59f998c8eeac0bbac8ce32e2d73",
    "easyport": "36a9aca13e49a772812ce117e397ba372ff55fc20cc54feaf05089b30c6c13b8",
    "requests": "8ab29a64b9c1e21bb6d662a7b26563ad8888767f67cc3a94367c9270622de69b",
    "sessions": "d3e2e128bf23e911ad9356de13471fe411f8a666046e773a2ed0613acd93f7f6",
    "uniform": "ade6fc9352677cd3a9716fb6d27311d41e5586ffc673631f8ffdba266e755c5a",
    "vtc": "ecd563c98fc29fffac58f439b9ad0736eb7c0ad6801d769ca64cce033326f7d4",
}


class TestFingerprintPins:
    def test_pins_cover_the_registry(self):
        assert sorted(FINGERPRINT_PINS) == sorted(registry.workloads.names())

    @pytest.mark.parametrize("name", sorted(FINGERPRINT_PINS))
    def test_registry_fingerprints_are_pinned(self, name):
        trace = registry.workloads.create(name).generate(seed=1)
        assert trace.fingerprint() == FINGERPRINT_PINS[name]
        compiler = SegmentedTraceCompiler(trace.name)
        for chunk in iter_event_chunks(trace, 1000):
            compiler.feed(chunk)
        assert compiler.fingerprint() == FINGERPRINT_PINS[name]


class TestSegmentedReplayIdentity:
    """Satellite: any segmentation replays byte-identically to one-shot."""

    WORKLOAD = staticmethod(lambda: SessionChurnWorkload(ticks=400).generate(seed=7))

    @pytest.mark.parametrize("space_name", sorted(STANDARD_SPACES))
    def test_random_segmentations_match_oneshot(self, space_name):
        trace = self.WORKLOAD()
        space = STANDARD_SPACES[space_name]()
        rng = random.Random(space_name)
        for point in space.sample(3, seed=13):
            reference, reference_alloc = oneshot(trace, point)
            for _trial in range(3):
                offsets = random_cuts(len(trace), rng)
                streamed, streamed_alloc = segmented(trace, point, offsets)
                assert result_bytes(streamed) == result_bytes(reference)
                assert allocator_state(streamed_alloc) == allocator_state(
                    reference_alloc
                )

    def test_single_event_segments(self):
        trace = UniformRandomWorkload(operations=150).generate(seed=3)
        point = STANDARD_SPACES["smoke"]().sample(1, seed=1)[0]
        reference, _ = oneshot(trace, point)
        streamed, _ = segmented(trace, point, list(range(len(trace) + 1)))
        assert result_bytes(streamed) == result_bytes(reference)

    def test_oom_identical(self):
        trace = EasyportWorkload(packets=120).generate(seed=7)
        hierarchy = embedded_two_level(scratchpad_size=2048, main_size=16384)
        rng = random.Random(4)
        saw_oom = False
        for point in STANDARD_SPACES["default"]().sample(4, seed=2):
            reference, reference_alloc = oneshot(trace, point, hierarchy)
            offsets = random_cuts(len(trace), rng)
            streamed, streamed_alloc = segmented(trace, point, offsets, hierarchy)
            assert result_bytes(streamed) == result_bytes(reference)
            assert allocator_state(streamed_alloc) == allocator_state(reference_alloc)
            saw_oom = saw_oom or reference.per_pool["__profile__"]["oom_failures"] > 0
        assert saw_oom, "OOM scenario never triggered; shrink the hierarchy"

    def test_legacy_mode_identical(self):
        trace = UniformRandomWorkload(operations=200).generate(seed=5)
        point = STANDARD_SPACES["compact"]().sample(1, seed=3)[0]
        reference, _ = oneshot(trace, point, oracle=True)
        streamed, _ = segmented(
            trace, point, random_cuts(len(trace), random.Random(1)), oracle=True
        )
        assert result_bytes(streamed) == result_bytes(reference)


class TestSessionModeRules:
    """A subclassed allocator takes the event loop, one-shot and streamed."""

    def subclassed(self, trace, point):
        built = build(trace, point)
        return built.mapping, event_loop(built.allocator)

    def test_subclass_oneshot_and_streamed_byte_identical(self):
        trace = SessionChurnWorkload(ticks=200).generate(seed=3)
        rng = random.Random(6)
        for point in STANDARD_SPACES["compact"]().sample(3, seed=4):
            reference, _ = oneshot(trace, point)
            mapping, allocator = self.subclassed(trace, point)
            profiler = Profiler(mapping)
            assert not kernel_can_replay(allocator)
            oneshot_result = profiler.run(allocator, trace, "under-test")
            assert result_bytes(oneshot_result) == result_bytes(reference)
            for _trial in range(3):
                offsets = random_cuts(len(trace), rng)
                mapping, allocator = self.subclassed(trace, point)
                session = SegmentReplaySession(
                    Profiler(mapping), allocator, name=trace.name
                )
                compiler = SegmentedTraceCompiler(trace.name)
                for start, stop in zip(offsets, offsets[1:]):
                    session.replay_segment(compiler.feed(trace.events[start:stop]))
                streamed = session.finish("under-test")
                assert result_bytes(streamed) == result_bytes(oneshot_result)
            mapping, allocator = self.subclassed(trace, point)
            outcome = stream_profile(
                iter(trace),
                mapping,
                allocator,
                segment_events=rng.randint(1, len(trace)),
                configuration_id="under-test",
                name=trace.name,
            )
            assert result_bytes(outcome.result) == result_bytes(oneshot_result)


class TestStreamProfile:
    def test_bounded_pipeline_matches_in_memory_run(self):
        trace = DiurnalWorkload(ticks=300).generate(seed=4)
        point = STANDARD_SPACES["smoke"]().sample(1, seed=2)[0]
        reference, _ = oneshot(trace, point)
        built = build(trace, point)
        outcome = stream_profile(
            iter(trace),
            built.mapping,
            built.allocator,
            segment_events=128,
            configuration_id="under-test",
            name=trace.name,
        )
        assert result_bytes(outcome.result) == result_bytes(reference)
        assert outcome.fingerprint == trace.fingerprint()
        assert outcome.events == len(trace)
        assert outcome.segments == -(-len(trace) // 128)

    def test_unnamed_stream_takes_the_header_name(self, tmp_path):
        """Without ``name=``, a file's ``# trace NAME`` header names the
        result, as ``load_trace`` names the trace, not the file stem."""
        path = tmp_path / "stem.trace"
        path.write_text("# trace demo\n" + MATRIX_TEXT)
        trace = load_trace(path)
        assert trace.name == "demo"
        point = STANDARD_SPACES["smoke"]().sample(1, seed=1)[0]
        reference, _ = oneshot(trace, point)
        built = build(trace, point)
        outcome = stream_profile(
            TraceFileSource(path),
            built.mapping,
            built.allocator,
            segment_events=3,
            configuration_id="under-test",
        )
        assert outcome.result.trace_name == "demo"
        assert result_bytes(outcome.result) == result_bytes(reference)

    def test_compile_stream_is_lazy_and_complete(self):
        source = SyntheticSource(operations=500, live_limit=16, seed=6)
        compiler = SegmentedTraceCompiler(source.name)
        total = 0
        for segment in compile_stream(source, segment_events=100, compiler=compiler):
            total += len(segment)
        assert total == compiler.events_seen
        assert compiler.segments == -(-total // 100)


#: The events every readable row of :data:`READER_MATRIX` holds.
MATRIX_EVENTS = [alloc(0, 64, 0), alloc(1, 32, 1, "tagged"), free(0, 2), free(1, 3)]
MATRIX_TEXT = "A 0 64 0\nA 1 32 1 tagged\nF 0 2\nF 1 3\n"

#: Row -> (file name, content, ``load_trace`` succeeds, strict
#: ``TraceFileSource`` truncated_tail or None when it raises, tolerant
#: source (skipped_lines, truncated_tail), trace name after reading).
READER_MATRIX = {
    "clean": ("t.trace", MATRIX_TEXT, True, 0, (0, 0), "t"),
    "unterminated-malformed-tail": (
        "t.trace", MATRIX_TEXT + "A 2 3", False, 1, (1, 1), "t"
    ),
    "terminated-malformed-tail": (
        "t.trace", MATRIX_TEXT + "A 2 3\n", False, None, (1, 0), "t"
    ),
    "interior-garbage": (
        "t.trace",
        "A 0 64 0\nX junk\nA 1 32 1 tagged\nF 0 2\nF 1 3\n",
        False,
        None,
        (1, 0),
        "t",
    ),
    "gzip": ("t.trace.gz", MATRIX_TEXT, True, 0, (0, 0), "t.trace"),
    "header": ("t.trace", "# trace demo\n" + MATRIX_TEXT, True, 0, (0, 0), "demo"),
}


class TestReadersAgree:
    """``load_trace``, strict and tolerant ``TraceFileSource`` and
    ``stream_profile`` give one outcome per file, damaged or not."""

    @pytest.mark.parametrize("row", sorted(READER_MATRIX))
    def test_matrix(self, tmp_path, row):
        filename, text, loads, strict_tail, tolerant_counts, name = READER_MATRIX[row]
        path = tmp_path / filename
        data = text.encode()
        path.write_bytes(gzip.compress(data) if filename.endswith(".gz") else data)

        if loads:
            trace = load_trace(path)
            assert trace.events == MATRIX_EVENTS
            assert trace.name == name
        else:
            with pytest.raises(TraceFormatError):
                load_trace(path)

        strict = TraceFileSource(path)
        if strict_tail is None:
            with pytest.raises(TraceFormatError):
                list(strict.events())
        else:
            assert list(strict.events()) == MATRIX_EVENTS
            assert strict.truncated_tail == strict_tail
            assert strict.name == name

        tolerant = TraceFileSource(path, strict=False)
        assert list(tolerant.events()) == MATRIX_EVENTS
        assert (tolerant.skipped_lines, tolerant.truncated_tail) == tolerant_counts
        assert tolerant.name == name

        expected = AllocationTrace(list(MATRIX_EVENTS), name=name)
        point = STANDARD_SPACES["smoke"]().sample(1, seed=1)[0]
        built = build(expected, point)

        def profile():
            return stream_profile(
                TraceFileSource(path),
                built.mapping,
                built.allocator,
                segment_events=3,
                configuration_id="under-test",
                name=name,
            )

        if strict_tail is None:
            with pytest.raises(TraceFormatError):
                profile()
        else:
            outcome = profile()
            reference, _ = oneshot(expected, point)
            assert result_bytes(outcome.result) == result_bytes(reference)
            assert outcome.fingerprint == expected.fingerprint()
            assert outcome.events == len(MATRIX_EVENTS)

    def test_one_error_class(self):
        assert TraceFormatError is StreamFormatError


class TestSources:
    def test_trace_file_source_round_trips(self, tmp_path):
        trace = SessionChurnWorkload(ticks=150).generate(seed=1)
        path = tmp_path / "churn.trace"
        save_trace(trace, path)
        source = TraceFileSource(path)
        events = list(source.events())
        assert source.name == trace.name
        rebuilt = load_trace(path)
        assert round_trip_equal(trace, rebuilt)
        assert len(events) == len(trace)
        assert [e.request_id for e in events] == [e.request_id for e in trace]

    def test_trace_file_source_reads_gzip(self, tmp_path):
        trace = UniformRandomWorkload(operations=60).generate(seed=2)
        plain = tmp_path / "t.trace"
        save_trace(trace, plain)
        packed = tmp_path / "t.trace.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        events = list(TraceFileSource(packed).events())
        assert len(events) == len(trace)

    def test_gz_suffix_is_gzipped_on_write_and_read_by_both_readers(self, tmp_path):
        trace = VTCWorkload(image_width=64, image_height=64).generate(seed=1)
        path = tmp_path / "vtc.trace.gz"
        lines = save_trace(trace, path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert handle.readline() == f"# trace {trace.name}\n"
            assert 1 + sum(1 for _ in handle) == lines
        loaded = load_trace(path)
        assert loaded.events == trace.events
        assert loaded.name == trace.name
        source = TraceFileSource(path)
        assert list(source.events()) == trace.events
        assert source.name == trace.name
        assert load_trace(path).fingerprint() == trace.fingerprint()

    def test_trace_file_source_strictness_and_torn_tail(self, tmp_path):
        path = tmp_path / "broken.trace"
        path.write_text("A 0 64 0\nX nonsense\nF 0 1\nA 1 32", encoding="utf-8")
        with pytest.raises(StreamFormatError):
            list(TraceFileSource(path).events())
        tolerant = TraceFileSource(path, strict=False)
        events = list(tolerant.events())
        # The interior junk line is skipped; the torn final line is
        # tolerated even by a strict source (counted, never raised).
        assert len(events) == 2
        assert tolerant.skipped_lines == 2
        assert tolerant.truncated_tail == 1
        strict = TraceFileSource(path)
        with pytest.raises(StreamFormatError):
            list(strict.events())

    def test_profiling_log_source_reconstructs_events(self, tmp_path):
        trace = UniformRandomWorkload(operations=80).generate(seed=9)
        result = ProfileResult(configuration_id="cfgA", trace_name=trace.name)
        result.totals = MetricSet(accesses=1, footprint=2, energy_nj=3.0, cycles=4)
        result.per_level["main_memory"] = LevelMetrics("main_memory")
        path = tmp_path / "profile.log"
        write_log(path, [result], trace=trace, include_events=True)
        source = ProfilingLogSource(path)
        events = list(source.events())
        assert len(events) == len(trace)
        # Tags are not echoed into logs; every structural field survives.
        for original, rebuilt in zip(trace, events):
            assert rebuilt.kind == original.kind
            assert rebuilt.request_id == original.request_id
            assert rebuilt.timestamp == original.timestamp
            if original.is_alloc:
                assert rebuilt.size == original.size
        compiler = SegmentedTraceCompiler(trace.name)
        compiler.feed(events)
        assert compiler.slot_count == trace.summary().alloc_count
        # A configuration id that never appears yields nothing.
        assert list(ProfilingLogSource(path, configuration_id="ghost").events()) == []

    def test_synthetic_source_is_deterministic_and_bounded(self):
        source = SyntheticSource(operations=2000, live_limit=50, seed=12)
        first = list(source.events())
        second = list(SyntheticSource(operations=2000, live_limit=50, seed=12).events())
        assert first == second
        live = 0
        peak = 0
        for event in first:
            live += 1 if event.is_alloc else -1
            peak = max(peak, live)
        assert 0 < peak <= 50
        assert live == 0  # fully drained


class TestServerWorkloads:
    @pytest.mark.parametrize(
        "factory",
        [SessionChurnWorkload, RequestBurstWorkload, DiurnalWorkload],
        ids=["sessions", "requests", "diurnal"],
    )
    def test_deterministic_and_valid(self, factory):
        workload = factory()
        first = workload.generate(seed=3)
        second = workload.generate(seed=3)
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != workload.generate(seed=4).fingerprint()
        first.validate()
        assert workload.describe()

    def test_registered_in_the_registry(self):
        from repro.api import registry

        for name in ("sessions", "requests", "diurnal"):
            workload = registry.workloads.create(name)
            assert len(workload.generate(seed=0)) > 0


class TestWindows:
    def test_window_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec()
        with pytest.raises(ValueError):
            WindowSpec(events=10, time=10)
        with pytest.raises(ValueError):
            WindowSpec(events=0)
        assert WindowSpec(events=5).mode == "events"
        assert WindowSpec(time=5).mode == "time"

    def test_split_covers_every_event_in_order(self):
        trace = DiurnalWorkload(ticks=200).generate(seed=1)
        for spec in (WindowSpec(events=97), WindowSpec(time=37)):
            chunks = spec.split(trace)
            flat = [event for chunk in chunks for event in chunk]
            assert flat == list(trace)
            if spec.events is not None:
                assert all(len(chunk) == 97 for chunk in chunks[:-1])

    def test_windowed_totals_byte_identical_to_explore(self):
        trace = DiurnalWorkload(ticks=250).generate(seed=2)
        space = STANDARD_SPACES["smoke"]()
        reference = ExplorationEngine(space, trace).explore()
        engine = ExplorationEngine(space, trace)
        database, analysis = windowed_exploration(engine, WindowSpec(events=400))
        assert json.dumps(
            [r.as_dict() for r in reference], sort_keys=True, default=repr
        ) == json.dumps([r.as_dict() for r in database], sort_keys=True, default=repr)
        assert database.provenance.fingerprint == reference.provenance.fingerprint
        assert len(analysis) == len(WindowSpec(events=400).split(trace))
        assert analysis.configurations == len(database)

    WINDOW_CASES = {
        "events": lambda: (
            SessionChurnWorkload(ticks=250).generate(seed=6),
            WindowSpec(events=300),
            None,
            ExplorationSettings(),
            "smoke",
        ),
        "time": lambda: (
            SessionChurnWorkload(ticks=250).generate(seed=6),
            WindowSpec(time=60),
            None,
            ExplorationSettings(),
            "smoke",
        ),
        # Dedicated pools overflow the 2 KB scratchpad and spill; the
        # general pool runs out of its 16 KB.
        "spilling": lambda: (
            EasyportWorkload(packets=120).generate(seed=7),
            WindowSpec(events=150),
            embedded_two_level(scratchpad_size=2048, main_size=16384),
            ExplorationSettings(sample=6, sample_seed=2),
            "default",
        ),
    }

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_window_metrics_match_the_prefix_oracle(self, case, tmp_path):
        """Every window's metrics equal the difference of event-loop
        replays of the trace's prefixes, and each window front equals a
        batch Pareto over those vectors."""
        from repro.core.pareto import pareto_front_indices
        from repro.core.store import ResultStore

        trace, spec, hierarchy, settings, space_name = self.WINDOW_CASES[case]()
        store = ResultStore(tmp_path / "store.jsonl")
        engine = ExplorationEngine(
            STANDARD_SPACES[space_name](),
            trace,
            hierarchy=hierarchy,
            settings=settings,
            store=store,
        )
        _database, analysis = windowed_exploration(engine, spec)
        stops = list(itertools.accumulate(len(chunk) for chunk in spec.split(trace)))
        assert len(stops) == len(analysis) > 2
        per_config = {}
        spilled = out_of_memory = False
        for index, point in engine.enumerate_points():
            configuration = engine.configuration_for(
                point, label=f"{LABEL_PREFIX}{index:05d}"
            )
            previous = MetricSet()
            vectors = []
            for window, stop in enumerate(stops):
                built = engine.factory.build(configuration)
                prefix, _ = replay_event_loop(
                    Profiler(built.mapping, energy_model=engine.energy_model),
                    built.allocator,
                    AllocationTrace(trace.events[:stop], name=trace.name),
                    configuration.configuration_id,
                )
                totals = prefix.totals
                delta = MetricSet(
                    accesses=totals.accesses - previous.accesses,
                    footprint=totals.footprint,
                    energy_nj=totals.energy_nj - previous.energy_nj,
                    cycles=totals.cycles - previous.cycles,
                )
                stored = store.get(f"{engine.fingerprint}:w{window}", point)
                assert stored.metrics == delta, (case, index, window)
                vectors.append(delta.values(analysis.metrics))
                previous = totals
            spilled = spilled or any(
                prefix.per_pool[pool.name]["failed_allocs"]
                for pool in configuration.pools[:-1]
            )
            out_of_memory = out_of_memory or prefix.per_pool["__profile__"]["oom_failures"]
            per_config[configuration.configuration_id] = vectors
        store.close()
        if case == "spilling":
            assert spilled and out_of_memory
        labels = list(per_config)
        for window_index in range(len(analysis)):
            vectors = [per_config[label][window_index] for label in labels]
            winners = pareto_front_indices(vectors, key=lambda vector: vector)
            assert set(analysis.front_labels(window_index)) == {
                labels[i] for i in winners
            }

    def test_windows_build_no_allocator(self, monkeypatch):
        """Windowed exploration scores every point on the batch engine: it
        never builds a real allocator."""
        calls = []
        build = AllocatorFactory.build

        def counting_build(self, configuration):
            calls.append(configuration.configuration_id)
            return build(self, configuration)

        monkeypatch.setattr(AllocatorFactory, "build", counting_build)
        trace = DiurnalWorkload(ticks=150).generate(seed=5)
        engine = ExplorationEngine(STANDARD_SPACES["smoke"](), trace)
        database, analysis = windowed_exploration(engine, WindowSpec(events=200))
        assert len(database) == 8 and len(analysis) > 1
        assert calls == []

    def test_artifact_round_trip_and_report(self, tmp_path):
        trace = DiurnalWorkload(ticks=200).generate(seed=3)
        engine = ExplorationEngine(STANDARD_SPACES["smoke"](), trace)
        database, analysis = windowed_exploration(engine, WindowSpec(events=300))
        path = tmp_path / "windows.json"
        database.to_json(path)
        restored = ResultDatabase.from_json(path)
        assert restored.windows == json.loads(json.dumps(analysis.as_dict()))
        report = exploration_report(restored, title="windowed")
        assert "Windowed analysis" in report
        assert f"{len(analysis)} windows" in report
        # Ordinary artefacts carry no windows section.
        plain = tmp_path / "plain.json"
        ExplorationEngine(STANDARD_SPACES["smoke"](), trace).explore().to_json(plain)
        assert "windows" not in json.loads(plain.read_text())

    def test_window_aware_store_entries(self, tmp_path):
        from repro.core.store import ResultStore

        trace = SessionChurnWorkload(ticks=150).generate(seed=4)
        store = ResultStore(tmp_path / "store.jsonl")
        engine = ExplorationEngine(
            STANDARD_SPACES["smoke"](), trace, store=store
        )
        database, analysis = windowed_exploration(engine, WindowSpec(events=250))
        point = next(iter(STANDARD_SPACES["smoke"]().points()))
        assert store.get(engine.fingerprint, point) is not None
        for index in range(len(analysis)):
            entry = store.get(f"{engine.fingerprint}:w{index}", point)
            assert entry is not None
        assert store.get(f"{engine.fingerprint}:w{len(analysis)}", point) is None
        store.close()

    def test_dashboard_sink_reports_window_line(self):
        import io

        trace = DiurnalWorkload(ticks=150).generate(seed=5)
        engine = ExplorationEngine(STANDARD_SPACES["smoke"](), trace)
        stream = io.StringIO()
        sink = LiveDashboardSink(interval=0.0, stream=stream)
        database, analysis = windowed_exploration(
            engine, WindowSpec(events=200), sink=sink
        )
        lines = sink.status_lines()
        assert any(line.startswith("windows") for line in lines)
        window_line = next(line for line in lines if line.startswith("windows"))
        assert f"{len(analysis)} x 200 events" in window_line
        assert f"front[{len(analysis) - 1}]" in window_line
        assert sink.seen == len(database)
