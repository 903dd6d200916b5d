"""Tests for the columnar trace form and the trace-level caches.

The compiled form is the unit the fast replay loop iterates and the unit
the process-pool backend ships to workers, so it must (a) encode exactly
the replay-relevant information, (b) resolve frees to allocation slots the
way the legacy dict bookkeeping would, (c) pickle compactly, and (d) be
invalidated whenever the trace mutates.
"""

import pickle

import pytest

from repro.profiling.compiled import (
    NO_SLOT,
    CompiledTrace,
    SegmentedTraceCompiler,
    compile_trace,
)
from repro.profiling.events import EventKind, alloc, free
from repro.profiling.tracer import AllocationTrace


def simple_trace():
    return AllocationTrace(
        [alloc(0, 16, 0), alloc(1, 32, 1), free(0, 2), alloc(2, 16, 3), free(2, 4)],
        name="demo",
    )


class TestCompileTrace:
    def test_columns_match_events(self):
        trace = simple_trace()
        compiled = trace.compiled()
        assert list(compiled.kinds) == [1, 1, 0, 1, 0]
        assert list(compiled.sizes) == [16, 32, 0, 16, 0]
        assert list(compiled.request_ids) == [0, 1, 0, 2, 2]
        assert list(compiled.timestamps) == [0, 1, 2, 3, 4]
        assert len(compiled) == 5

    def test_slots_resolve_frees_to_allocations(self):
        compiled = simple_trace().compiled()
        # Allocations get dense slots in stream order; frees resolve to the
        # slot of the allocation they release.
        assert list(compiled.slots) == [0, 1, 0, 2, 2]
        assert compiled.slot_count == 3
        assert list(compiled.slot_sizes) == [16, 32, 16]

    def test_double_free_resolves_to_no_slot(self):
        trace = AllocationTrace([alloc(0, 8, 0), free(0, 1), free(0, 2)])
        assert list(trace.compiled().slots) == [0, 0, NO_SLOT]

    def test_free_of_unknown_id_resolves_to_no_slot(self):
        trace = AllocationTrace([free(7, 0), alloc(0, 8, 1)])
        assert list(trace.compiled().slots) == [NO_SLOT, 0]

    def test_reallocated_id_gets_fresh_slot(self):
        trace = AllocationTrace(
            [alloc(0, 8, 0), free(0, 1), alloc(0, 24, 2), free(0, 3)]
        )
        assert list(trace.compiled().slots) == [0, 0, 1, 1]
        assert list(trace.compiled().slot_sizes) == [8, 24]

    def test_fingerprint_carried_from_trace(self):
        trace = simple_trace()
        assert trace.compiled().fingerprint == trace.fingerprint()
        assert trace.compiled().name == "demo"

    def test_events_roundtrip_without_tags(self):
        trace = simple_trace()
        rebuilt = trace.compiled().events()
        assert rebuilt == trace.events
        tagged = AllocationTrace([alloc(0, 8, 0, tag="packet"), free(0, 1)])
        rebuilt = tagged.compiled().events()
        assert rebuilt[0].tag == ""  # tags are not preserved
        assert rebuilt[0].size == 8 and rebuilt[0].kind is EventKind.ALLOC


class TestCompiledPickle:
    def test_pickle_roundtrip(self):
        compiled = simple_trace().compiled()
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledTrace)
        assert clone.__getstate__() == compiled.__getstate__()

    def test_pickle_is_compact(self):
        events = []
        for index in range(5000):
            events.append(alloc(index, 16 + (index % 7) * 8, index))
            events.append(free(index, index + 1))
        trace = AllocationTrace(events, name="big")
        compiled_payload = pickle.dumps(
            trace.compiled(), protocol=pickle.HIGHEST_PROTOCOL
        )
        event_payload = pickle.dumps(trace.events, protocol=pickle.HIGHEST_PROTOCOL)
        # The columnar form is a fraction of the event-object pickle and
        # within a small constant of its raw array bytes.
        assert len(compiled_payload) < len(event_payload) / 2
        assert len(compiled_payload) < trace.compiled().nbytes() + 2048


class TestTraceCaches:
    def test_compiled_and_fingerprint_are_cached(self):
        trace = simple_trace()
        assert trace.compiled() is trace.compiled()
        assert trace.fingerprint() is trace.fingerprint()

    def test_append_invalidates_caches(self):
        trace = simple_trace()
        before_compiled = trace.compiled()
        before_fingerprint = trace.fingerprint()
        trace.append(alloc(9, 8, 9))
        assert trace.compiled() is not before_compiled
        assert trace.fingerprint() != before_fingerprint
        assert len(trace.compiled()) == 6

    def test_extend_invalidates_caches(self):
        trace = simple_trace()
        before = trace.fingerprint()
        trace.extend([alloc(9, 8, 9), free(9, 10)])
        assert trace.fingerprint() != before

    def test_events_assignment_invalidates_caches(self):
        trace = simple_trace()
        before = trace.fingerprint()
        trace.events = [alloc(0, 8, 0)]
        assert trace.fingerprint() != before
        assert len(trace) == 1

    def test_equality_matches_dataclass_semantics(self):
        assert simple_trace() == simple_trace()
        other = simple_trace()
        other.name = "other"
        assert simple_trace() != other


class TestFromCompiled:
    def test_replay_identity_without_materialising_events(self):
        trace = simple_trace()
        clone = AllocationTrace.from_compiled(trace.compiled())
        assert clone._events is None  # nothing materialised yet
        assert len(clone) == len(trace)
        assert clone.name == trace.name
        assert clone.fingerprint() == trace.fingerprint()
        assert clone._events is None  # still lazy after len/fingerprint
        assert clone.compiled() is trace.compiled()

    def test_events_materialise_on_demand(self):
        trace = simple_trace()
        clone = AllocationTrace.from_compiled(trace.compiled())
        assert clone.events == trace.events
        assert clone == trace

    def test_summary_and_hot_sizes_work_on_rebuilt_trace(self):
        trace = simple_trace()
        clone = AllocationTrace.from_compiled(trace.compiled())
        assert clone.summary().as_dict() == trace.summary().as_dict()
        assert clone.hot_sizes(top=2) == trace.hot_sizes(top=2)


class TestCompileFunction:
    def test_compile_empty(self):
        compiled = compile_trace([], name="empty")
        assert len(compiled) == 0 and compiled.slot_count == 0

    def test_compile_is_one_segment_stamped_with_the_fingerprint(self):
        trace = simple_trace()
        compiler = SegmentedTraceCompiler(trace.name)
        segment = compiler.feed(trace.events)
        compiled = compile_trace(trace.events, name=trace.name)
        assert columns(compiled) == columns(segment)
        assert segment.fingerprint == ""
        assert compiled.fingerprint == compiler.fingerprint() == trace.fingerprint()

    def test_rejects_nothing_on_malformed_traces(self):
        # compile is total: malformed streams (validate() would reject) still
        # lower, mirroring what the legacy replay loop tolerates.
        trace = AllocationTrace([alloc(0, 8, 5), alloc(0, 8, 3)])
        with pytest.raises(Exception):
            trace.validate()
        compiled = trace.compiled()
        assert list(compiled.slots) == [0, 1]


def columns(compiled):
    return {
        "kinds": list(compiled.kinds),
        "sizes": list(compiled.sizes),
        "request_ids": list(compiled.request_ids),
        "timestamps": list(compiled.timestamps),
        "slots": list(compiled.slots),
        "slot_sizes": list(compiled.slot_sizes),
        "slot_count": compiled.slot_count,
        "slot_base": compiled.slot_base,
        "has_live_rebinding": compiled.has_live_rebinding,
        "name": compiled.name,
    }
