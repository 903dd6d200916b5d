"""Experiment STREAM-SCALE: bounded-memory ingestion of a million-event log.

Measures the streaming pipeline (`repro.stream`) that lets trace logs far
beyond the in-memory ``AllocationTrace`` container flow through the
segmented compiler and the segment replay session: a synthetic server log
is written to disk event by event, streamed back through
``TraceFileSource``, compiled in ``DEFAULT_SEGMENT_EVENTS``-sized chunks
and replayed against a real allocator configuration.  Two promises are
asserted:

1. **Memory is bounded by the segment size, not the stream length** — the
   ``tracemalloc`` peak of a 10x longer stream stays within a constant
   factor of the short stream's peak (and under an absolute budget), so
   the pipeline really is O(segment), and
2. **streaming is not a different answer** — the streamed
   ``ProfileResult`` is byte-identical to the one-shot in-memory
   compile-and-replay of the same events.

An ungated ``windows`` row times windowed exploration against a plain
sweep of the same points (``diurnal`` x ``compact``) and asserts that the
two end in identical records.

Full runs write ``BENCH_stream.json`` in the repository root, quick runs
the git-ignored ``BENCH_stream.quick.json``, which the CI bench-smoke job
uploads as an artifact after hard-gating its identity flag.  Plain pytest
runs stream 10⁵ events; ``BENCH_STREAM_FULL=1`` — ``make bench-stream-full``
— runs the dedicated 10⁶-event measurement.

Run with ``pytest benchmarks/test_stream_scale.py -s``.
"""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.api import registry
from repro.core.configuration import configuration_from_point
from repro.core.exploration import ExplorationEngine
from repro.core.factory import AllocatorFactory
from repro.core.space import STANDARD_SPACES
from repro.memhier.hierarchy import embedded_two_level
from repro.profiling.profiler import Profiler
from repro.stream import (
    DEFAULT_SEGMENT_EVENTS,
    SyntheticSource,
    TraceFileSource,
    WindowSpec,
    stream_profile,
    windowed_exploration,
)
from repro.workloads.traces import load_trace

from .common import SEED, print_table, write_bench_json

#: ``BENCH_STREAM_FULL=1`` switches to the dedicated 10⁶-event log.
_FULL_ENV = bool(os.environ.get("BENCH_STREAM_FULL"))

#: Events streamed per mode (the short run is EVENTS // 10).
EVENTS = 1_000_000 if _FULL_ENV else 100_000

#: Live allocations the synthetic log keeps outstanding at any moment.
LIVE_LIMIT = 256

#: Segment size for the memory measurement — small enough that both the
#: short and the long stream span many segments, so a flat peak can only
#: mean the pipeline is O(segment), never "the stream fit in one segment".
MEMORY_SEGMENT_EVENTS = 8192

#: The long stream's traced peak may exceed the 10x shorter stream's by at
#: most this factor: memory tracks the segment, not the stream.  (The peak
#: converges to a plateau set by the segment plus the allocator's bounded
#: live state; the short baseline sits slightly before that plateau.)
PEAK_GROWTH_LIMIT = 2.0

#: Quarter-sized segments on the same stream must lower the peak — the
#: direct form of "memory is a function of the segment size".
SMALL_SEGMENT_EVENTS = MEMORY_SEGMENT_EVENTS // 4

#: Absolute ceiling on the traced peak (bytes) — a generous multiple of
#: one compiled segment plus the allocator/profiler state.
PEAK_BUDGET = 64 * 1024 * 1024

#: Collected by the tests in this module, written once at module teardown.
_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_ledger():
    """Write the module's BENCH_stream document after its measurements ran."""
    yield
    if not _RESULTS:  # pragma: no cover - nothing measured
        return
    document = {
        "benchmark": "stream_scale",
        "events": EVENTS,
        "segment_events": DEFAULT_SEGMENT_EVENTS,
        "live_limit": LIVE_LIMIT,
        "seed": SEED,
        "peak_growth_limit": PEAK_GROWTH_LIMIT,
        "peak_budget_bytes": PEAK_BUDGET,
        **_RESULTS,
    }
    write_bench_json("stream", "full" if _FULL_ENV else "quick", document)


def write_log(path: Path, operations: int) -> int:
    """Stream a synthetic server log to ``path`` one event at a time."""
    source = SyntheticSource(operations=operations, live_limit=LIVE_LIMIT, seed=SEED)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# trace stream-bench\n")
        for event in source.events():
            if event.is_alloc:
                handle.write(f"A {event.request_id} {event.size} {event.timestamp}\n")
            else:
                handle.write(f"F {event.request_id} {event.timestamp}\n")
            count += 1
    return count


def built_configuration():
    """One representative smoke-space configuration to replay against."""
    hierarchy = embedded_two_level()
    point = STANDARD_SPACES["smoke"]().sample(1, seed=3)[0]
    # The streamed log's size profile is fixed, so the hot sizes are too.
    hot_sizes = sorted(SyntheticSource(operations=1).sizes)[:8]
    configuration = configuration_from_point(
        point,
        hot_sizes=hot_sizes,
        scratchpad_module=hierarchy.fastest.name,
        main_module=hierarchy.background_module.name,
    )
    return AllocatorFactory(hierarchy), configuration


def stream_once(
    path: Path, trace_memory: bool, segment_events: int = DEFAULT_SEGMENT_EVENTS
):
    """Stream the log through compile+replay; return (outcome, s, peak)."""
    factory, configuration = built_configuration()
    built = factory.build(configuration)
    source = TraceFileSource(path)
    if trace_memory:
        tracemalloc.start()
    start = time.perf_counter()
    outcome = stream_profile(
        source,
        built.mapping,
        built.allocator,
        segment_events=segment_events,
        configuration_id=configuration.configuration_id,
    )
    elapsed = time.perf_counter() - start
    peak = 0
    if trace_memory:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return outcome, elapsed, peak


def test_throughput_and_bounded_memory(tmp_path_factory):
    """A 10x longer log streams at a flat memory peak (O(segment))."""
    base = tmp_path_factory.mktemp("stream_scale")
    long_path = base / "long.trace"
    short_path = base / "short.trace"
    long_events = write_log(long_path, EVENTS)
    short_events = write_log(short_path, EVENTS // 10)

    # Throughput without the tracemalloc overhead, then the memory runs at
    # a segment size both streams span many times over.
    outcome, elapsed, _ = stream_once(long_path, trace_memory=False)
    assert outcome.events == long_events
    assert outcome.segments == -(-long_events // DEFAULT_SEGMENT_EVENTS)
    _outcome_s, _elapsed_s, short_peak = stream_once(
        short_path, trace_memory=True, segment_events=MEMORY_SEGMENT_EVENTS
    )
    outcome_m, _elapsed_m, long_peak = stream_once(
        long_path, trace_memory=True, segment_events=MEMORY_SEGMENT_EVENTS
    )
    assert outcome_m.fingerprint == outcome.fingerprint
    _outcome_q, _elapsed_q, small_segment_peak = stream_once(
        long_path, trace_memory=True, segment_events=SMALL_SEGMENT_EVENTS
    )

    growth = long_peak / short_peak
    events_per_s = long_events / elapsed
    _RESULTS["throughput"] = {
        "events": long_events,
        "stream_s": round(elapsed, 3),
        "events_per_s": round(events_per_s),
        "log_bytes": long_path.stat().st_size,
    }
    _RESULTS["memory"] = {
        "segment_events": MEMORY_SEGMENT_EVENTS,
        "small_segment_events": SMALL_SEGMENT_EVENTS,
        "short_events": short_events,
        "short_peak_bytes": short_peak,
        "long_peak_bytes": long_peak,
        "small_segment_peak_bytes": small_segment_peak,
        "peak_growth_10x_stream": round(growth, 3),
        "bounded_by_segment": bool(
            growth <= PEAK_GROWTH_LIMIT
            and small_segment_peak < long_peak
            and long_peak <= PEAK_BUDGET
        ),
    }
    print_table(
        f"Streaming ingestion at {long_events} events",
        [
            ("events", long_events, f"{outcome.segments} segments"),
            ("stream", f"{elapsed:.2f} s", f"{events_per_s:,.0f} events/s"),
            ("peak (short)", short_peak, f"{short_events} events"),
            ("peak (long)", long_peak, f"{long_events} events"),
            ("peak growth", f"x{growth:.2f}", f"<= {PEAK_GROWTH_LIMIT} (10x stream)"),
            (
                "peak (1/4 segments)",
                small_segment_peak,
                f"< {long_peak} (peak tracks segment size)",
            ),
        ],
        ("quantity", "measured", "note"),
    )
    assert growth <= PEAK_GROWTH_LIMIT, (
        f"peak grew x{growth:.2f} for a 10x longer stream — memory is not "
        f"bounded by the segment size"
    )
    assert small_segment_peak < long_peak, (
        "quarter-sized segments did not lower the peak — memory is not a "
        "function of the segment size"
    )
    assert long_peak <= PEAK_BUDGET, (
        f"traced peak {long_peak} bytes exceeds the {PEAK_BUDGET}-byte budget"
    )


def test_streamed_result_is_byte_identical_to_oneshot(tmp_path):
    """The streamed profile equals the in-memory one-shot replay, exactly."""
    path = tmp_path / "identity.trace"
    events = write_log(path, 20_000)
    streamed, _elapsed, _peak = stream_once(path, trace_memory=False)

    factory, configuration = built_configuration()
    built = factory.build(configuration)
    # Both readers name the run after the file's ``# trace NAME`` header.
    trace = load_trace(path)
    assert len(trace) == events
    oneshot = Profiler(built.mapping).run(
        built.allocator, trace, configuration.configuration_id
    )
    streamed_bytes = json.dumps(
        streamed.result.as_dict(), sort_keys=True, default=repr
    )
    oneshot_bytes = json.dumps(oneshot.as_dict(), sort_keys=True, default=repr)
    identical = streamed_bytes == oneshot_bytes
    _RESULTS["identity"] = {
        "events": events,
        "identical_result": identical,
        "fingerprint_matches": streamed.fingerprint == trace.fingerprint(),
    }
    print_table(
        "Segmented vs one-shot replay",
        [
            ("events", events, "-"),
            ("identical result", identical, "hard gate"),
            (
                "fingerprint",
                streamed.fingerprint == trace.fingerprint(),
                "stream == trace",
            ),
        ],
        ("quantity", "measured", "note"),
    )
    assert identical
    assert streamed.fingerprint == trace.fingerprint()


def test_windows_against_explore():
    """Windowed exploration against a plain sweep of the same points.

    ``diurnal`` x ``compact`` at the CLI's default 1000-event windows, both
    sides best of the same interleaved rounds (three in full mode, one in
    quick mode).  No time gate: the row records both times and their
    ratio, and asserts that the windowed run ends in the sweep's records.
    """
    trace = registry.workloads.create("diurnal").generate(seed=1)
    trace.compiled()  # compile once up front, as both paths would share it
    space = STANDARD_SPACES["compact"]()
    spec = WindowSpec(events=1000)
    windows_rounds: list[float] = []
    explore_rounds: list[float] = []
    for _ in range(3 if _FULL_ENV else 1):
        gc.collect()
        start = time.perf_counter()
        windowed, analysis = windowed_exploration(ExplorationEngine(space, trace), spec)
        windows_rounds.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        explored = ExplorationEngine(space, trace).explore()
        explore_rounds.append(time.perf_counter() - start)
    identical = [record.as_dict() for record in windowed] == [
        record.as_dict() for record in explored
    ]
    windows_s = min(windows_rounds)
    explore_s = min(explore_rounds)
    _RESULTS["windows"] = {
        "workload": "diurnal",
        "space": "compact",
        "points": len(windowed),
        "events": len(trace),
        "window_events": spec.size,
        "windows": len(analysis),
        "windows_s": round(windows_s, 3),
        "explore_s": round(explore_s, 3),
        "windows_s_rounds": [round(seconds, 3) for seconds in windows_rounds],
        "explore_s_rounds": [round(seconds, 3) for seconds in explore_rounds],
        "windows_over_explore": round(windows_s / explore_s, 2),
        "identical_records": identical,
    }
    print_table(
        "Windowed exploration vs plain sweep (diurnal x compact)",
        [
            ("points x windows", f"{len(windowed)} x {len(analysis)}", "-"),
            ("windows", f"{windows_s:.2f} s", "-"),
            ("explore", f"{explore_s:.2f} s", "-"),
            ("windows / explore", f"x{windows_s / explore_s:.2f}", "no gate"),
            ("identical final records", identical, "hard gate"),
        ],
        ("quantity", "measured", "note"),
    )
    assert identical
