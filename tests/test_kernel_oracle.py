"""Generative oracle: the three replay paths agree on random traces.

The batch kernel (:meth:`BatchReplayEngine.run_configuration`), the fast
single replay (:meth:`Profiler.run` on the columnar kernel) and the event
loop (reached through :func:`benchmarks._oracle.replay_event_loop`) must
produce byte-identical :class:`~repro.profiling.metrics.ProfileResult`\\ s.
The fixed-workload identity suites hold that on the standard traces; this
test draws the inputs instead: random traces (at most 600 allocations over
a small size palette, frees interleaved), random points of the ``vtc``
space and tight two-level hierarchies, where dedicated pools spill and the
general pool runs out of memory.  The batch kernel must serve every drawn
configuration without falling back to a single replay.

It also draws window boundaries: the batch engine's cumulative result at
each (:meth:`BatchReplayEngine.run_windows`) must equal the event loop's
replay of that prefix of the trace, apart from the ``__profile__`` section
only the last result carries, and the last must equal the whole-trace
result.

The example count is capped so the test costs seconds; it runs with and
without NumPy (the batch kernel's free-list scans have both paths).
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.configuration import configuration_from_point
from repro.core.factory import AllocatorFactory
from repro.core.space import vtc_parameter_space
from repro.memhier.hierarchy import embedded_two_level
from repro.profiling.batch import BatchReplayEngine
from repro.profiling.events import alloc, free
from repro.profiling.profiler import Profiler
from repro.profiling.tracer import AllocationTrace

from benchmarks._oracle import replay_event_loop

SPACE = vtc_parameter_space()

#: Request sizes a drawn trace picks its palette from.
SIZES = (8, 12, 16, 24, 32, 40, 64, 74, 100, 128, 200, 256, 512, 1024, 3000)


def random_trace(seed, allocations, palette, free_rate, drain):
    """``allocations`` ALLOCs over ``palette``, each followed with
    probability ``free_rate`` by the FREE of a random live request; with
    ``drain`` the survivors are freed at the end, else they leak."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 8) for _ in palette]
    events = []
    live = []
    for request in range(allocations):
        size = rng.choices(palette, weights)[0]
        events.append(alloc(request, size, len(events)))
        live.append(request)
        while live and rng.random() < free_rate:
            events.append(free(live.pop(rng.randrange(len(live))), len(events)))
    if drain:
        rng.shuffle(live)
        events.extend(free(request, len(events) + i) for i, request in enumerate(live))
    return AllocationTrace(events, name="drawn")


traces = st.builds(
    random_trace,
    seed=st.integers(0, 2**32 - 1),
    allocations=st.integers(1, 600),
    palette=st.lists(st.sampled_from(SIZES), min_size=1, max_size=5, unique=True),
    free_rate=st.floats(0.0, 0.9),
    drain=st.booleans(),
)


#: A ``vtc``-space point, each parameter drawn on its own.
points = st.fixed_dictionaries(
    {parameter.name: st.sampled_from(parameter.values) for parameter in SPACE}
)


def result_bytes(result):
    return json.dumps(result.as_dict(), sort_keys=True, default=repr).encode()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    trace=traces,
    point=points,
    scratchpad_size=st.integers(256, 64 * 1024),
    main_size=st.integers(2 * 1024, 4 * 1024 * 1024),
    cuts=st.lists(st.integers(1, 2 * 600), max_size=6),
)
def test_batch_fast_and_event_loop_agree(trace, point, scratchpad_size, main_size, cuts):
    hierarchy = embedded_two_level(scratchpad_size=scratchpad_size, main_size=main_size)
    factory = AllocatorFactory(hierarchy)
    configuration = configuration_from_point(
        point,
        hot_sizes=trace.hot_sizes(top=8),
        scratchpad_module=hierarchy.fastest.name,
        main_module=hierarchy.background_module.name,
        label="drawn",
    )
    engine = BatchReplayEngine(trace, factory)
    batch = engine.run_configuration(configuration)
    assert engine.fallback_configurations == 0

    built = factory.build(configuration)
    fast = Profiler(built.mapping).run(built.allocator, trace, "drawn")
    built = factory.build(configuration)
    loop, _ = replay_event_loop(Profiler(built.mapping), built.allocator, trace, "drawn")

    assert result_bytes(batch) == result_bytes(loop)
    assert result_bytes(fast) == result_bytes(loop)

    boundaries = sorted({cut for cut in cuts if cut < len(trace)} | {len(trace)})
    windows = BatchReplayEngine(trace, factory, boundaries=boundaries).run_windows(
        configuration
    )
    assert len(windows) == len(boundaries)
    assert result_bytes(windows[-1]) == result_bytes(batch)
    for stop, window in zip(boundaries[:-1], windows):
        built = factory.build(configuration)
        prefix = AllocationTrace(trace.events[:stop], name=trace.name)
        loop, _ = replay_event_loop(Profiler(built.mapping), built.allocator, prefix, "drawn")
        del loop.per_pool["__profile__"]
        assert result_bytes(window) == result_bytes(loop), stop
