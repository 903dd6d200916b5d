"""Experiment EVAL-SPEED: the columnar evaluation fast path.

Every explored configuration costs one full trace replay — the paper's
"simulation of our dynamic application" step, the dominant cost the DATE'06
flow parallelises around.  This benchmark measures that kernel
across the three generations that exist in this repository:

* **seed** — the original hot path (event-object loop, per-event
  ``accepts()`` dispatch scan, helper-method counters, O(n) LIFO free
  list), kept as an executable snapshot in :mod:`benchmarks._seed_replay`;
* **legacy** — the current event-object loop (reached through
  :func:`benchmarks._oracle.event_loop`), which already benefits from the
  allocator-level rewrites (routing table, O(1) LIFO, inlined counters);
* **fast** — the default replay path: a
  :class:`~repro.profiling.profiler.SegmentReplaySession` splits the
  compiled columns into one stream per pool and replays fixed pools on
  :class:`~repro.profiling.profiler.FixedPoolKernel`, the fixed-pool
  kernel the batch engine runs too;
* **batched** — the batch replay engine
  (:class:`repro.profiling.batch.BatchReplayEngine`), which amortises one
  trace sweep across every configuration of an exhaustive sweep by sharing
  pool-group simulations;
* **batched_spill** — the same sweep on a starved hierarchy, where dedicated
  pools spill to the general pool and the general pool runs out of memory.

All generations must produce byte-identical metrics; the headline targets
are **fast ≥ 5× seed** on the replay microbenchmark and **batched ≥ 10×
single fast** per point on the exhaustive compact-space sweep.  Full and
dedicated runs write ``BENCH_eval.json`` in the repository root — the
baseline future performance PRs are measured against; quick runs write the
git-ignored ``BENCH_eval.quick.json``, whose ``batched.identical_metrics``
flag (and ``batched_spill``'s identity flag and zero fallback count) the CI
bench-smoke job asserts before uploading it as an artifact.

Sizing: 30 000 Easyport packets (8 000 for the sweep) in dedicated
benchmark runs (``--benchmark-only``), 12 000 (2 000) in plain test /
CI-smoke runs.

Run with ``pytest benchmarks/test_eval_speed.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.configuration import configuration_from_point
from repro.core.exploration import (
    ExplorationEngine,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.core.factory import AllocatorFactory
from repro.core.space import compact_parameter_space, smoke_parameter_space
from repro.memhier.hierarchy import embedded_two_level
from repro.profiling.batch import BatchReplayEngine
from repro.profiling.profiler import Profiler
from repro.workloads.easyport import EasyportWorkload

from ._oracle import event_loop, replay_event_loop
from ._seed_replay import SeedProfiler, seedify_allocator
from .common import SEED, print_table, write_bench_json

#: The replay-loop speedup the columnar fast path must deliver over the
#: seed implementation (the PR 5 acceptance target).
TARGET_SPEEDUP_VS_SEED = 5.0

#: The per-point speedup the batch replay engine must deliver over the
#: single fast replay on an exhaustive standard-space sweep (the PR 6
#: acceptance target, asserted in dedicated benchmark runs).
TARGET_BATCHED_SPEEDUP = 10.0

#: Representative configuration: dedicated fixed pools for the hot sizes in
#: the scratchpad in front of a plain general pool — the paper's
#: methodology, and the shape explorations evaluate thousands of times.
REPLAY_POINT = {
    "num_dedicated_pools": 5,
    "dedicated_pool_kind": "fixed",
    "dedicated_pool_placement": "scratchpad",
    "general_free_list": "lifo",
    "general_fit": "first_fit",
    "general_coalescing": "never",
    "general_splitting": "never",
    "chunk_size": 4096,
}

#: Collected by the tests in this module, written once at module teardown.
_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_ledger(request):
    """Write the module's BENCH_eval document after its measurements ran."""
    yield
    if not _RESULTS:  # pragma: no cover - nothing measured
        return
    dedicated = request.config.getoption("--benchmark-only", default=False)
    mode = "benchmark" if dedicated else ("full" if _FULL_ENV else "quick")
    document = {"benchmark": "eval_speed", "seed": SEED, **_RESULTS}
    write_bench_json("eval", mode, document)


#: ``BENCH_EVAL_FULL=1`` runs the full (dedicated-size, target-asserting)
#: measurements inside a plain pytest run, so one ``make bench-eval-full``
#: invocation produces a complete BENCH_eval.json — ``--benchmark-only``
#: would skip every test that does not use the ``benchmark`` fixture.
_FULL_ENV = bool(os.environ.get("BENCH_EVAL_FULL"))


def _packets(request) -> int:
    dedicated = request.config.getoption("--benchmark-only", default=False)
    return 30_000 if dedicated or _FULL_ENV else 12_000


def _configuration(trace, hierarchy):
    return configuration_from_point(
        REPLAY_POINT,
        hot_sizes=trace.hot_sizes(top=8),
        scratchpad_module=hierarchy.fastest.name,
        main_module=hierarchy.background_module.name,
    )


def _time_replay(factory, configuration, trace, make_profiler, prepare=None, rounds=5):
    """Best-of-N wall time of the replay *only*.

    The allocator is built (and optionally downgraded to the seed classes)
    outside the timed region — the microbenchmark measures the replay loop,
    not configuration construction — and a GC sweep runs before each round
    so one implementation's garbage is never charged to the next.
    """
    import gc

    best = float("inf")
    result = None
    for _ in range(rounds):
        built = factory.build(configuration)
        allocator = prepare(built.allocator) if prepare else built.allocator
        profiler = make_profiler(built.mapping)
        gc.collect()
        start = time.perf_counter()
        result = profiler.run(allocator, trace, "bench")
        best = min(best, time.perf_counter() - start)
    return best, result


def test_replay_loop_speedup(benchmark, request):
    """Replay microbenchmark: seed vs legacy vs compiled fast path.

    One trace, one representative configuration, three replay
    implementations; metrics must agree bit for bit, and the fast path must
    clear :data:`TARGET_SPEEDUP_VS_SEED` over the seed implementation.
    """
    trace = EasyportWorkload(packets=_packets(request)).generate(seed=SEED)
    events = len(trace)
    hierarchy = embedded_two_level()
    factory = AllocatorFactory(hierarchy)
    configuration = _configuration(trace, hierarchy)
    trace.compiled()  # compile once up front, as an exploration would

    seed_seconds, seed_result = _time_replay(
        factory, configuration, trace, SeedProfiler, prepare=seedify_allocator
    )
    legacy_seconds, legacy_result = _time_replay(
        factory, configuration, trace, Profiler, prepare=event_loop
    )

    def fast_setup():
        import gc

        built = factory.build(configuration)
        gc.collect()
        return (built,), {}

    def fast_target(built):
        return Profiler(built.mapping).run(built.allocator, trace, "bench")

    fast_result = benchmark.pedantic(
        fast_target, setup=fast_setup, rounds=5, warmup_rounds=1
    )
    fast_seconds = benchmark.stats.stats.min

    # Byte-identity across all three generations.
    def as_bytes(result):
        return json.dumps(result.as_dict(), sort_keys=True, default=repr)

    assert as_bytes(fast_result) == as_bytes(legacy_result) == as_bytes(seed_result)

    speedup_seed = seed_seconds / fast_seconds
    speedup_legacy = legacy_seconds / fast_seconds
    dedicated = request.config.getoption("--benchmark-only", default=False)
    # Dedicated runs must clear the acceptance target.  Quick runs execute
    # on shared CI runners where wall-clock ratios can wobble, so they only
    # sanity-check the direction and *record* the ratio in BENCH_eval.json.
    floor = TARGET_SPEEDUP_VS_SEED if dedicated else 1.5
    _RESULTS["replay"] = {
        "events": events,
        "seed_events_per_s": round(events / seed_seconds),
        "legacy_events_per_s": round(events / legacy_seconds),
        "fast_events_per_s": round(events / fast_seconds),
        "speedup_vs_seed": round(speedup_seed, 2),
        "speedup_vs_legacy": round(speedup_legacy, 2),
        "target_vs_seed": TARGET_SPEEDUP_VS_SEED,
        # The floor this run was actually held to: the full target in
        # dedicated benchmark runs, a direction check in quick/CI runs —
        # so a quick-mode ratio below the headline target is not a
        # regression as long as it clears targets[mode].
        "targets": {"dedicated": TARGET_SPEEDUP_VS_SEED, "quick": 1.5},
        "target_this_mode": floor,
        "identical_metrics": True,
    }
    print_table(
        "Replay loop: seed vs legacy vs compiled fast path",
        [
            ("events", events, "-"),
            ("seed replay", f"{seed_seconds * 1e3:.1f} ms", f"{events / seed_seconds:,.0f} ev/s"),
            ("legacy loop", f"{legacy_seconds * 1e3:.1f} ms", f"{events / legacy_seconds:,.0f} ev/s"),
            ("compiled fast path", f"{fast_seconds * 1e3:.1f} ms", f"{events / fast_seconds:,.0f} ev/s"),
            ("speedup vs seed", f"x{speedup_seed:.2f}", f">= {TARGET_SPEEDUP_VS_SEED}"),
            ("speedup vs legacy loop", f"x{speedup_legacy:.2f}", "-"),
        ],
        ("quantity", "measured", "note"),
    )
    assert speedup_seed >= floor, (
        f"fast path is only x{speedup_seed:.2f} over the seed replay "
        f"(target x{floor})"
    )
    assert speedup_legacy > 1.0


def test_per_point_latency(request):
    """Per-point evaluation latency through the engine (the explore unit)."""
    trace = EasyportWorkload(packets=_packets(request) // 3).generate(seed=SEED)
    engine = ExplorationEngine(smoke_parameter_space(), trace)
    items = [
        (point, f"bench{index:03d}")
        for index, point in enumerate(engine.space.points())
    ]
    start = time.perf_counter()
    records = engine.evaluate_points(items)
    elapsed = time.perf_counter() - start
    per_point_ms = elapsed / len(items) * 1e3
    _RESULTS["per_point"] = {
        "points": len(items),
        "trace_events": len(trace),
        "serial_point_ms": round(per_point_ms, 3),
        "events_per_s": round(len(trace) * len(items) / elapsed),
    }
    print_table(
        "Per-point profiling latency (serial engine)",
        [
            ("points", len(items), "-"),
            ("trace events", len(trace), "-"),
            ("latency per point", f"{per_point_ms:.2f} ms", "-"),
            ("throughput", f"{len(trace) * len(items) / elapsed:,.0f} ev/s", "-"),
        ],
        ("quantity", "measured", "note"),
    )
    assert len(records) == len(items)


def _compact_sweep(trace, hierarchy):
    """Every point of the compact space as a configuration for ``trace``."""
    hot_sizes = trace.hot_sizes(top=8)
    return [
        configuration_from_point(
            point,
            hot_sizes=hot_sizes,
            scratchpad_module=hierarchy.fastest.name,
            main_module=hierarchy.background_module.name,
            label=f"sweep{index:05d}",
        )
        for index, point in enumerate(compact_parameter_space().points())
    ]


def _paired_rounds(trace, factory, configurations, rounds):
    """Time the batched and the single fast sweep in interleaved rounds.

    Each round times a fresh :class:`BatchReplayEngine` over the sweep (the
    engine's group caches are the thing under test, so each round starts
    cold; its construction is not timed), then the single fast replay of
    every point, configuration build included.  A GC sweep runs before
    each side, and alternating the sides lets machine-load drift hit both
    equally.  Returns ``(batched_seconds, single_seconds, engine,
    batched_results, single_results)``: the per-round times of each side,
    and the last round's engine and results.
    """
    import gc

    batched_seconds: list[float] = []
    single_seconds: list[float] = []
    for _ in range(rounds):
        engine = BatchReplayEngine(trace, factory)
        gc.collect()
        start = time.perf_counter()
        batched_results = engine.run_configurations(configurations)
        batched_seconds.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        single_results = []
        for configuration in configurations:
            built = factory.build(configuration)
            profiler = Profiler(built.mapping)
            single_results.append(
                profiler.run(built.allocator, trace, configuration.configuration_id)
            )
        single_seconds.append(time.perf_counter() - start)
    return batched_seconds, single_seconds, engine, batched_results, single_results


def _identical(trace, factory, configurations, batched_results, single_results):
    """Whether every batched result equals the single fast replay and a
    sample equals the legacy event loop (~2 orders slower than the batched
    sweep, so it is sampled to keep the benchmark runnable)."""

    def as_bytes(result):
        return json.dumps(result.as_dict(), sort_keys=True, default=repr)

    identical = all(
        as_bytes(batched) == as_bytes(single)
        for batched, single in zip(batched_results, single_results)
    )
    for index in range(0, len(configurations), max(1, len(configurations) // 8)):
        configuration = configurations[index]
        built = factory.build(configuration)
        legacy, _ = replay_event_loop(
            Profiler(built.mapping), built.allocator, trace, configuration.configuration_id
        )
        identical = identical and as_bytes(batched_results[index]) == as_bytes(legacy)
    return identical


def test_batched_sweep_speedup(benchmark, request):
    """Exhaustive compact-space sweep: batch replay engine vs single fast.

    One trace, every point of the compact space.  The batch engine scores
    the whole sweep off shared pool-group simulations; the single fast
    replay profiles each point independently (the PR 5 state of the art).
    Metrics must match the single fast replay on *every* point and the
    legacy event loop on a sample — that is the ``identical_metrics`` flag
    the CI bench-smoke job asserts.
    """
    dedicated = (
        request.config.getoption("--benchmark-only", default=False) or _FULL_ENV
    )
    packets = 8_000 if dedicated else 2_000
    trace = EasyportWorkload(packets=packets).generate(seed=SEED)
    events = len(trace)
    hierarchy = embedded_two_level()
    factory = AllocatorFactory(hierarchy)
    configurations = _compact_sweep(trace, hierarchy)
    trace.compiled()  # compile once up front, as an exploration would

    # Both sides best of the same interleaved rounds; the benchmark fixture
    # times the pairs, so the test also runs under --benchmark-only.
    batched_rounds, single_rounds, engine, batched_results, single_results = (
        benchmark.pedantic(
            _paired_rounds,
            args=(trace, factory, configurations, 3 if dedicated else 2),
            rounds=1,
        )
    )
    batched_seconds = min(batched_rounds)
    single_seconds = min(single_rounds)
    identical = _identical(
        trace, factory, configurations, batched_results, single_results
    )

    points = len(configurations)
    speedup = single_seconds / batched_seconds
    _RESULTS["batched"] = {
        "space": "compact",
        "points": points,
        "events": events,
        "batched_s": round(batched_seconds, 3),
        "single_fast_s": round(single_seconds, 3),
        # Every round of each side, in order: the spread of the best-of.
        "batched_s_rounds": [round(seconds, 3) for seconds in batched_rounds],
        "single_fast_s_rounds": [round(seconds, 3) for seconds in single_rounds],
        "batched_point_ms": round(batched_seconds / points * 1e3, 3),
        "single_point_ms": round(single_seconds / points * 1e3, 3),
        "batched_events_per_s": round(events * points / batched_seconds),
        "speedup_vs_single_fast": round(speedup, 2),
        "target_speedup": TARGET_BATCHED_SPEEDUP,
        # Per-mode floors: quick runs only direction-check (see the replay
        # section); compare speedup_vs_single_fast against targets[mode].
        "targets": {"dedicated": TARGET_BATCHED_SPEEDUP, "quick": 1.5},
        "target_this_mode": (
            TARGET_BATCHED_SPEEDUP if dedicated else 1.5
        ),
        "identical_metrics": identical,
        "batched_configurations": engine.batched_configurations,
        "fallback_configurations": engine.fallback_configurations,
    }
    print_table(
        "Batched sweep: batch replay engine vs single fast replay (compact space)",
        [
            ("points x events", f"{points} x {events}", "-"),
            ("batched sweep", f"{batched_seconds:.2f} s", f"{batched_seconds / points * 1e3:.2f} ms/pt"),
            ("single fast sweep", f"{single_seconds:.2f} s", f"{single_seconds / points * 1e3:.2f} ms/pt"),
            ("speedup per point", f"x{speedup:.1f}", f">= {TARGET_BATCHED_SPEEDUP} (dedicated)"),
            ("identical metrics", identical, "required"),
        ],
        ("quantity", "measured", "note"),
    )
    assert identical
    # Dedicated runs must clear the acceptance target; quick runs execute on
    # shared CI runners without NumPy, so they only check the direction.
    floor = TARGET_BATCHED_SPEEDUP if dedicated else 1.5
    assert speedup >= floor, (
        f"batched sweep is only x{speedup:.2f} over single fast replay "
        f"(target x{floor})"
    )


def test_batched_spill_sweep(request):
    """The compact sweep on a starved hierarchy: spills stay in the kernel.

    A 2 KB scratchpad overflows the dedicated pools mid-trace and a 16 KB
    main memory starves the general pool, so spilled allocations reach the
    general stream and some of them run out of memory there too.  Every
    point must still be served by the batch kernel (``fallback_configurations
    == 0``, asserted by CI bench-smoke) and match both oracles.
    """
    dedicated = (
        request.config.getoption("--benchmark-only", default=False) or _FULL_ENV
    )
    packets = 8_000 if dedicated else 2_000
    trace = EasyportWorkload(packets=packets).generate(seed=SEED)
    hierarchy = embedded_two_level(scratchpad_size=2048, main_size=16384)
    factory = AllocatorFactory(hierarchy)
    configurations = _compact_sweep(trace, hierarchy)
    trace.compiled()

    batched_rounds, single_rounds, engine, batched_results, single_results = (
        _paired_rounds(trace, factory, configurations, 3 if dedicated else 2)
    )
    batched_seconds = min(batched_rounds)
    single_seconds = min(single_rounds)
    identical = _identical(
        trace, factory, configurations, batched_results, single_results
    )
    spilling = sum(1 for group in engine._dedicated_cache.values() if group.spilled)
    points = len(configurations)
    _RESULTS["batched_spill"] = {
        "space": "compact",
        "hierarchy": "embedded_two_level(scratchpad_size=2048, main_size=16384)",
        "points": points,
        "events": len(trace),
        "batched_s": round(batched_seconds, 3),
        "single_fast_s": round(single_seconds, 3),
        "batched_s_rounds": [round(seconds, 3) for seconds in batched_rounds],
        "single_fast_s_rounds": [round(seconds, 3) for seconds in single_rounds],
        "speedup_vs_single_fast": round(single_seconds / batched_seconds, 2),
        "identical_metrics": identical,
        "batched_configurations": engine.batched_configurations,
        "fallback_configurations": engine.fallback_configurations,
        "spilling_dedicated_groups": spilling,
    }
    print_table(
        "Batched sweep on a starved hierarchy: spills inside the kernel",
        [
            ("points x events", f"{points} x {len(trace)}", "-"),
            ("batched sweep", f"{batched_seconds:.2f} s", "-"),
            ("single fast sweep", f"{single_seconds:.2f} s", "-"),
            ("spilling dedicated groups", spilling, "> 0"),
            ("fallback configurations", engine.fallback_configurations, "0"),
            ("identical metrics", identical, "required"),
        ],
        ("quantity", "measured", "note"),
    )
    assert identical
    assert engine.fallback_configurations == 0
    assert spilling > 0, "the starved hierarchy never spilled; shrink it"


def test_serial_vs_pool_byte_identity_and_throughput(request, tmp_path):
    """The pooled backend must stay byte-identical — and never start a pool
    for a sweep below its ``serial_threshold``.

    The smoke space is below the threshold, so the ``--jobs`` run takes the
    in-process fallback; the 0.72x regression this guards against came
    from spinning up a pool that IPC-dispatched 8 points.  The fallback is
    asserted directly (no pool was started); ``pool_speedup`` is recorded,
    not gated, because it times two serial runs of the same short sweep.
    """
    trace = EasyportWorkload(packets=_packets(request) // 3).generate(seed=SEED)
    space = smoke_parameter_space()

    serial_seconds = float("inf")
    pool_seconds = float("inf")
    serial_db = pool_db = None
    backend = ProcessPoolBackend(jobs=2)
    try:
        # Alternate rounds so machine-load drift hits both paths equally.
        for _ in range(2):
            start = time.perf_counter()
            serial_db = ExplorationEngine(space, trace, backend=SerialBackend()).explore()
            serial_seconds = min(serial_seconds, time.perf_counter() - start)
            start = time.perf_counter()
            pool_db = ExplorationEngine(space, trace, backend=backend).explore()
            pool_seconds = min(pool_seconds, time.perf_counter() - start)
        pool_started = backend._pool is not None
    finally:
        backend.close()

    serial_path, pool_path = tmp_path / "serial.json", tmp_path / "pool.json"
    serial_db.to_json(serial_path)
    pool_db.to_json(pool_path)
    identical = serial_path.read_bytes() == pool_path.read_bytes()

    _RESULTS["parallel"] = {
        "jobs": 2,
        "points": space.size(),
        "serial_s": round(serial_seconds, 3),
        "pool_s": round(pool_seconds, 3),
        "pool_speedup": round(serial_seconds / pool_seconds, 2),
        "serial_fallback": space.size() <= backend.serial_threshold,
        "identical_databases": identical,
    }
    print_table(
        "Serial vs process-pool exploration (smoke space)",
        [
            ("points", space.size(), "-"),
            ("serial", f"{serial_seconds:.2f} s", "-"),
            ("pool (2 workers)", f"{pool_seconds:.2f} s", "serial fallback"),
            ("byte-identical databases", identical, "required"),
        ],
        ("quantity", "measured", "note"),
    )
    assert identical
    # A regressed threshold would dispatch these points to worker processes.
    assert space.size() <= backend.serial_threshold
    assert not pool_started
