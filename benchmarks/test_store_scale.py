"""Experiment STORE-SCALE: the result store at a hundred thousand entries.

Measures the store layer this repository's long sweeps lean on: append
throughput, cold-load (reopen) time, point-query latency, incremental
``refresh()`` cost on a warm store, and compaction of a store that is half
dead entries — for both on-disk formats.  The headline target is **binary
cold load ≥ 5× faster than JSONL** at 10⁵ entries: the JSONL loader must
JSON-parse every line, while the binary loader walks fixed-width frame
headers and defers payload parsing until a key is actually read.

Full runs write ``BENCH_store.json`` in the repository root, quick runs the
git-ignored ``BENCH_store.quick.json``, which the CI bench-smoke job
uploads as an artifact.  Plain pytest runs measure a
10⁴-entry store (the quick mode only direction-checks the speedup so CI
runners cannot flake it); ``BENCH_STORE_FULL=1`` — ``make bench-store-full``
— runs the dedicated 10⁵-entry measurement and asserts the full target.

Run with ``pytest benchmarks/test_store_scale.py -s``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.exploration import ExplorationEngine
from repro.core.space import smoke_parameter_space
from repro.core.store import ResultStore, compact_store, store_info
from repro.workloads.synthetic import UniformRandomWorkload

from .common import SEED, print_table, write_bench_json

#: Cold-load speedup the binary format must deliver over JSONL in the
#: dedicated (10⁵-entry) measurement — the PR 8 acceptance target.
TARGET_LOAD_SPEEDUP = 5.0

#: Quick-mode floor: a direction check only (see the module docstring).
QUICK_LOAD_SPEEDUP = 1.0

#: ``BENCH_STORE_FULL=1`` switches to the dedicated store size and asserts
#: the full acceptance target.
_FULL_ENV = bool(os.environ.get("BENCH_STORE_FULL"))

#: Store size per mode.
ENTRIES = 100_000 if _FULL_ENV else 10_000

#: Entries appended after the warm reader attached (the refresh tail).
TAIL_ENTRIES = 200

#: Collected by the tests in this module, written once at module teardown.
_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_ledger():
    """Write the module's BENCH_store document after its measurements ran."""
    yield
    if not _RESULTS:  # pragma: no cover - nothing measured
        return
    document = {
        "benchmark": "store_scale",
        "entries": ENTRIES,
        "seed": SEED,
        "target_load_speedup": TARGET_LOAD_SPEEDUP,
        "targets": {"full": TARGET_LOAD_SPEEDUP, "quick": QUICK_LOAD_SPEEDUP},
        "target_this_mode": (
            TARGET_LOAD_SPEEDUP if _FULL_ENV else QUICK_LOAD_SPEEDUP
        ),
        **_RESULTS,
    }
    write_bench_json("store", "full" if _FULL_ENV else "quick", document)


@pytest.fixture(scope="module")
def record():
    """One representative evaluated record all synthetic entries carry."""
    trace = UniformRandomWorkload(operations=300).generate(seed=7)
    engine = ExplorationEngine(smoke_parameter_space(), trace)
    return engine.run_point(engine.space.point_at(0), label="bench")


@pytest.fixture(scope="module")
def filled(tmp_path_factory, record):
    """``{format: (path, append_seconds)}`` for stores of ENTRIES entries."""
    base = tmp_path_factory.mktemp("store_scale")
    out = {}
    for fmt in ("jsonl", "binary"):
        path = base / f"bench.{fmt}"
        with ResultStore(path, format=fmt) as store:
            start = time.perf_counter()
            for index in range(ENTRIES):
                store.put(f"bench-fp{index}", {"i": index}, record)
            out[fmt] = (path, time.perf_counter() - start)
    return out


def test_append_load_query(filled):
    """Append/cold-load/query across formats; the headline load speedup."""
    measured = {}
    for fmt, (path, append_seconds) in filled.items():
        start = time.perf_counter()
        store = ResultStore(path)
        load_seconds = time.perf_counter() - start
        assert store.loaded == ENTRIES
        assert store.corrupt_entries == 0
        # Query a spread of keys (the binary format pays its deferred
        # payload parse here; JSONL already paid at load).
        queries = 1000
        start = time.perf_counter()
        for index in range(0, ENTRIES, max(1, ENTRIES // queries)):
            assert store.get(f"bench-fp{index}", {"i": index}) is not None
        query_seconds = time.perf_counter() - start
        store.close()
        measured[fmt] = {
            "append_s": round(append_seconds, 3),
            "append_entries_per_s": round(ENTRIES / append_seconds),
            "load_s": round(load_seconds, 4),
            "load_entries_per_s": round(ENTRIES / load_seconds),
            "query_1k_s": round(query_seconds, 4),
            "size_bytes": path.stat().st_size,
        }
    speedup = measured["jsonl"]["load_s"] / measured["binary"]["load_s"]
    _RESULTS.update(measured)
    _RESULTS["load_speedup_binary_vs_jsonl"] = round(speedup, 2)
    print_table(
        f"Result store at {ENTRIES} entries: jsonl vs binary",
        [
            ("entries", ENTRIES, "-"),
            ("jsonl load", f"{measured['jsonl']['load_s'] * 1e3:.0f} ms", "-"),
            ("binary load", f"{measured['binary']['load_s'] * 1e3:.0f} ms", "-"),
            (
                "load speedup",
                f"x{speedup:.2f}",
                f">= {TARGET_LOAD_SPEEDUP} (full mode)",
            ),
            ("jsonl size", measured["jsonl"]["size_bytes"], "bytes"),
            ("binary size", measured["binary"]["size_bytes"], "bytes"),
        ],
        ("quantity", "measured", "note"),
    )
    floor = TARGET_LOAD_SPEEDUP if _FULL_ENV else QUICK_LOAD_SPEEDUP
    assert speedup >= floor, (
        f"binary cold load is only x{speedup:.2f} over jsonl (target x{floor})"
    )


def test_refresh_is_o_tail(filled, record):
    """A warm refresh parses the appended tail, not the whole history."""
    path, _ = filled["binary"]
    reader = ResultStore(path)
    consumed_warm = reader.bytes_consumed
    with ResultStore(path) as writer:
        for index in range(TAIL_ENTRIES):
            writer.put(f"tail-fp{index}", {"i": index}, record)
    start = time.perf_counter()
    reader.refresh()
    refresh_seconds = time.perf_counter() - start
    tail_bytes = reader.bytes_consumed - consumed_warm
    reader.close()
    # The refresh consumed only the appended frames — a fraction of the
    # file — and did so in time proportional to the tail.
    assert tail_bytes < path.stat().st_size / 10
    _RESULTS["refresh"] = {
        "tail_entries": TAIL_ENTRIES,
        "refresh_s": round(refresh_seconds, 5),
        "tail_bytes": tail_bytes,
        "file_bytes": path.stat().st_size,
    }
    print_table(
        "Warm refresh() after an appended tail (binary)",
        [
            ("tail entries", TAIL_ENTRIES, "-"),
            ("refresh", f"{refresh_seconds * 1e3:.2f} ms", "O(tail)"),
            ("bytes consumed", tail_bytes, f"of {path.stat().st_size}"),
        ],
        ("quantity", "measured", "note"),
    )


def test_compaction_reclaims_dead_entries(tmp_path, record):
    """Compacting a half-dead store shrinks it to O(live set)."""
    entries = max(1000, ENTRIES // 10)
    path = tmp_path / "dead.bin"
    with ResultStore(path, format="binary") as store:
        for index in range(entries):
            store.put(f"bench-fp{index}", {"i": index}, record)
    # Duplicate every frame: 50% of the store is now superseded entries.
    raw = path.read_bytes()
    path.write_bytes(raw + raw[16:])
    before = store_info(path)
    assert before["dead"] == entries
    start = time.perf_counter()
    stats = compact_store(path)
    compact_seconds = time.perf_counter() - start
    shrink = stats["bytes_after"] / stats["bytes_before"]
    assert stats["live"] == entries and stats["dead"] == entries
    # O(live set): the compacted file is the live half (within the header).
    assert shrink <= 0.55
    after = store_info(path)
    assert after["entries"] == entries and after["dead"] == 0
    _RESULTS["compaction"] = {
        "entries": 2 * entries,
        "dead_fraction": 0.5,
        "bytes_before": stats["bytes_before"],
        "bytes_after": stats["bytes_after"],
        "shrink_ratio": round(shrink, 3),
        "compact_s": round(compact_seconds, 3),
    }
    print_table(
        "Compaction of a 50%-dead binary store",
        [
            ("entries", 2 * entries, f"{entries} live"),
            ("bytes before", stats["bytes_before"], "-"),
            ("bytes after", stats["bytes_after"], "-"),
            ("shrink ratio", f"{shrink:.3f}", "<= 0.55"),
            ("compact", f"{compact_seconds * 1e3:.0f} ms", "-"),
        ],
        ("quantity", "measured", "note"),
    )
