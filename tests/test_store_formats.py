"""Tests for the store format seam: binary stores, compaction, O(tail) refresh.

Covers the binary columnar format (round-trip, sniffing, corruption resync,
torn-tail repair), incremental ``refresh()``/reopen byte accounting, the
compaction protocol (provenance preservation, concurrency with appenders and
streaming readers), JSONL<->binary conversion byte-identity, artefact
byte-identity across store formats and across compaction, the distributed
service over a binary store, and the live dashboard sink.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.api import ComponentRef, Experiment, ExperimentSpec, SpecError
from repro.core.exploration import ExplorationEngine
from repro.core.space import STANDARD_SPACES, smoke_parameter_space
from repro.core.store import (
    METRIC_VERSION,
    ResultStore,
    StoreError,
    StoreRecordSource,
    compact_store,
    convert_store,
    detect_format,
    store_info,
)
from repro.distrib import Coordinator, Worker
from repro.distrib.worker import EXIT_DONE
from repro.gui.live import LiveDashboardSink
from repro.workloads.synthetic import UniformRandomWorkload


@pytest.fixture(scope="module")
def small_trace():
    return UniformRandomWorkload(operations=300).generate(seed=7)


@pytest.fixture(scope="module")
def records(small_trace):
    """A handful of distinct evaluated records to populate stores with."""
    engine = ExplorationEngine(smoke_parameter_space(), small_trace)
    return [
        engine.run_point(engine.space.point_at(i), label=f"cfg{i:05d}")
        for i in range(4)
    ]


def fill(store, records, fingerprint="fp"):
    for index, record in enumerate(records):
        store.put(fingerprint, {"i": index}, record)


class TestBinaryFormat:
    def test_put_get_round_trip(self, tmp_path, records):
        store = ResultStore(tmp_path / "store.bin", format="binary")
        point = {"i": 0}
        assert store.put("fp", point, records[0]) is True
        assert store.put("fp", point, records[0]) is False
        fetched = store.get("fp", point)
        assert fetched is not None
        assert fetched.metrics == records[0].metrics
        assert fetched.configuration.label == records[0].configuration.label

    def test_reopen_loads_binary_entries(self, tmp_path, records):
        path = tmp_path / "store.bin"
        with ResultStore(path, format="binary") as store:
            fill(store, records)
        reopened = ResultStore(path)
        assert reopened.format == "binary"
        assert reopened.loaded == len(records)
        assert reopened.corrupt_entries == 0
        for index, record in enumerate(records):
            fetched = reopened.get("fp", {"i": index})
            assert fetched is not None
            assert fetched.metrics == record.metrics

    def test_format_is_sniffed_from_the_file(self, tmp_path, records):
        binary, jsonl = tmp_path / "a.bin", tmp_path / "b.jsonl"
        with ResultStore(binary, format="binary") as store:
            fill(store, records[:1])
        with ResultStore(jsonl, format="jsonl") as store:
            fill(store, records[:1])
        assert detect_format(binary) == "binary"
        assert detect_format(jsonl) == "jsonl"
        assert detect_format(tmp_path / "missing.bin") is None

    def test_format_mismatch_is_an_error(self, tmp_path, records):
        path = tmp_path / "store.bin"
        with ResultStore(path, format="binary") as store:
            fill(store, records[:1])
        with pytest.raises(StoreError, match="convert"):
            ResultStore(path, format="jsonl")

    def test_corrupt_frame_resyncs_to_later_entries(self, tmp_path, records):
        path = tmp_path / "store.bin"
        with ResultStore(path, format="binary") as store:
            fill(store, records)
        raw = bytearray(path.read_bytes())
        # Flip a payload byte inside the second frame: its CRC check fails,
        # the marker scan resynchronises, and every other entry survives.
        offsets = sorted(
            offset for offset, _, _ in _frame_offsets(raw) if offset > 16
        )
        raw[offsets[1] + 60] ^= 0x01
        path.write_bytes(bytes(raw))
        store = ResultStore(path)
        assert store.corrupt_entries >= 1
        assert store.loaded == len(records) - store.corrupt_entries
        assert store.get("fp", {"i": 0}) is not None
        assert store.get("fp", {"i": len(records) - 1}) is not None

    def test_torn_tail_is_repaired_on_next_append(self, tmp_path, records):
        path = tmp_path / "store.bin"
        with ResultStore(path, format="binary") as store:
            fill(store, records[:3])
        # Tear the file mid-frame, as a crash during an append would.
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)
        store = ResultStore(path)
        assert store.loaded == 2
        store.put("fp", {"i": 3}, records[3])
        store.close()
        healed = ResultStore(path)
        assert healed.loaded == 3
        assert healed.corrupt_entries == 0
        assert healed.get("fp", {"i": 3}) is not None


def _frame_offsets(raw):
    """(offset, length, key) of every well-formed frame in a binary store."""
    from repro.core.store import BinaryStoreFormat

    return [
        (offset, length, entry)
        for offset, length, entry in BinaryStoreFormat().scan(bytes(raw))
    ]


def _damage(path, fmt, damage):
    """Damage a clean store file the way crashes and bad disks do."""
    raw = path.read_bytes()
    if fmt == "jsonl":
        units = raw.splitlines(keepends=True)
    else:
        units = [raw[at - 42 : at + length] for at, length, _ in _frame_offsets(raw)]
    if damage == "truncated last unit":
        path.write_bytes(raw[:-15])
    elif damage == "short torn tail":
        # A writer killed mid-append: the first 30 bytes of a further unit,
        # shorter than a 42-byte binary frame header.
        path.write_bytes(raw + units[-1][:30])
    elif damage == "mid-file garbage":
        cut = len(raw) - sum(len(unit) for unit in units[2:])
        garbage = b"garbage in the middle" + (b"\n" if fmt == "jsonl" else b"")
        path.write_bytes(raw[:cut] + garbage + raw[cut:])


class TestReadersAgree:
    """Every reader of a store file reports the same live and corrupt counts."""

    EXPECTED = {  # damage -> (live entries, corrupt units)
        "clean": (4, 0),
        "truncated last unit": (3, 1),
        "short torn tail": (4, 1),
        "mid-file garbage": (4, 1),
    }

    @pytest.mark.parametrize("damage", sorted(EXPECTED))
    @pytest.mark.parametrize("fmt", ["jsonl", "binary", "binary-mapped"])
    def test_open_info_stream_and_compact_agree(
        self, tmp_path, records, fmt, damage, monkeypatch
    ):
        if fmt == "binary-mapped":  # open through the large-store mmap walk
            monkeypatch.setattr("repro.core.store._MMAP_THRESHOLD", 0)
            fmt = "binary"
        path = tmp_path / f"store.{fmt}"
        with ResultStore(path, format=fmt) as store:
            fill(store, records)
        _damage(path, fmt, damage)
        with ResultStore(path) as store:
            opened = (len(store), store.corrupt_entries)
        info = store_info(path)
        source = StoreRecordSource(path, "fp")
        streamed = (len(source), source.corrupt_entries)
        stats = compact_store(path)
        assert opened == self.EXPECTED[damage]
        assert (info["live"], info["corrupt"]) == opened
        assert streamed == opened
        assert (stats["live"], stats["corrupt"]) == opened

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_refresh_leaves_a_torn_tail_pending_and_uncounted(
        self, tmp_path, records, fmt
    ):
        path = tmp_path / f"store.{fmt}"
        writer = ResultStore(path, format=fmt)
        reader = ResultStore(path, format=fmt)
        fill(writer, records[:3])
        _damage(path, fmt, "short torn tail")
        reader.refresh()
        assert (len(reader), reader.corrupt_entries) == (3, 0)
        # A full read counts the tail once; the next append repairs it.
        reopened = ResultStore(path)
        assert (len(reopened), reopened.corrupt_entries) == (3, 1)
        reopened.put("fp", {"i": 3}, records[3])
        reopened.refresh()
        assert (len(reopened), reopened.corrupt_entries) == (4, 1)
        reopened.close()
        writer.close()
        reader.close()
        healed = store_info(path)
        assert healed["live"] == 4
        assert healed["corrupt"] == (1 if fmt == "jsonl" else 0)


class TestFutureBinaryRevision:
    """A binary store from a newer build is refused by every reader, untouched."""

    @pytest.fixture
    def future_store(self, tmp_path, records):
        path = tmp_path / "future.bin"
        with ResultStore(path, format="binary") as store:
            fill(store, records)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (2).to_bytes(4, "little")  # the header's format revision
        path.write_bytes(bytes(raw))
        return path, bytes(raw)

    @pytest.mark.parametrize(
        "read",
        [
            ResultStore,
            store_info,
            compact_store,
            lambda path: convert_store(path, path.with_suffix(".jsonl"), "jsonl"),
            lambda path: StoreRecordSource(path, "fp"),
        ],
        ids=["open", "info", "compact", "convert", "stream"],
    )
    def test_every_reader_refuses_it(self, future_store, read):
        path, raw = future_store
        with pytest.raises(StoreError, match="revision 2") as error:
            read(path)
        assert str(path) in str(error.value)
        assert path.read_bytes() == raw
        assert not path.with_suffix(".jsonl").exists()

    @pytest.mark.parametrize("command", ["info", "compact"])
    def test_store_commands_exit_2_and_leave_it_untouched(
        self, future_store, command, capsys
    ):
        from repro.cli import main

        path, raw = future_store
        assert main(["store", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "revision 2" in err
        assert path.read_bytes() == raw


class TestIncrementalRefresh:
    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_refresh_consumes_only_appended_bytes(self, tmp_path, records, fmt):
        path = tmp_path / f"store.{fmt}"
        writer = ResultStore(path, format=fmt)
        reader = ResultStore(path, format=fmt)
        fill(writer, records[:3])
        reader.refresh()
        consumed_after_bulk = reader.bytes_consumed
        assert reader.loaded == 3
        writer.put("fp", {"i": 3}, records[3])
        tail = path.stat().st_size - consumed_after_bulk - (
            16 if fmt == "binary" else 0
        )
        reader.refresh()
        assert reader.loaded == 4
        # O(tail): the second refresh read exactly the one appended entry,
        # not the whole file again.
        assert reader.bytes_consumed == consumed_after_bulk + tail

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_refresh_survives_concurrent_compaction(self, tmp_path, records, fmt):
        path = tmp_path / f"store.{fmt}"
        writer = ResultStore(path, format=fmt)
        # A second writer opened before the fill does not know the keys yet,
        # so its put() appends a superseding duplicate (a dead entry).
        stale = ResultStore(path, format=fmt)
        reader = ResultStore(path, format=fmt)
        fill(writer, records[:2])
        stale.put("fp", {"i": 0}, records[1])  # supersede -> one dead entry
        reader.refresh()
        assert reader.loaded == 3
        assert reader.dead_entries == 1
        compact_store(path)
        writer.put("fp", {"i": 2}, records[2])
        # The inode changed under the reader; refresh re-reads from the top.
        reader.refresh()
        assert reader.dead_entries == 0
        assert reader.get("fp", {"i": 2}) is not None
        assert reader.get("fp", {"i": 0}).configuration.label == (
            records[1].configuration.label
        )


class TestCompaction:
    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_compaction_drops_dead_entries_only(self, tmp_path, records, fmt):
        path = tmp_path / f"store.{fmt}"
        stale = ResultStore(path, format=fmt)  # opened before the fill
        with ResultStore(path, format=fmt) as store:
            fill(store, records)
        with stale:  # supersede every key once -> all-dead duplicates
            fill(stale, records)
        before = store_info(path)
        assert before["dead"] > 0
        stats = compact_store(path)
        assert stats["live"] == before["live"]
        assert stats["dead"] == before["dead"]
        assert stats["bytes_after"] < stats["bytes_before"]
        after = store_info(path)
        assert after["entries"] == after["live"] == before["live"]
        assert after["dead"] == 0

    def test_compaction_preserves_payload_bytes_and_order(self, tmp_path, records):
        path = tmp_path / "store.jsonl"
        stale = ResultStore(path)  # opened before the fill
        with ResultStore(path) as store:
            fill(store, records)
        with stale:
            stale.put("fp", {"i": 1}, records[0])  # supersede entry 1
        lines = path.read_text().splitlines()
        # Live set order is first occurrence, value is last write: the
        # superseding payload lands at the superseded key's position.
        survivors = [lines[0], lines[4], lines[2], lines[3]]
        compact_store(path)
        assert path.read_text().splitlines() == survivors

    def test_auto_compact_threshold(self, tmp_path, records):
        path = tmp_path / "store.bin"
        stale = ResultStore(path, format="binary")  # opened before the fill
        with ResultStore(path, format="binary") as store:
            fill(store, records)
        with stale:
            fill(stale, records[:3])  # 3 dead entries
        store = ResultStore(path, auto_compact=3)
        assert store.dead_entries == 0
        assert store.loaded == len(records)
        assert store_info(path)["entries"] == len(records)

    def test_auto_compact_rejects_non_positive(self, tmp_path):
        with pytest.raises(StoreError, match="auto_compact"):
            ResultStore(tmp_path / "s.jsonl", auto_compact=0)

    def test_compact_can_change_format(self, tmp_path, records):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            fill(store, records)
        compact_store(path, output_format="binary")
        store = ResultStore(path)
        assert store.format == "binary"
        assert store.loaded == len(records)


def _concurrent_appender(path, fmt, count, barrier):
    """Subprocess body: append entries while the parent compacts the store."""
    trace = UniformRandomWorkload(operations=300).generate(seed=7)
    engine = ExplorationEngine(smoke_parameter_space(), trace)
    record = engine.run_point(engine.space.point_at(0), label="appender")
    with ResultStore(path, format=fmt) as store:
        barrier.wait()
        for index in range(count):
            store.put(f"live-fp{index}", {"i": index}, record)


class TestCompactionConcurrency:
    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_compact_while_a_writer_appends(self, tmp_path, records, fmt):
        """No append is lost when compaction replaces the file mid-run."""
        path = tmp_path / f"shared.{fmt}"
        stale = ResultStore(path, format=fmt)  # opened before the fill
        with ResultStore(path, format=fmt) as store:
            fill(store, records)
        with stale:
            fill(stale, records)  # guarantee dead entries to reclaim
        count = 40
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        process = context.Process(
            target=_concurrent_appender, args=(str(path), fmt, count, barrier)
        )
        process.start()
        barrier.wait()
        compact_store(path)
        process.join(timeout=120)
        assert process.exitcode == 0
        final = ResultStore(path)
        assert final.corrupt_entries == 0
        # Every pre-compaction live key and every concurrent append survived.
        assert final.loaded >= len(records) + count
        for index in range(count):
            assert final.get(f"live-fp{index}", {"i": index}) is not None

    def test_streaming_reader_survives_compaction(self, tmp_path, records):
        """A StoreRecordSource mid-iteration keeps its snapshot across an
        os.replace of the underlying path."""
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            fill(store, records)
        source = StoreRecordSource(path, "fp")
        iterator = iter(source)
        first = next(iterator)
        compact_store(path, output_format="binary")
        rest = list(iterator)
        assert len([first, *rest]) == len(records)
        assert source.corrupt_entries == 0


class TestConversionRoundTrip:
    def test_jsonl_binary_jsonl_reproduces_the_original_bytes(
        self, tmp_path, records
    ):
        path = tmp_path / "store.jsonl"
        stale = ResultStore(path)  # opened before the fill
        with ResultStore(path) as store:
            fill(store, records)
        with stale:
            stale.put("fp", {"i": 0}, records[1])  # keep a superseded dup too
        original = path.read_bytes()
        convert_store(path, tmp_path / "store.bin", "binary")
        convert_store(tmp_path / "store.bin", tmp_path / "back.jsonl", "jsonl")
        assert (tmp_path / "back.jsonl").read_bytes() == original

    def test_conversion_refuses_an_in_place_rewrite(self, tmp_path, records):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            fill(store, records[:1])
        with pytest.raises(StoreError, match="compact"):
            convert_store(path, path, "binary")


def run_spec(tmp_path, name, store=None, sink=None, **overrides):
    spec = ExperimentSpec.from_dict(
        {
            "spec_version": 1,
            "workload": {"name": "uniform", "params": {"operations": 300}},
            "space": "smoke",
            "seed": 1,
            **({"store": store} if store else {}),
            **({"sink": sink} if sink else {}),
            **overrides,
        }
    )
    result = Experiment(spec).run()
    artefact = tmp_path / name
    result.database.to_json(artefact)
    return result, artefact.read_bytes()


def _without_store_counters(artefact_bytes):
    document = json.loads(artefact_bytes)
    document.get("provenance", document).pop("store", None)
    document.pop("store", None)
    return document


class TestArtefactIdentityAcrossFormats:
    def test_cold_and_warm_runs_match_across_store_formats(self, tmp_path):
        _, baseline = run_spec(tmp_path, "none.json")
        artefacts = {}
        for fmt in ("jsonl", "binary"):
            store = {"name": fmt, "params": {"path": str(tmp_path / f"s.{fmt}")}}
            _, cold = run_spec(tmp_path, f"{fmt}-cold.json", store=store)
            warm_result, warm = run_spec(tmp_path, f"{fmt}-warm.json", store=store)
            artefacts[fmt] = (cold, warm)
            # Results are byte-identical to a store-less run; only the
            # store hit counters in the provenance block may differ.
            assert _without_store_counters(cold) == _without_store_counters(baseline)
            # The warm run was answered entirely from the store.
            assert warm_result.counters["store_hits"] == 8
        assert artefacts["jsonl"][0] == artefacts["binary"][0]
        assert artefacts["jsonl"][1] == artefacts["binary"][1]

    def test_artefacts_match_before_and_after_compaction(self, tmp_path):
        path = tmp_path / "s.bin"
        store = {"name": "binary", "params": {"path": str(path)}}
        run_spec(tmp_path, "cold.json", store=store)
        _, before = run_spec(tmp_path, "before.json", store=store)
        # Duplicate every frame (the bytes past the 16-byte header): the
        # store now carries one superseding duplicate per key — 50% dead.
        raw = path.read_bytes()
        path.write_bytes(raw + raw[16:])
        doubled = store_info(path)
        assert doubled["dead"] == doubled["live"] == 8
        stats = compact_store(path)
        assert stats["bytes_after"] < stats["bytes_before"]
        info = store_info(path)
        assert info["entries"] == info["live"] == 8 and info["dead"] == 0
        result, after = run_spec(tmp_path, "after.json", store=store)
        assert after == before
        assert result.counters["store_hits"] == 8

    @pytest.mark.parametrize("space_name", sorted(STANDARD_SPACES))
    def test_sampled_artefacts_match_across_formats_per_space(
        self, tmp_path, space_name
    ):
        overrides = {"space": space_name, "sample": 3, "sample_seed": 5}
        artefacts = {}
        for fmt in ("jsonl", "binary"):
            store = {
                "name": fmt,
                "params": {"path": str(tmp_path / f"{space_name}.{fmt}")},
            }
            _, artefacts[fmt] = run_spec(
                tmp_path, f"{space_name}-{fmt}.json", store=store, **overrides
            )
        assert artefacts["jsonl"] == artefacts["binary"]

    @pytest.mark.parametrize("workload", ["bursty", "easyport"])
    def test_sampled_artefacts_match_across_formats_per_workload(
        self, tmp_path, workload
    ):
        params = {"bursty": {"bursts": 3, "burst_length": 20}, "easyport": {"packets": 200}}
        overrides = {
            "workload": {"name": workload, "params": params[workload]},
            "sample": 3,
            "sample_seed": 5,
        }
        artefacts = {}
        for fmt in ("jsonl", "binary"):
            store = {
                "name": fmt,
                "params": {"path": str(tmp_path / f"{workload}.{fmt}")},
            }
            _, artefacts[fmt] = run_spec(
                tmp_path, f"{workload}-{fmt}.json", store=store, **overrides
            )
        assert artefacts["jsonl"] == artefacts["binary"]


class TestSpecStoreValidation:
    def test_auto_compact_flows_to_the_store(self, tmp_path):
        store = {
            "name": "binary",
            "params": {"path": str(tmp_path / "s.bin"), "auto_compact": 2},
        }
        result, _ = run_spec(tmp_path, "a.json", store=store)
        assert len(result.database) == 8

    def test_bad_auto_compact_is_a_spec_error(self, tmp_path):
        store = {
            "name": "jsonl",
            "params": {"path": str(tmp_path / "s.jsonl"), "auto_compact": 0},
        }
        with pytest.raises(SpecError, match="auto_compact"):
            run_spec(tmp_path, "a.json", store=store)

    def test_unknown_store_kind_is_a_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="store.name"):
            run_spec(tmp_path, "a.json", store={"name": "sqlite"})


def distrib_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec.from_dict(
        {
            "spec_version": 1,
            "workload": {"name": "uniform", "params": {"operations": 300}},
            "space": "smoke",
            "seed": 1,
            **overrides,
        }
    )


class TestDistributedBinaryStore:
    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_served_sweep_is_format_independent(self, tmp_path, fmt):
        spec = distrib_spec(
            store={"name": fmt, "params": {"path": str(tmp_path / f"shared.{fmt}")}}
        )
        coordinator = Coordinator(
            spec,
            host="127.0.0.1",
            port=0,
            log=lambda line: None,
            lease_size=3,
        )
        thread = threading.Thread(target=coordinator.serve, daemon=True)
        thread.start()
        deadline = 50
        while coordinator.address is None and deadline:
            threading.Event().wait(0.1)
            deadline -= 1
        assert coordinator.address is not None
        worker = Worker(coordinator.address, name="w1", log=lambda line: None)
        assert worker.run() == EXIT_DONE
        thread.join(timeout=30)
        assert not thread.is_alive()
        database = coordinator.database
        assert database is not None and len(database) == 8
        assert detect_format(tmp_path / f"shared.{fmt}") == fmt
        # The shared store answers a plain local run byte-for-byte.
        artefact = tmp_path / f"served-{fmt}.json"
        database.to_json(artefact)
        _, local = run_spec(tmp_path, f"local-{fmt}.json")
        assert artefact.read_bytes() == local


class _Stream:
    """A minimal non-TTY text stream capturing writes."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass


class TestLiveDashboardSink:
    def test_accepts_records_and_tracks_ranges(self, records):
        stream = _Stream()
        sink = LiveDashboardSink(interval=0.0, stream=stream)
        for record in records:
            sink.accept(record)
        assert sink.seen == len(records)
        assert sink.renders >= 1
        assert sink.rate() > 0
        for name, (low, high) in sink.ranges.items():
            assert low <= high
        joined = "".join(stream.chunks)
        assert "sweep:" in joined and "front:" in joined

    def test_throttles_below_the_interval(self, records):
        sink = LiveDashboardSink(interval=3600.0, stream=_Stream())
        for record in records:
            sink.accept(record)
        # The first accept renders immediately; the rest are throttled.
        assert sink.renders == 1
        sink.finish()
        assert sink.renders == 2

    def test_dashboard_run_is_artefact_neutral(self, tmp_path, capsys):
        _, baseline = run_spec(tmp_path, "plain.json")
        result, dashed = run_spec(
            tmp_path, "dashed.json", sink={"name": "dashboard", "params": {"interval": 0}}
        )
        assert dashed == baseline
        sink = result.sink
        assert sink.seen == len(result.database)
        assert sink.renders >= 1
        # Engine counters were attached and mirrored into the status block.
        assert any("memo" in line for line in sink.status_lines())
