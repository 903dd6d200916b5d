"""Unit tests for the distributed exploration service (repro.distrib).

Everything here runs in-process (threads and socketpairs, no subprocesses):
the wire protocol, the store primitives the service is built on
(``refresh`` / ``missing_points``), range evaluation, the ``serve`` spec
surface, the coordinator's spec gates, and a complete coordinator+worker
sweep including the spec-hash rejection path.  The multi-process fault
matrix lives in ``test_distrib_cluster.py``.
"""

import socket
import struct
import threading

import pytest

from repro.api.spec import ExperimentSpec, SpecError
from repro.core.exploration import (
    ExplorationEngine,
    ExplorationSettings,
    ShardSpec,
)
from repro.core.space import smoke_parameter_space
from repro.core.store import ResultStore
from repro.distrib import (
    Coordinator,
    DistribError,
    MessageBuffer,
    ProtocolError,
    Worker,
    parse_address,
    recv_message,
    send_message,
)
from repro.distrib.coordinator import auto_lease_size
from repro.distrib.worker import (
    EXIT_DONE,
    EXIT_REJECTED,
)
from repro.distrib.protocol import MAX_MESSAGE_BYTES, encode_message
from repro.workloads.synthetic import UniformRandomWorkload


@pytest.fixture(scope="module")
def small_trace():
    return UniformRandomWorkload(operations=300).generate(seed=7)


def smoke_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec.from_dict(
        {
            "spec_version": 1,
            "workload": {"name": "uniform", "params": {"operations": 300}},
            "space": "smoke",
            "seed": 1,
            **overrides,
        }
    )


class TestProtocol:
    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            send_message(left, {"type": "hello", "worker": "w1", "n": 3})
            assert recv_message(right) == {"type": "hello", "worker": "w1", "n": 3}
            send_message(right, {"type": "ack"})
            assert recv_message(left) == {"type": "ack"}

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        with right:
            left.close()
            assert recv_message(right) is None

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        with right:
            left.sendall(struct.pack(">I", 10) + b"abc")
            left.close()
            with pytest.raises(ProtocolError, match="bytes short"):
                recv_message(right)

    def test_oversized_announcement_is_rejected_before_allocation(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="limit"):
                recv_message(right)

    def test_non_object_payload_is_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            payload = b"[1,2,3]"
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_message(right)

    def test_buffer_decodes_byte_by_byte(self):
        wire = encode_message({"type": "lease", "start": 0, "stop": 4})
        buffer = MessageBuffer()
        for byte in wire:
            assert buffer.take() == []  # nothing until the last byte
            buffer.feed(bytes([byte]))
        assert buffer.take() == [{"type": "lease", "start": 0, "stop": 4}]
        assert len(buffer) == 0

    def test_buffer_decodes_coalesced_messages_in_order(self):
        wire = encode_message({"n": 1}) + encode_message({"n": 2})
        half = len(wire) // 2
        buffer = MessageBuffer()
        buffer.feed(wire[:half])
        first = buffer.take()
        buffer.feed(wire[half:])
        assert first + buffer.take() == [{"n": 1}, {"n": 2}]

    def test_buffer_rejects_undecodable_frames(self):
        buffer = MessageBuffer()
        buffer.feed(struct.pack(">I", 3) + b"\xff\xfe\xfd")
        with pytest.raises(ProtocolError, match="undecodable"):
            buffer.take()


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.7:5151") == ("10.0.0.7", 5151)

    @pytest.mark.parametrize("text", ["nocolon", ":5151", "host:", "host:abc"])
    def test_malformed_addresses_raise(self, text):
        with pytest.raises(ValueError):
            parse_address(text)


class TestStoreCoordination:
    """The two store primitives the service is built on."""

    def test_refresh_sees_appends_from_another_handle(self, tmp_path, small_trace):
        path = tmp_path / "store.jsonl"
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        reader = ResultStore(path)
        with ResultStore(path) as writer:
            for index in (0, 1):
                point = engine.space.point_at(index)
                writer.put("fp", point, engine.run_point(point))
        assert reader.get("fp", engine.space.point_at(0)) is None
        assert reader.refresh() == 2
        assert reader.get("fp", engine.space.point_at(0)) is not None
        assert reader.refresh() == 0  # idempotent: nothing new

    def test_missing_points_reports_the_uncommitted_subset(
        self, tmp_path, small_trace
    ):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        pairs = engine.points_in_range(0, 4)
        store = ResultStore(tmp_path / "store.jsonl")
        store.put("fp", pairs[1][1], engine.run_point(pairs[1][1]))
        store.put("fp", pairs[3][1], engine.run_point(pairs[3][1]))
        missing = store.missing_points("fp", pairs)
        assert [index for index, _point in missing] == [0, 2]
        assert store.missing_points("other-fp", pairs) == pairs


class TestExploreRange:
    def test_range_matches_the_full_sweep_slice(self, small_trace):
        space = smoke_parameter_space()
        full = ExplorationEngine(space, small_trace).explore()
        ranged = ExplorationEngine(space, small_trace).explore_range(2, 5)
        assert [r.configuration.label for r in ranged.records] == [
            "cfg00002",
            "cfg00003",
            "cfg00004",
        ]
        for record in ranged.records:
            twin = next(
                r
                for r in full.records
                if r.configuration.label == record.configuration.label
            )
            assert record.metrics == twin.metrics

    def test_range_provenance_records_the_slice(self, small_trace):
        database = ExplorationEngine(
            smoke_parameter_space(), small_trace
        ).explore_range(1, 3)
        assert database.provenance is not None
        assert database.provenance.shard == "1:3"

    def test_ranges_reject_sharded_settings(self, small_trace):
        engine = ExplorationEngine(
            smoke_parameter_space(),
            small_trace,
            settings=ExplorationSettings(shard=ShardSpec.parse("1/2")),
        )
        with pytest.raises(ValueError, match="shard"):
            engine.points_in_range(0, 2)

    def test_invalid_bounds_are_rejected(self, small_trace):
        engine = ExplorationEngine(smoke_parameter_space(), small_trace)
        with pytest.raises(ValueError, match="invalid range"):
            engine.points_in_range(3, 1)


class TestServeSpec:
    def test_defaults_validate(self):
        smoke_spec().validate()

    def test_unknown_transport_is_rejected(self):
        with pytest.raises(SpecError, match="serve.name"):
            smoke_spec(serve="carrier-pigeon").validate()

    def test_unknown_parameter_is_rejected(self):
        spec = smoke_spec(
            serve={"name": "tcp", "params": {"lease_duration": 5}}
        )
        with pytest.raises(SpecError, match="lease_duration"):
            spec.validate()

    def test_mistyped_parameter_is_rejected(self):
        spec = smoke_spec(serve={"name": "tcp", "params": {"port": "5151"}})
        with pytest.raises(SpecError, match="serve.params.port"):
            spec.validate()

    def test_serve_settings_do_not_change_the_spec_hash(self):
        plain = smoke_spec()
        served = smoke_spec(
            serve={
                "name": "tcp",
                "params": {"host": "0.0.0.0", "port": 5151, "lease_size": 2},
            }
        )
        assert plain.spec_hash() == served.spec_hash()

    def test_serve_round_trips_through_the_document(self):
        spec = smoke_spec(serve={"name": "tcp", "params": {"port": 5151}})
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.serve.params == {"port": 5151}


class TestCoordinatorGates:
    def test_heuristic_strategies_cannot_be_served(self, tmp_path):
        spec = smoke_spec(
            strategy={"name": "random", "params": {"budget": 4}}
        )
        with pytest.raises(DistribError, match="strategy"):
            Coordinator(spec, store_path=str(tmp_path / "s.jsonl"))

    def test_sharded_specs_cannot_be_served(self, tmp_path):
        spec = smoke_spec(shard="1/2")
        with pytest.raises(DistribError, match="shard"):
            Coordinator(spec, store_path=str(tmp_path / "s.jsonl"))

    def test_sampled_specs_cannot_be_served(self, tmp_path):
        spec = smoke_spec(sample=4)
        with pytest.raises(DistribError, match="exhaustive"):
            Coordinator(spec, store_path=str(tmp_path / "s.jsonl"))

    def test_nonpositive_lease_timeout_is_rejected(self, tmp_path):
        with pytest.raises(DistribError, match="lease_timeout"):
            Coordinator(
                smoke_spec(),
                lease_timeout=0,
                store_path=str(tmp_path / "s.jsonl"),
            )

    def test_auto_lease_size_balances_without_degenerating(self):
        assert auto_lease_size(8) == 1
        assert auto_lease_size(3125) == 195
        assert auto_lease_size(1) == 1


class TestInProcessCluster:
    """One coordinator thread, workers in the main thread."""

    def start_coordinator(self, tmp_path, **options):
        coordinator = Coordinator(
            smoke_spec(),
            host="127.0.0.1",
            port=0,
            store_path=str(tmp_path / "store.jsonl"),
            log=lambda line: None,
            **options,
        )
        thread = threading.Thread(target=coordinator.serve, daemon=True)
        thread.start()
        deadline = 50
        while coordinator.address is None and deadline:
            threading.Event().wait(0.1)
            deadline -= 1
        assert coordinator.address is not None, "coordinator never bound"
        return coordinator, thread

    def test_sweep_with_spec_hash_rejection_en_route(self, tmp_path):
        coordinator, thread = self.start_coordinator(tmp_path, lease_size=3)
        quiet = lambda line: None  # noqa: E731
        # A worker built from a *different* experiment is turned away...
        imposter = Worker(
            coordinator.address,
            spec_hash=smoke_spec(seed=2).spec_hash(),
            name="imposter",
            log=quiet,
        )
        assert imposter.run() == EXIT_REJECTED
        # ...while a matching one (and an agnostic one) complete the sweep.
        matching = Worker(
            coordinator.address,
            spec_hash=smoke_spec().spec_hash(),
            name="matching",
            log=quiet,
        )
        assert matching.run() == EXIT_DONE
        thread.join(timeout=30)
        assert not thread.is_alive()
        database = coordinator.database
        assert database is not None
        assert len(database) == 8
        assert database.cache_misses == 8 and database.cache_hits == 0
        assert database.provenance is not None
        assert database.provenance.spec_hash == smoke_spec().spec_hash()
        assert database.provenance.shard == ""
        assert coordinator.stats["leases_granted"] >= 3
        assert coordinator.stats["workers_seen"] == {"matching"}

    def test_worker_joining_after_the_sweep_is_told_done(self, tmp_path):
        """A worker that starts after the others finished still exits 0.

        The coordinator cannot know how many workers are still starting,
        so it keeps its port open through the drain window and answers a
        late joiner with ``done`` instead of refusing the connection.
        """
        gone = threading.Event()

        def log(line):
            if "worker early gone" in line:
                gone.set()

        coordinator, thread = self.start_coordinator(tmp_path, lease_size=3)
        coordinator.log = log
        quiet = lambda line: None  # noqa: E731
        assert Worker(coordinator.address, name="early", log=quiet).run() == EXIT_DONE
        # Join only once the coordinator is idle with no worker connected.
        assert gone.wait(timeout=10)
        threading.Event().wait(0.2)
        late = Worker(coordinator.address, name="late", log=quiet)
        assert late.run() == EXIT_DONE
        assert late.leases_completed == 0
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(coordinator.database) == 8


class TestAutoCompaction:
    """Coordinator-driven compaction of the shared store between leases."""

    def _coordinator(self, tmp_path, threshold):
        params = {"path": str(tmp_path / "shared.jsonl")}
        if threshold is not None:
            params["auto_compact"] = threshold
        spec = smoke_spec(store={"name": "jsonl", "params": params})
        return Coordinator(spec, log=lambda *_args: None)

    def test_threshold_reaches_only_the_coordinator_store(self, tmp_path):
        coordinator = self._coordinator(tmp_path, threshold=3)
        assert coordinator.store.auto_compact == 3
        # The document announced to workers stays threshold-free, so the
        # coordinator is the only process that ever rewrites the file.
        announced = coordinator._spec_document()
        assert "auto_compact" not in announced["store"]["params"]
        coordinator.store.close()

    def test_compacts_when_dead_entries_cross_the_threshold(self, tmp_path):
        coordinator = self._coordinator(tmp_path, threshold=3)
        engine = coordinator._resolved.engine
        point = engine.space.point_at(0)
        record = engine.run_point(point)
        # Workers re-evaluating a re-leased range race blind: each handle
        # opened before the others' appends re-commits the same key, and
        # every duplicate is a dead entry after the coordinator's refresh.
        writers = [ResultStore(coordinator.store.path) for _ in range(4)]
        for writer in writers:
            writer.put("fp", point, record)
        for writer in writers:
            writer.close()
        coordinator._maybe_compact()
        assert coordinator.stats["auto_compactions"] == 1
        assert coordinator.store.dead_entries == 0
        assert coordinator.store.get("fp", point) is not None
        # Nothing dead any more: the next quiet point is a no-op.
        coordinator._maybe_compact()
        assert coordinator.stats["auto_compactions"] == 1
        coordinator.store.close()

    def test_below_threshold_is_left_alone(self, tmp_path):
        coordinator = self._coordinator(tmp_path, threshold=10)
        engine = coordinator._resolved.engine
        point = engine.space.point_at(0)
        record = engine.run_point(point)
        racers = [ResultStore(coordinator.store.path) for _ in range(2)]
        for writer in racers:
            writer.put("fp", point, record)
        for writer in racers:
            writer.close()
        coordinator._maybe_compact()
        assert coordinator.stats["auto_compactions"] == 0
        assert coordinator.store.dead_entries == 1
        coordinator.store.close()

    def test_store_without_threshold_is_never_touched(self, tmp_path):
        coordinator = self._coordinator(tmp_path, threshold=None)
        assert coordinator.store.auto_compact is None
        coordinator._maybe_compact()
        assert coordinator.stats["auto_compactions"] == 0
        coordinator.store.close()
