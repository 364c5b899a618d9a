"""The remote backend over real loopback TCP: placement, sync, faults.

The chaos-grade fault scenarios (SIGKILL mid-batch, torn frames,
fingerprint mismatch, heartbeat partitions) live in
``tests/chaos/test_remote_faults.py``; this module pins the sunny-day
contracts — the consistent-hash ring, the factory registration, the
pool-identical sync protocol, exception propagation and lifecycle —
against spawned worker processes speaking the real wire protocol.
"""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ConfigurationError, ExecutionError
from repro.exec import (
    BACKEND_NAMES,
    HashRing,
    RemoteBackend,
    get_backend,
)

# Spawned workers beat fast so tests never wait on the production
# 2-second beacon; the timeout stays generous so a loaded CI box can
# not spuriously declare healthy workers dead.
FAST = {"heartbeat_interval": 0.2, "heartbeat_timeout": 5.0}

# -- module-level worker state (pickled by reference, inherited on fork) ----

_STATE: dict[str, int] = {"value": 0}


def _set_state(value: int) -> None:
    _STATE["value"] = value


def _read_state(_: object) -> int:
    return _STATE["value"]


def _apply_delta(delta: int) -> None:
    _STATE["value"] += delta


def _square(x: int) -> int:
    return x * x


def _reciprocal(x: int) -> float:
    return 1 / x


def _sum_partition(partition: list[int]) -> int:
    return sum(partition)


class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing()
        for node in ("worker-0", "worker-1", "worker-2"):
            ring.add(node)
        keys = [f"shard-{i}" for i in range(50)]
        first = [ring.lookup(key) for key in keys]
        assert first == [ring.lookup(key) for key in keys]
        assert set(first) == {"worker-0", "worker-1", "worker-2"}

    def test_independent_rings_agree(self):
        a, b = HashRing(), HashRing()
        for node in ("worker-0", "worker-1"):
            a.add(node)
            b.add(node)
        assert [a.lookup(f"k{i}") for i in range(50)] == [
            b.lookup(f"k{i}") for i in range(50)
        ]

    def test_removal_only_rehomes_the_dead_nodes_keys(self):
        # The property the requeue path leans on: a worker death moves
        # only that worker's shards; everyone else's placement (and
        # warm state) survives untouched.
        ring = HashRing()
        for node in ("worker-0", "worker-1", "worker-2"):
            ring.add(node)
        keys = [f"shard-{i}" for i in range(100)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove("worker-1")
        for key in keys:
            after = ring.lookup(key)
            if before[key] != "worker-1":
                assert after == before[key]
            else:
                assert after in ("worker-0", "worker-2")

    def test_empty_ring_looks_up_none(self):
        ring = HashRing()
        assert ring.lookup("anything") is None
        assert len(ring) == 0
        assert ring.nodes == frozenset()

    def test_add_and_remove_round_trip(self):
        ring = HashRing()
        ring.add("worker-0")
        assert ring.nodes == frozenset({"worker-0"})
        assert len(ring) == 1
        ring.remove("worker-0")
        assert ring.lookup("k") is None
        ring.remove("worker-0")  # idempotent


class TestFactory:
    def test_remote_is_a_known_backend(self):
        assert "remote" in BACKEND_NAMES
        backend = get_backend("remote", workers=2)
        try:
            assert isinstance(backend, RemoteBackend)
            assert backend.name == "remote"
            assert backend.requires_pickling
        finally:
            backend.close()

    def test_factory_forwards_remote_knobs(self):
        backend = get_backend(
            "remote",
            workers=1,
            remote_workers=3,
            remote_heartbeat_interval=0.5,
            remote_heartbeat_timeout=9.0,
            remote_fingerprint="deadbeef",
        )
        try:
            assert backend.workers == 3
            assert backend.heartbeat_interval == 0.5
            assert backend.heartbeat_timeout == 9.0
            assert backend.fingerprint == "deadbeef"
        finally:
            backend.close()

    def test_unknown_sync_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="sync mode"):
            RemoteBackend(workers=1, sync="telepathy")

    def test_timeout_must_exceed_interval(self):
        with pytest.raises(ConfigurationError, match="must exceed"):
            RemoteBackend(
                workers=1, heartbeat_interval=2.0, heartbeat_timeout=2.0
            )

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="heartbeat_interval"):
            RemoteBackend(workers=1, heartbeat_interval=0.0)

    def test_negative_delta_log_rejected(self):
        with pytest.raises(ConfigurationError, match="max_delta_log"):
            RemoteBackend(workers=1, max_delta_log=-1)


class TestMapping:
    def test_map_items_matches_serial(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_items(_square, range(20)) == [
                x * x for x in range(20)
            ]
            assert backend.live_workers == 2

    def test_empty_batch_short_circuits(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_items(_square, []) == []
            # No dispatch, so no fleet was ever spawned.
            assert backend.live_workers == 0

    def test_map_partitions_matches_serial(self):
        partitions = [[1, 2, 3], [4, 5], [6], [7, 8, 9, 10]]
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_partitions(_sum_partition, partitions) == [
                sum(p) for p in partitions
            ]

    def test_fleet_survives_across_batches(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.map_items(_square, [1, 2, 3])
            stats_first = backend.remote_stats()
            backend.map_items(_square, [4, 5, 6])
            stats_second = backend.remote_stats()
            assert stats_second["boots"] == stats_first["boots"]
            assert stats_second["live_workers"] == 2

    def test_initializer_state_reaches_tasks(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            assert backend.map_items(
                _read_state, [None] * 4, initializer=_set_state, initargs=(7,)
            ) == [7, 7, 7, 7]

    def test_rebinding_initializer_reboots_the_fleet(self):
        with RemoteBackend(workers=1, **FAST) as backend:
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(1,)
            )
            boots_before = backend.remote_stats()["boots"]
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(2,)
            ) == [2]
            assert backend.remote_stats()["boots"] > boots_before


class TestStateSync:
    def test_delta_sync_reaches_resident_workers(self):
        with RemoteBackend(workers=2, sync="delta", **FAST) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            assert backend.map_items(
                _read_state, [None] * 3, initializer=_set_state, initargs=(10,)
            ) == [10, 10, 10]
            backend.notify_state_change(5)
            assert backend.pending_deltas == 1
            assert backend.map_items(
                _read_state, [None] * 3, initializer=_set_state, initargs=(10,)
            ) == [15, 15, 15]
            stats = backend.remote_stats()
            assert stats["delta_syncs"] >= 1
            assert stats["sync_bytes"] > 0
            assert backend.pending_deltas == 0
            assert backend.resident_epoch == backend.epoch == 1

    def test_full_sync_reboots_instead_of_deltas(self):
        with RemoteBackend(workers=1, sync="full", **FAST) as backend:
            backend.bind_delta_applier(_apply_delta, _set_state)
            backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(10,)
            )
            boots_before = backend.remote_stats()["boots"]
            backend.notify_state_change(5)
            # Full mode re-ships state through the initializer, so the
            # delta's effect is *not* applied — parent state is truth.
            assert backend.map_items(
                _read_state, [None], initializer=_set_state, initargs=(10,)
            ) == [10]
            stats = backend.remote_stats()
            assert stats["boots"] > boots_before
            assert stats["delta_syncs"] == 0


class TestFailures:
    def test_worker_exception_chains_the_original(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            with pytest.raises(ZeroDivisionError) as excinfo:
                backend.map_items(_reciprocal, [1, 2, 0, 4])
            assert isinstance(excinfo.value.__cause__, ExecutionError)
            # The fleet survives a task failure.
            assert backend.map_items(_square, [3]) == [9]

    def test_unpicklable_task_rejected_with_useful_error(self):
        captured = 3
        with RemoteBackend(workers=1, **FAST) as backend:
            with pytest.raises(ExecutionError, match="picklable"):
                backend.map_items(lambda x: x + captured, [1])


class TestLifecycle:
    def test_listen_exposes_the_rendezvous_address(self):
        backend = RemoteBackend(workers=1, **FAST)
        try:
            assert backend.address is None
            host, port = backend.listen()
            assert host == "127.0.0.1"
            assert port > 0
            assert backend.listen() == (host, port)  # idempotent
            assert backend.address == (host, port)
        finally:
            backend.close()

    def test_close_is_idempotent_and_stops_the_fleet(self):
        backend = RemoteBackend(workers=2, **FAST)
        backend.map_items(_square, [1, 2])
        backend.close()
        assert backend.live_workers == 0
        assert backend.address is None
        backend.close()

    def test_close_with_a_listener_returns_promptly(self):
        # The accept thread blocks in accept(); close() must wake it
        # rather than wait out the join timeout.
        backend = RemoteBackend(workers=1, **FAST)
        backend.listen()
        accept_thread = backend._accept_thread
        started = time.perf_counter()
        backend.close()
        assert time.perf_counter() - started < 1.0
        assert not accept_thread.is_alive()

    def test_backend_recovers_after_close(self):
        backend = RemoteBackend(workers=1, **FAST)
        try:
            assert backend.map_items(_square, [2]) == [4]
            backend.close()
            assert backend.map_items(_square, [3]) == [9]
        finally:
            backend.close()

    def test_remote_stats_shape(self):
        with RemoteBackend(workers=2, **FAST) as backend:
            backend.map_items(_square, [1, 2, 3])
            stats = backend.remote_stats()
            for key in (
                "sync",
                "epoch",
                "resident_epoch",
                "address",
                "live_workers",
                "pending_workers",
                "spawned_workers",
                "pending_deltas",
                "boots",
                "delta_syncs",
                "sync_messages",
                "sync_bytes",
                "frames_sent",
                "frames_received",
                "bytes_sent",
                "bytes_received",
                "heartbeats",
                "requeues",
                "dead_workers",
                "torn_frames",
                "handshake_rejects",
                "heartbeat_interval",
                "heartbeat_timeout",
            ):
                assert key in stats, key
            assert stats["sync"] == "delta"
            assert stats["live_workers"] == 2
            assert stats["boots"] >= 1
            assert stats["frames_sent"] > 0
            assert stats["bytes_received"] > 0
            assert stats["dead_workers"] == 0
