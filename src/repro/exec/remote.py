"""The pool's inbox protocol over TCP: a multi-host execution backend.

:class:`RemoteBackend` is :class:`~repro.exec.pool.PoolBackend` with the
``mp.Queue`` transport swapped for sockets — the swap the pool's
message-shaped sync protocol was designed for.  Workers are separate
processes (same host or not) that connect to the parent's listener and
speak length-prefixed frames (:mod:`repro.exec.wire`):

* the **handshake** (``HELLO``/``WELCOME``) carries the config
  fingerprint; a worker built for different recommendation semantics is
  rejected with a typed ``FAULT`` before it can ever receive a task;
* a **``BOOT``** frame ships ``initializer``/``initargs`` and rebuilds
  the worker's resident state in place — the remote analogue of a pool
  restart, without killing the process (with a packed spill configured
  the initargs carry ``None`` sentinels and the worker bootstraps from
  the spill directory, exactly like pool workers);
* **``SYNC``** broadcasts the per-epoch delta packet, one frame per
  worker; TCP's in-order delivery gives the same FIFO guarantee the
  pool's inboxes did, so a ``TASK`` written after a ``SYNC`` can only
  be served by a worker that already applied it — the parent still
  clears its log at broadcast time, with no acknowledgements;
* **task chunks are placed by consistent hashing** (:class:`HashRing`)
  over the worker set — ``map_partitions`` keys by partition (so index
  shards stick to workers across batches) and ``map_items`` by chunk;
* workers send **``HEARTBEAT``** beacons; a worker that goes silent
  past ``heartbeat_timeout`` (or whose socket dies, or that tears a
  frame mid-write) is declared dead and its unanswered task items are
  **requeued onto the surviving workers** — re-placed by the ring, so
  the batch completes bit-identical as long as one worker survives.

By default the backend spawns ``workers`` loopback worker processes
that connect back over ``127.0.0.1`` — the full codec, real sockets and
real partial-failure paths, runnable in CI.  External workers started
with ``repro worker --connect HOST:PORT`` join the same fleet.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import pickle
import selectors
import socket
import threading
import time
import traceback
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..exceptions import ConfigurationError, ExecutionError
from ..obs import MetricsRegistry, get_registry
from ..resilience import CircuitBreaker, Deadline, FaultInjector, RetryPolicy
from .backends import ExecutionBackend, chunk_evenly, ensure_picklable
from .pool import DEFAULT_MAX_DELTA_LOG, POOL_SYNC_MODES, join_with_escalation
from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    Boot,
    Fault,
    FrameConnection,
    Heartbeat,
    Hello,
    PeerDisconnected,
    Stop,
    Sync,
    Task,
    TaskResult,
    TruncatedFrameError,
    Welcome,
    WireError,
)

T = TypeVar("T")
R = TypeVar("R")

#: Default seconds between a worker's heartbeat beacons.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default seconds of silence after which the parent declares a worker
#: dead mid-batch and requeues its in-flight tasks.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Default seconds the parent waits for spawned workers to connect back
#: (and a spawn-less backend waits for any external worker) before
#: failing the dispatch loudly.  Overridable per backend via the
#: ``connect_timeout`` parameter / ``remote_connect_timeout`` config knob.
DEFAULT_CONNECT_TIMEOUT = 30.0

#: Degraded-mode policies for total fleet loss: ``"off"`` raises
#: :class:`FleetLossError`, ``"serial"`` falls back to bit-identical
#: in-process serial execution.
DEGRADED_MODES: tuple[str, ...] = ("off", "serial")

#: Rejoin policy the spawned loopback workers use: a worker whose
#: connection dies reconnects through the normal handshake with
#: exponential backoff instead of exiting.
LOOPBACK_REJOIN = RetryPolicy(
    max_attempts=5, base_delay=0.05, multiplier=2.0, max_delay=1.0
)

#: Seconds each side of the handshake waits for the other's frame.
_HANDSHAKE_TIMEOUT_SECONDS = 30.0

#: Seconds between liveness re-checks while waiting for results.
_RESULT_POLL_SECONDS = 0.1

#: Seconds a stopping loopback worker process gets per escalation step
#: (join after STOP, join after terminate, join after kill).
_JOIN_TIMEOUT_SECONDS = 5.0

#: Task chunks dispatched per worker per ``map_items`` batch.
_CHUNKS_PER_WORKER = 4


class FleetLossError(ExecutionError):
    """The entire remote fleet is gone and the batch cannot complete.

    Raised when no worker connects within the connect timeout, when the
    last worker dies mid-batch with task items still unanswered, or when
    fleet preparation ends with zero live workers.  The degraded-mode
    fallback (``degraded_mode="serial"``) catches exactly this type —
    single-worker failures with survivors requeue instead and are never
    degraded.
    """


class HashRing:
    """Consistent hashing over a mutable set of node names.

    Each node is mapped to ``replicas`` pseudo-random points on a ring
    (MD5 of ``"node#i"`` — stable across processes and Python hash
    seeds); a key is owned by the first node point at or after the
    key's own point.  Removing a node re-homes only that node's keys —
    which is exactly the requeue story: when a worker dies, its chunks
    move to their next ring owner while every other placement is
    untouched.

    >>> ring = HashRing()
    >>> ring.add("w0"); ring.add("w1")
    >>> owner = ring.lookup("chunk-3")
    >>> owner in ("w0", "w1")
    True
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self._replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._nodes: set[str] = set()

    @staticmethod
    def _hash(data: str) -> int:
        return int.from_bytes(
            hashlib.md5(data.encode("utf-8")).digest()[:8], "big"
        )

    @property
    def nodes(self) -> frozenset[str]:
        """The current node names."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, node: str) -> None:
        """Add ``node`` (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self._replicas):
            point = self._hash(f"{node}#{replica}")
            # Ties between distinct nodes are astronomically unlikely
            # (64-bit points); first-added keeps the point.
            if point not in self._owners:
                bisect.insort(self._points, point)
                self._owners[point] = node

    def remove(self, node: str) -> None:
        """Remove ``node`` (idempotent); its keys re-home to successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [
            point for point in self._points if self._owners[point] != node
        ]
        self._owners = {
            point: owner
            for point, owner in self._owners.items()
            if owner != node
        }

    def lookup(self, key: str) -> str | None:
        """The node owning ``key``, or ``None`` on an empty ring."""
        if not self._points:
            return None
        point = self._hash(key)
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]


# -- worker side -------------------------------------------------------------
#
# Mirrors the pool's worker-side resident state: one copy per process,
# advanced by SYNC frames, rebuilt in place by BOOT frames.

_EPOCH: int = -1
_APPLIER: Callable[[Any], None] | None = None


def _drain_worker_delta(worker_id: int) -> Any:
    """This worker's metrics increments since the last drain (or None)."""
    delta = get_registry().drain_delta()
    if delta is None:
        return None
    return (worker_id, delta)


def _apply_remote_sync(packet: Sync) -> None:
    """Replay the unseen suffix of one broadcast delta packet.

    Identical semantics (and metric names: ``worker_sync_ms`` /
    ``worker_syncs`` / ``worker_deltas_applied``) to the pool's
    worker-side sync replay — parity tests compare the two transports'
    results directly.
    """
    global _EPOCH
    started = time.perf_counter()
    applied = 0
    for delta_epoch, delta in packet.entries:
        if delta_epoch > _EPOCH:
            if _APPLIER is None:
                raise ExecutionError(
                    "remote worker received a SYNC frame but no delta "
                    "applier is bound; the parent should have sent a BOOT "
                    "instead of broadcasting"
                )
            _APPLIER(delta)
            applied += 1
    _EPOCH = max(_EPOCH, packet.epoch)
    registry = get_registry()
    registry.observe(
        "worker_sync_ms", (time.perf_counter() - started) * 1000.0
    )
    registry.inc("worker_syncs")
    if applied:
        registry.inc("worker_deltas_applied", applied)


def _apply_boot(boot: Boot) -> None:
    """(Re)build this process's resident state from a BOOT frame."""
    global _EPOCH, _APPLIER
    if boot.initializer is not None:
        boot.initializer(*boot.initargs)
    _EPOCH = boot.epoch
    _APPLIER = boot.applier
    # Baseline the registry: anything the initializer recorded while
    # rebuilding (journal replay, repacks) must not ship back as this
    # worker's task-time activity.
    get_registry().drain_delta()


def _execute_task(conn: FrameConnection, worker_id: int, task: Task) -> int:
    """Run one task chunk, streaming per-item RESULT frames back.

    Same per-item semantics as the pool's worker loop: an epoch-ahead
    task is a protocol violation answered with typed errors, a task
    exception becomes an error result carrying the pickled original,
    and the last result of the chunk piggybacks the drained worker
    metrics delta.  Returns the number of items served.
    """
    if task.epoch > _EPOCH:
        violation = ExecutionError(
            f"remote sync protocol violation: task epoch {task.epoch} is "
            f"ahead of resident epoch {_EPOCH} with no SYNC frame on the "
            f"stream"
        )
        for position, (index, _item) in enumerate(task.pairs):
            delta = (
                _drain_worker_delta(worker_id)
                if position == len(task.pairs) - 1
                else None
            )
            conn.send(
                TaskResult(
                    task.chunk_id,
                    index,
                    False,
                    exc_bytes=pickle.dumps(violation),
                    summary=repr(violation),
                    traceback="",
                    delta=delta,
                )
            )
        return len(task.pairs)
    for position, (index, item) in enumerate(task.pairs):
        last = position == len(task.pairs) - 1
        delta: Any = None
        try:
            value = task.fn(item)
            if last:
                delta = _drain_worker_delta(worker_id)
            try:
                conn.send(
                    TaskResult(task.chunk_id, index, True, value, delta=delta)
                )
                continue
            except PeerDisconnected:
                # The connection itself died (or a scripted tear fired):
                # not a payload problem — propagate to the session loop.
                raise
            except WireError as exc:
                # Encoding failed before any bytes hit the wire: report
                # the unpicklable result as a typed task error instead.
                raise ExecutionError(
                    f"remote task result for index {index} is not "
                    f"picklable: {exc}"
                ) from exc
        except KeyboardInterrupt:  # pragma: no cover - interactive
            raise
        except BaseException as exc:
            if last and delta is None:
                delta = _drain_worker_delta(worker_id)
            try:
                exc_bytes: bytes | None = pickle.dumps(exc)
            except Exception:
                exc_bytes = None
            conn.send(
                TaskResult(
                    task.chunk_id,
                    index,
                    False,
                    exc_bytes=exc_bytes,
                    summary=repr(exc),
                    traceback=traceback.format_exc(),
                    delta=delta,
                )
            )
    return len(task.pairs)


class _ScriptedDeath(Exception):
    """Control-flow signal: a plan's ``die_after_tasks`` trigger fired."""


def _serve_session(
    host: str,
    port: int,
    *,
    fingerprint: str | None,
    heartbeat_interval: float,
    max_frame_bytes: int,
    handshake_timeout: float,
    injector: FaultInjector | None,
    progress: list[int],
) -> bool:
    """One connect/handshake/serve cycle; ``True`` on a clean STOP.

    ``progress[0]`` accumulates served task items as they complete, so
    the caller still knows the count when the session dies mid-stream.
    Returns ``False`` when the parent closes the stream without a STOP
    frame — the rejoin-eligible outcome; connection faults raise.
    """
    if injector is not None:
        injector.session_started()
    sock = socket.create_connection((host, port), timeout=handshake_timeout)
    sock.settimeout(None)
    conn = FrameConnection(sock, max_frame_bytes, injector=injector)
    stop_beacon = threading.Event()
    try:
        conn.send(Hello(fingerprint=fingerprint))
        reply = conn.recv(timeout=handshake_timeout)
        if isinstance(reply, Fault):
            raise WireError(
                f"parent at {host}:{port} rejected this worker: "
                f"{reply.message}"
            )
        if not isinstance(reply, Welcome):
            raise WireError(
                f"expected WELCOME from {host}:{port}, got "
                f"{type(reply).__name__ if reply is not None else 'EOF'}"
            )
        if (
            fingerprint is not None
            and reply.fingerprint is not None
            and reply.fingerprint != fingerprint
        ):
            raise WireError(
                f"config fingerprint mismatch: this worker expects "
                f"{fingerprint}, parent at {host}:{port} serves "
                f"{reply.fingerprint}"
            )
        worker_id = reply.worker_id

        def _beat() -> None:
            period = heartbeat_interval
            if injector is not None:
                period += injector.heartbeat_delay()
            while not stop_beacon.wait(period):
                try:
                    conn.send(Heartbeat(epoch=_EPOCH))
                except (WireError, OSError):  # parent gone; main loop exits
                    return

        beacon = threading.Thread(
            target=_beat, name=f"repro-remote-beat-{worker_id}", daemon=True
        )
        beacon.start()
        while True:
            message = conn.recv()
            if message is None:
                return False
            if isinstance(message, Stop):
                return True
            if isinstance(message, Boot):
                _apply_boot(message)
            elif isinstance(message, Sync):
                _apply_remote_sync(message)
            elif isinstance(message, Task):
                served = _execute_task(conn, worker_id, message)
                progress[0] += served
                if injector is not None:
                    injector.note_served(served)
                    if injector.should_die():
                        raise _ScriptedDeath()
            elif isinstance(message, Fault):
                raise WireError(
                    f"parent faulted this worker: {message.message}"
                )
            else:  # pragma: no cover - guards future frame types
                raise WireError(
                    f"unexpected {type(message).__name__} frame in the "
                    f"worker message loop"
                )
    finally:
        stop_beacon.set()
        conn.close()


def run_worker(
    host: str,
    port: int,
    *,
    fingerprint: str | None = None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    handshake_timeout: float = _HANDSHAKE_TIMEOUT_SECONDS,
    rejoin: RetryPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> int:
    """Connect to a :class:`RemoteBackend` parent and serve until stopped.

    The ``repro worker --connect HOST:PORT`` entry point.  Performs the
    fingerprint handshake, then serves BOOT/SYNC/TASK frames in stream
    order until a STOP frame or the parent closes the connection.  A
    background thread sends a HEARTBEAT every ``heartbeat_interval``
    seconds.  Returns the number of task items served; raises
    :class:`~repro.exec.wire.WireError` when the parent rejects the
    handshake (e.g. a config-fingerprint mismatch).

    With a ``rejoin`` policy, a dropped connection (parent closed the
    stream without STOP, socket error, torn frame) is transient: the
    worker backs off per the policy and reconnects through the normal
    handshake, getting a fresh worker id and a full BOOT at the
    parent's current epoch.  A session that served at least one task
    item resets the attempt budget — only *consecutive* dead sessions
    exhaust it.  Fingerprint rejection stays permanent.

    ``fault_injector`` wires a scripted :class:`~repro.resilience.FaultPlan`
    into the send path and the serve loop (chaos tests only): dropped or
    torn RESULT frames, delayed heartbeats, and a one-shot scripted
    death after N served items — rejoined afterwards only when the plan
    sets ``rejoin_after_death``.
    """
    if heartbeat_interval <= 0:
        raise ConfigurationError("heartbeat_interval must be positive")
    total = 0
    attempt = 0
    while True:
        attempt += 1
        progress = [0]
        rejoinable = rejoin is not None and attempt < rejoin.max_attempts
        try:
            stopped = _serve_session(
                host,
                port,
                fingerprint=fingerprint,
                heartbeat_interval=heartbeat_interval,
                max_frame_bytes=max_frame_bytes,
                handshake_timeout=handshake_timeout,
                injector=fault_injector,
                progress=progress,
            )
        except _ScriptedDeath:
            total += progress[0]
            if not (
                rejoinable
                and fault_injector is not None
                and fault_injector.plan.rejoin_after_death
            ):
                return total
        except (PeerDisconnected, TruncatedFrameError, OSError):
            total += progress[0]
            if not rejoinable:
                raise
        else:
            total += progress[0]
            if stopped or not rejoinable:
                return total
        if progress[0] > 0:
            attempt = 1  # a productive session refreshes the rejoin budget
        assert rejoin is not None
        time.sleep(rejoin.delay(attempt))


def _loopback_worker_main(
    host: str,
    port: int,
    heartbeat_interval: float,
    max_frame_bytes: int,
) -> None:
    """Process target of the backend's self-spawned loopback workers."""
    try:
        run_worker(
            host,
            port,
            fingerprint=None,
            heartbeat_interval=heartbeat_interval,
            max_frame_bytes=max_frame_bytes,
            rejoin=LOOPBACK_REJOIN,
        )
    except (OSError, PeerDisconnected, TruncatedFrameError):
        # Rejoin budget exhausted and the parent is gone for good:
        # exit quietly instead of spraying a traceback into CI logs.
        pass


# -- parent side -------------------------------------------------------------


class _Chunk:
    """One in-flight task chunk: its ring key and unanswered pairs."""

    __slots__ = ("key", "pairs", "epoch")

    def __init__(
        self, key: str, pairs: Iterable[tuple[int, Any]], epoch: int
    ) -> None:
        self.key = key
        self.pairs: dict[int, Any] = dict(pairs)
        self.epoch = epoch


class _RemoteWorker:
    """Parent-side handle of one connected worker."""

    __slots__ = (
        "worker_id", "conn", "host", "last_seen", "chunks", "counted_rx"
    )

    def __init__(
        self, worker_id: int, conn: FrameConnection, host: str = "?"
    ) -> None:
        self.worker_id = worker_id
        self.conn = conn
        #: Peer address string — the circuit breaker's accounting key, so
        #: fault history survives the fresh worker_id a rejoin gets.
        self.host = host
        self.last_seen = 0.0
        #: chunk_id -> :class:`_Chunk` with result-pending pairs.
        self.chunks: dict[int, _Chunk] = {}
        self.counted_rx = 0

    @property
    def node(self) -> str:
        """This worker's ring node name."""
        return f"worker-{self.worker_id}"


class RemoteBackend(ExecutionBackend):
    """TCP-transported pool backend with heartbeats and dead-peer requeue.

    Parameters
    ----------
    workers:
        Fleet width: how many loopback worker processes the backend
        spawns (``spawn_workers=True``).  External ``repro worker``
        processes join on top of (or, with ``spawn_workers=False``,
        instead of) the spawned fleet.
    sync / max_delta_log:
        Exactly the pool's knobs: ``"delta"`` broadcasts per-epoch
        mutation packets (one SYNC frame per worker), ``"full"`` (or an
        overgrown log) re-sends BOOT frames instead.
    host / port:
        Listener bind address; port ``0`` (default) picks a free port —
        read it back from :attr:`address`.
    spawn_workers:
        Spawn ``workers`` loopback processes on first dispatch (and
        respawn after total fleet loss).  ``False`` serves only
        externally connected workers.
    heartbeat_interval / heartbeat_timeout:
        Beacon period passed to spawned workers, and the silence
        window after which the parent declares any worker dead
        mid-batch.  The timeout must exceed the interval.
    connect_timeout:
        Seconds the parent waits for workers to connect before a
        dispatch fails with :class:`FleetLossError`.
    degraded_mode:
        Total-fleet-loss policy: ``"off"`` (default) raises
        :class:`FleetLossError`; ``"serial"`` re-runs the lost batch
        in-process on the parent's own state — bit-identical results,
        no parallelism, counted as ``remote_degraded_dispatches``.
    breaker_threshold / breaker_cooldown:
        Per-host circuit breaker: after ``breaker_threshold``
        consecutive faults from one peer host, its reconnecting
        workers are deferred for ``breaker_cooldown`` seconds (default
        the heartbeat interval), then one probe is re-admitted.
        ``breaker_threshold=0`` disables the breaker.  The breaker
        never empties the fleet — with no admissible worker left,
        open-circuit hosts are probed anyway.
    fingerprint:
        This parent's config fingerprint, offered in WELCOME frames and
        checked against each HELLO: a worker expecting a different
        fingerprint is rejected with a FAULT before it can serve tasks.
    max_frame_bytes:
        Per-frame payload ceiling on every connection.
    metrics:
        Registry for the backend's counters (``remote_*``) and merged
        worker deltas.
    """

    name = "remote"
    requires_pickling = True

    def __init__(
        self,
        workers: int | None = None,
        sync: str = "delta",
        max_delta_log: int = DEFAULT_MAX_DELTA_LOG,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        degraded_mode: str = "off",
        breaker_threshold: int = 3,
        breaker_cooldown: float | None = None,
        fingerprint: str | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(workers)
        if sync not in POOL_SYNC_MODES:
            raise ConfigurationError(
                f"unknown remote sync mode {sync!r}; "
                f"expected one of {POOL_SYNC_MODES}"
            )
        if max_delta_log < 0:
            raise ConfigurationError("max_delta_log must be >= 0")
        if heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ConfigurationError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval}); a timeout "
                f"inside one beacon period declares healthy workers dead"
            )
        if connect_timeout <= 0:
            raise ConfigurationError("connect_timeout must be positive")
        if degraded_mode not in DEGRADED_MODES:
            raise ConfigurationError(
                f"unknown degraded_mode {degraded_mode!r}; "
                f"expected one of {DEGRADED_MODES}"
            )
        self.sync = sync
        self.max_delta_log = max_delta_log
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.degraded_mode = degraded_mode
        self.fingerprint = fingerprint
        self.max_frame_bytes = max_frame_bytes
        self._clock = clock or time.monotonic
        self._breaker = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=(
                breaker_cooldown
                if breaker_cooldown is not None
                else heartbeat_interval
            ),
            clock=self._clock,
        )
        #: Peer hosts that have ever faulted — a reconnect from one of
        #: these is a rejoin, not a first join.
        self._faulted_hosts: set[str] = set()
        # Degraded-mode cache: which (initializer, initargs, epoch) the
        # parent process last ran in-line, so serial fallbacks only
        # rebuild parent-resident state when it is actually stale.
        self._degraded_init: Callable[..., None] | None = None
        self._degraded_initargs: tuple[Any, ...] = ()
        self._degraded_epoch = -1
        self._chunk_seq = 0
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # _lock guards protocol state (shared with the accept thread;
        # _cond signals new pending workers); _dispatch_lock serialises
        # whole batches, exactly as in the pool.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._dispatch_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closing = False
        self._pending: list[_RemoteWorker] = []
        self._workers: list[_RemoteWorker] = []
        self._ring = HashRing()
        self._spawned: list[Any] = []
        self._next_worker_id = 0
        self._bound_init: Callable[..., None] | None = None
        self._bound_initargs: tuple[Any, ...] = ()
        self._applier: Callable[[Any], None] | None = None
        self._applier_init: Callable[..., None] | None = None
        self._fleet_applier: Callable[[Any], None] | None = None
        self._epoch = 0
        self._fleet_epoch = -1
        self._deltas: list[tuple[int, Any]] = []
        self._log_complete = True
        self._booted = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._boots = self.metrics.counter("remote_boots")
        self._delta_syncs = self.metrics.counter("remote_delta_syncs")
        self._sync_messages = self.metrics.counter("remote_sync_messages")
        self._sync_bytes = self.metrics.counter("remote_sync_bytes")
        self._frames_sent = self.metrics.counter("remote_frames_sent")
        self._frames_received = self.metrics.counter("remote_frames_received")
        self._bytes_sent = self.metrics.counter("remote_bytes_sent")
        self._bytes_received = self.metrics.counter("remote_bytes_received")
        self._heartbeats = self.metrics.counter("remote_heartbeats")
        self._requeues = self.metrics.counter("remote_requeues")
        self._dead_workers = self.metrics.counter("remote_dead_workers")
        self._torn_frames = self.metrics.counter("remote_torn_frames")
        self._handshake_rejects = self.metrics.counter(
            "remote_handshake_rejects"
        )
        self._spawns = self.metrics.counter("remote_spawns")
        self._degraded_dispatches = self.metrics.counter(
            "remote_degraded_dispatches"
        )
        self._rejoins = self.metrics.counter("remote_rejoins")
        self._breaker_deferrals = self.metrics.counter(
            "remote_breaker_deferrals"
        )
        self._deadline_aborts = self.metrics.counter("remote_deadline_aborts")
        self._stale_results = self.metrics.counter("remote_stale_results")

    # -- listener / handshake ------------------------------------------------

    def listen(self) -> tuple[str, int]:
        """Start the listener (idempotent); returns ``(host, port)``.

        The CLI's ``serve --listen`` front end calls this before
        printing the address external ``repro worker`` processes should
        connect to; dispatches start it lazily otherwise.
        """
        with self._lock:
            self._ensure_listener()
            assert self._listener is not None
            return self._listener.getsockname()[:2]

    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` of the live listener, or ``None``."""
        with self._lock:
            if self._listener is None:
                return None
            return self._listener.getsockname()[:2]

    def _ensure_listener(self) -> None:
        """Bind the listener and start the accept thread (under _lock)."""
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self._closing = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(listener,),
            name="repro-remote-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def _accept_loop(self, listener: socket.socket) -> None:
        """Admit connecting workers: handshake, then park them as pending."""
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:  # listener closed: shutdown
                return
            try:
                self._handshake(sock)
            except Exception:  # never let one bad client kill admission
                try:
                    sock.close()
                except OSError:
                    pass

    def _handshake(self, sock: socket.socket) -> None:
        """Validate one connecting worker's HELLO and park it as pending."""
        conn = FrameConnection(sock, self.max_frame_bytes)
        try:
            hello = conn.recv(timeout=_HANDSHAKE_TIMEOUT_SECONDS)
        except (WireError, TimeoutError, OSError):
            self._handshake_rejects.inc()
            conn.close()
            return
        if not isinstance(hello, Hello):
            self._handshake_rejects.inc()
            conn.close()
            return
        if (
            self.fingerprint is not None
            and hello.fingerprint is not None
            and hello.fingerprint != self.fingerprint
        ):
            self._handshake_rejects.inc()
            try:
                conn.send(
                    Fault(
                        f"config fingerprint mismatch: worker expects "
                        f"{hello.fingerprint}, this parent serves "
                        f"{self.fingerprint}",
                        details={
                            "expected": hello.fingerprint,
                            "serving": self.fingerprint,
                        },
                    )
                )
            except (WireError, OSError):
                pass
            conn.close()
            return
        # WELCOME is sent and the worker parked under one lock hold: a
        # worker that has read its WELCOME is already pending, so the
        # next dispatch admits it (dispatch admits under the same lock).
        with self._cond:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            try:
                sent = conn.send(
                    Welcome(worker_id=worker_id, fingerprint=self.fingerprint)
                )
            except (WireError, OSError):
                conn.close()
                return
            self._frames_sent.inc()
            self._bytes_sent.inc(sent)
            # The breaker keys on the bare peer host (ephemeral source
            # ports change every reconnect, worker ids are never reused).
            peer_host = conn.peer.rsplit(":", 1)[0]
            worker = _RemoteWorker(worker_id, conn, host=peer_host)
            worker.last_seen = self._clock()
            if peer_host in self._faulted_hosts:
                self._rejoins.inc()
            self._pending.append(worker)
            self._cond.notify_all()

    # -- state registration (pool-identical semantics) -----------------------

    def bind_delta_applier(
        self,
        applier: Callable[[Any], None],
        initializer: Callable[..., None],
    ) -> None:
        """Register the worker-side mutation applier for delta sync."""
        with self._lock:
            self._applier = applier
            self._applier_init = initializer

    def notify_state_change(self, delta: Any = None) -> int:
        """Record one mutation of the state behind the remote workers."""
        with self._lock:
            self._epoch += 1
            if delta is not None and self.sync == "delta":
                self._deltas.append((self._epoch, delta))
            else:
                self._deltas.clear()
                self._log_complete = False
            return self._epoch

    # -- introspection -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The parent-side state epoch (mutations seen so far)."""
        with self._lock:
            return self._epoch

    @property
    def resident_epoch(self) -> int:
        """Epoch every connected worker is guaranteed to have reached."""
        with self._lock:
            return self._fleet_epoch

    @property
    def pending_deltas(self) -> int:
        """Logged mutations not yet broadcast to the fleet."""
        with self._lock:
            return len(self._deltas)

    @property
    def live_workers(self) -> int:
        """Connected, booted workers currently serving tasks."""
        with self._lock:
            return len(self._workers)

    def remote_stats(self) -> dict[str, Any]:
        """Operational counters for service/CLI statistics output.

        The remote analogue of the pool's ``pool_stats()``: sync mode
        and epochs, BOOT re-ships and SYNC broadcasts with their
        control-plane volume, total frame/byte traffic both ways,
        heartbeats seen, and the fault-path counters (dead workers,
        requeued task items, torn frames, handshake rejects).
        """
        with self._lock:
            address = (
                self._listener.getsockname()[:2] if self._listener else None
            )
            return {
                "sync": self.sync,
                "epoch": self._epoch,
                "resident_epoch": self._fleet_epoch,
                "address": list(address) if address else None,
                "live_workers": len(self._workers),
                "pending_workers": len(self._pending),
                "spawned_workers": len(self._spawned),
                "pending_deltas": len(self._deltas),
                "boots": int(self._boots.value),
                "delta_syncs": int(self._delta_syncs.value),
                "sync_messages": int(self._sync_messages.value),
                "sync_bytes": int(self._sync_bytes.value),
                "frames_sent": int(self._frames_sent.value),
                "frames_received": int(self._frames_received.value),
                "bytes_sent": int(self._bytes_sent.value),
                "bytes_received": int(self._bytes_received.value),
                "heartbeats": int(self._heartbeats.value),
                "requeues": int(self._requeues.value),
                "dead_workers": int(self._dead_workers.value),
                "torn_frames": int(self._torn_frames.value),
                "handshake_rejects": int(self._handshake_rejects.value),
                "degraded_dispatches": int(self._degraded_dispatches.value),
                "rejoins": int(self._rejoins.value),
                "breaker_deferrals": int(self._breaker_deferrals.value),
                "deadline_aborts": int(self._deadline_aborts.value),
                "stale_results": int(self._stale_results.value),
                "heartbeat_interval": self.heartbeat_interval,
                "heartbeat_timeout": self.heartbeat_timeout,
                "connect_timeout": self.connect_timeout,
                "degraded_mode": self.degraded_mode,
            }

    # -- fleet management ----------------------------------------------------

    def _spawn_loopback(self, count: int) -> None:
        """Fork ``count`` loopback worker processes (under _lock)."""
        assert self._listener is not None
        host, port = self._listener.getsockname()[:2]
        for _ in range(count):
            process = self._context.Process(
                target=_loopback_worker_main,
                args=(
                    host,
                    port,
                    self.heartbeat_interval,
                    self.max_frame_bytes,
                ),
                daemon=True,
            )
            process.start()
            self._spawned.append(process)
            self._spawns.inc()

    def _ensure_fleet(self) -> None:
        """Spawn/await workers until the fleet is usable (under _lock).

        With ``spawn_workers`` the backend tops the fleet up to
        ``workers`` loopback processes and waits for every spawn to
        connect (local connects are fast; waiting removes the
        spawn-count race).  Without it, it waits for at least one
        external worker.  Raises :class:`ExecutionError` when the
        deadline passes with an empty fleet.
        """
        deadline = self._clock() + self.connect_timeout
        if self.spawn_workers:
            self._spawned = [p for p in self._spawned if p.is_alive()]
            connected = len(self._workers) + len(self._pending)
            deficit = self.workers - connected
            if deficit > 0:
                self._spawn_loopback(deficit)
                target = min(self.workers, connected + deficit)
                while len(self._workers) + len(self._pending) < target:
                    remaining = deadline - self._clock()
                    if remaining <= 0 or not any(
                        p.is_alive() for p in self._spawned
                    ):
                        break
                    self._cond.wait(timeout=min(remaining, 0.05))
        while not self._workers and not self._pending:
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise FleetLossError(
                    f"no remote workers connected within "
                    f"{self.connect_timeout:.0f}s (listener "
                    f"{self.address}); start workers with "
                    f"'repro worker --connect HOST:PORT' or enable "
                    f"spawn_workers"
                )
            self._cond.wait(timeout=min(remaining, 0.25))

    def _send_tracked(self, worker: _RemoteWorker, message: Any) -> None:
        """Send one frame to ``worker``, counting traffic; raises on failure."""
        sent = worker.conn.send(message)
        self._frames_sent.inc()
        self._bytes_sent.inc(sent)

    def _boot_message(self) -> Boot:
        return Boot(
            initializer=self._bound_init,
            initargs=self._bound_initargs,
            epoch=self._epoch,
            applier=self._fleet_applier,
            sync=self.sync,
        )

    def _boot_pending(self, worker: _RemoteWorker) -> None:
        """Boot one parked worker into the live fleet (under _lock)."""
        try:
            self._send_tracked(worker, self._boot_message())
        except (WireError, OSError):
            worker.conn.close()
            return
        self._boots.inc()
        worker.last_seen = self._clock()
        self._workers.append(worker)
        self._ring.add(worker.node)

    def _admit_pending(self) -> None:
        """Boot parked pending workers into the live fleet (under _lock).

        A worker from a host whose circuit is open stays parked
        (counted as a ``remote_breaker_deferrals``) — unless admitting
        open-circuit hosts is the only way to have a fleet at all: the
        breaker sheds suspect peers, it never refuses the last hope.
        """
        deferred: list[_RemoteWorker] = []
        while self._pending:
            worker = self._pending.pop(0)
            if not self._breaker.allow(worker.host):
                self._breaker_deferrals.inc()
                deferred.append(worker)
                continue
            self._boot_pending(worker)
        while deferred and not self._workers:
            self._boot_pending(deferred.pop(0))
        self._pending.extend(deferred)

    def _reboot_fleet(self) -> None:
        """Re-send BOOT to every live worker — the remote 'restart'."""
        for worker in list(self._workers):
            try:
                self._send_tracked(worker, self._boot_message())
            except (WireError, OSError):
                self._discard_worker(worker)
                continue
            self._boots.inc()
            worker.last_seen = self._clock()

    def _broadcast_sync(self) -> None:
        """Fan the pending delta packet out: one SYNC frame per worker.

        The pool's tentpole invariant carries over: TCP preserves the
        per-connection FIFO, so after the fan-out the parent clears its
        log — any TASK written later is read after the SYNC.
        """
        packet = Sync(epoch=self._epoch, entries=tuple(self._deltas))
        for worker in list(self._workers):
            try:
                sent = worker.conn.send(packet)
            except (WireError, OSError):
                self._discard_worker(worker)
                continue
            self._frames_sent.inc()
            self._bytes_sent.inc(sent)
            self._sync_messages.inc()
            self._sync_bytes.inc(sent)
        self._delta_syncs.inc()

    def _discard_worker(self, worker: _RemoteWorker) -> None:
        """Drop a worker outside a batch (no in-flight chunks to requeue)."""
        if worker in self._workers:
            self._workers.remove(worker)
        self._ring.remove(worker.node)
        worker.conn.close()
        self._dead_workers.inc()

    def _can_delta_sync(self, initializer: Callable[..., None] | None) -> bool:
        if self.sync != "delta" or not self._log_complete:
            return False
        if self._applier is None or initializer is not self._applier_init:
            return False
        if self._applier is not self._fleet_applier:
            return False
        return len(self._deltas) <= self.max_delta_log

    def _prepare_dispatch(
        self,
        initializer: Callable[..., None] | None,
        initargs: tuple[Any, ...],
    ) -> tuple[list[_RemoteWorker], int]:
        """Bring the fleet to the current epoch; returns (workers, epoch).

        Must run under :attr:`_lock`.  Mirrors the pool's dispatch
        preparation with one twist: a "restart" re-sends BOOT frames in
        place instead of killing processes, and newly connected workers
        (pending) are booted directly at the current epoch.
        """
        from .pool import _same_elements

        self._ensure_listener()
        rebind = (
            not self._booted
            or initializer is not self._bound_init
            or not _same_elements(initargs, self._bound_initargs)
        )
        stale = self._epoch > self._fleet_epoch
        if rebind or (stale and not self._can_delta_sync(initializer)):
            self._bound_init = initializer
            self._bound_initargs = initargs
            self._fleet_applier = (
                self._applier
                if initializer is self._applier_init
                else None
            )
            self._reboot_fleet()
            self._booted = True
        elif stale:
            self._broadcast_sync()
        self._fleet_epoch = self._epoch
        self._deltas.clear()
        self._log_complete = True
        self._ensure_fleet()
        self._admit_pending()
        if not self._workers:
            raise FleetLossError(
                "remote backend has no live workers after fleet preparation"
            )
        for worker in self._workers:
            worker.last_seen = self._clock()
        return list(self._workers), self._fleet_epoch

    # -- dispatch ------------------------------------------------------------

    def map_items(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        deadline: Deadline | None = None,
    ) -> list[R]:
        """``[fn(item) for item in items]`` on the remote fleet.

        Tasks are chunked (a few chunks per worker), placed by the
        consistent-hash ring, and streamed back as tagged RESULT
        frames; output order and content are bit-identical to the
        serial backend.  A worker lost mid-batch has its unanswered
        items requeued onto the ring's surviving owners; with
        ``degraded_mode="serial"`` a *total* fleet loss falls back to
        in-process serial execution instead of raising.
        """
        items = list(items)
        if not items:
            return []
        ensure_picklable(fn)
        if deadline is not None:
            deadline.check(f"remote dispatch of {len(items)} task item(s)")
        with self._dispatch_lock:
            try:
                with self._lock:
                    workers, epoch = self._prepare_dispatch(
                        initializer, initargs
                    )
                chunks = chunk_evenly(
                    list(enumerate(items)),
                    min(len(items), len(workers) * _CHUNKS_PER_WORKER),
                )
                keyed = [
                    (f"chunk-{position}", chunk)
                    for position, chunk in enumerate(chunks)
                ]
                return self._run_batch(fn, keyed, epoch, len(items), deadline)
            except FleetLossError:
                if self.degraded_mode != "serial":
                    raise
                return self._degraded_batch(
                    fn, items, initializer, initargs, deadline
                )

    def map_partitions(
        self,
        fn: Callable[[T], R],
        partitions: Sequence[T],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        deadline: Deadline | None = None,
    ) -> list[R]:
        """One task per partition, placed by ``shard-N`` ring keys.

        Stable keys mean partition ``N`` lands on the same worker for
        every batch while the fleet is unchanged — index shards stick
        to workers (warm shard state stays warm), and a fleet change
        re-homes only the dead worker's shards.
        """
        partitions = list(partitions)
        if not partitions:
            return []
        ensure_picklable(fn)
        if deadline is not None:
            deadline.check(
                f"remote dispatch of {len(partitions)} partition(s)"
            )
        with self._dispatch_lock:
            try:
                with self._lock:
                    _workers, epoch = self._prepare_dispatch(
                        initializer, initargs
                    )
                keyed = [
                    (f"shard-{position}", [(position, partition)])
                    for position, partition in enumerate(partitions)
                ]
                return self._run_batch(
                    fn, keyed, epoch, len(partitions), deadline
                )
            except FleetLossError:
                if self.degraded_mode != "serial":
                    raise
                return self._degraded_batch(
                    fn, partitions, initializer, initargs, deadline
                )

    def _degraded_batch(
        self,
        fn: Callable[..., Any],
        items: Sequence[Any],
        initializer: Callable[..., None] | None,
        initargs: tuple[Any, ...],
        deadline: Deadline | None = None,
    ) -> list[Any]:
        """Serve one batch in-process after total fleet loss.

        The serial fallback runs ``fn`` on the parent's own resident
        state, so results are bit-identical to the serial backend (and
        to what the fleet would have produced) — the price is losing
        parallelism, not correctness.  The worker initializer (already
        required to be idempotent by the pool/remote restart contract)
        reruns in the parent process only when the bound state or
        epoch changed since the last degraded run; the whole batch is
        recomputed even if the fleet answered part of it before dying,
        which is safe because task functions are pure.
        """
        from .pool import _same_elements

        self._degraded_dispatches.inc()
        with self._lock:
            epoch = self._epoch
            stale = (
                initializer is not self._degraded_init
                or not _same_elements(initargs, self._degraded_initargs)
                or epoch != self._degraded_epoch
            )
        if stale and initializer is not None:
            initializer(*initargs)
        with self._lock:
            self._degraded_init = initializer
            self._degraded_initargs = initargs
            self._degraded_epoch = epoch
        results: list[Any] = []
        for position, item in enumerate(items):
            if deadline is not None:
                deadline.check(f"degraded serial task {position}")
            results.append(fn(item))
        return results

    def _worker_for(self, key: str) -> _RemoteWorker:
        """The live worker owning ``key`` on the ring (under _lock)."""
        node = self._ring.lookup(key)
        for worker in self._workers:
            if worker.node == node:
                return worker
        raise ExecutionError(
            f"hash ring owner {node!r} for key {key!r} has no live worker"
        )

    def _run_batch(
        self,
        fn: Callable[..., Any],
        keyed_chunks: list[tuple[str, list[tuple[int, Any]]]],
        epoch: int,
        expected: int,
        deadline: Deadline | None = None,
    ) -> list[Any]:
        """Place, dispatch and collect one batch (under _dispatch_lock)."""
        with self._lock:
            sends: list[tuple[_RemoteWorker, Task, _Chunk]] = []
            # Chunk ids are globally monotonic, never per-batch: a
            # result frame that straggles in after its batch was
            # abandoned (deadline abort) can then never alias a chunk
            # of the next batch — it is counted stale and dropped.
            for key, pairs in keyed_chunks:
                worker = self._worker_for(key)
                chunk_id = self._chunk_seq
                self._chunk_seq += 1
                task = Task(
                    chunk_id=chunk_id,
                    fn=fn,
                    pairs=tuple(pairs),
                    epoch=epoch,
                )
                chunk = _Chunk(key, pairs, epoch)
                worker.chunks[chunk_id] = chunk
                sends.append((worker, task, chunk))
        failed: list[_RemoteWorker] = []
        for worker, task, _chunk in sends:
            if worker in failed:
                continue  # its chunks requeue through the failure path
            try:
                self._send_tracked(worker, task)
            except (WireError, OSError):
                failed.append(worker)
        values: dict[int, Any] = {}
        failures: dict[int, tuple[bytes | None, str, str]] = {}
        try:
            self._collect(
                fn, expected, epoch, values, failures,
                initially_failed=failed, deadline=deadline,
            )
        finally:
            with self._lock:
                for worker in self._workers:
                    worker.chunks.clear()
        with self._lock:
            for worker in self._workers:
                self._breaker.record_success(worker.host)
        if failures:
            index = min(failures)
            exc_bytes, summary, tb = failures[index]
            original: BaseException | None = None
            if exc_bytes is not None:
                try:
                    loaded = pickle.loads(exc_bytes)
                except Exception:  # pragma: no cover - defensive
                    loaded = None
                if isinstance(loaded, BaseException):
                    original = loaded
            if original is not None:
                raise original from ExecutionError(
                    f"remote task {fn!r} failed in a worker process; "
                    f"worker traceback:\n{tb}"
                )
            raise ExecutionError(
                f"remote task {fn!r} failed with an unpicklable exception "
                f"{summary}; worker traceback:\n{tb}"
            )
        return [values[index] for index in range(expected)]

    def _collect(
        self,
        fn: Callable[..., Any],
        expected: int,
        epoch: int,
        values: dict[int, Any],
        failures: dict[int, tuple[bytes | None, str, str]],
        *,
        initially_failed: list[_RemoteWorker],
        deadline: Deadline | None = None,
    ) -> None:
        """Drain results, policing liveness and requeuing onto survivors.

        A ``deadline`` is checked between selector rounds, never inside
        one: an aborted batch leaves no half-recorded results, and any
        straggler frames from its abandoned chunks are dropped as stale
        by :meth:`_handle_message` in later batches.
        """
        selector = selectors.DefaultSelector()
        with self._lock:
            for worker in self._workers:
                selector.register(worker.conn, selectors.EVENT_READ, worker)
        try:
            for worker in initially_failed:
                self._fail_worker(
                    worker, "send failed at dispatch", fn, epoch,
                    selector, values, failures,
                )
            while len(values) + len(failures) < expected:
                if deadline is not None and deadline.expired():
                    self._deadline_aborts.inc()
                    deadline.check(
                        f"remote batch for {fn!r} "
                        f"({expected - len(values) - len(failures)} of "
                        f"{expected} task item(s) unanswered)"
                    )
                events = selector.select(timeout=_RESULT_POLL_SECONDS)
                now = self._clock()
                for key, _mask in events:
                    worker = key.data
                    try:
                        messages, eof = worker.conn.poll()
                    except TruncatedFrameError as exc:
                        self._torn_frames.inc()
                        self._fail_worker(
                            worker, f"torn frame: {exc}", fn, epoch,
                            selector, values, failures,
                        )
                        continue
                    except WireError as exc:
                        self._fail_worker(
                            worker, f"wire fault: {exc}", fn, epoch,
                            selector, values, failures,
                        )
                        continue
                    worker.last_seen = now
                    rx = worker.conn.bytes_received
                    self._bytes_received.inc(rx - worker.counted_rx)
                    worker.counted_rx = rx
                    for message in messages:
                        self._frames_received.inc()
                        self._handle_message(worker, message, values, failures)
                    if eof:
                        self._fail_worker(
                            worker, "connection closed", fn, epoch,
                            selector, values, failures,
                        )
                if len(values) + len(failures) >= expected:
                    return
                silence_cutoff = self._clock() - self.heartbeat_timeout
                with self._lock:
                    silent = [
                        worker
                        for worker in self._workers
                        if worker.last_seen < silence_cutoff
                    ]
                for worker in silent:
                    self._fail_worker(
                        worker,
                        f"no heartbeat for {self.heartbeat_timeout:.1f}s "
                        f"(partitioned or hung)",
                        fn, epoch, selector, values, failures,
                    )
        finally:
            selector.close()

    def _handle_message(
        self,
        worker: _RemoteWorker,
        message: Any,
        values: dict[int, Any],
        failures: dict[int, tuple[bytes | None, str, str]],
    ) -> None:
        """Process one frame from a live worker during collection."""
        if isinstance(message, TaskResult):
            chunk = worker.chunks.get(message.chunk_id)
            if chunk is not None:
                chunk.pairs.pop(message.index, None)
                if not chunk.pairs:
                    del worker.chunks[message.chunk_id]
                if (
                    message.index not in values
                    and message.index not in failures
                ):
                    if message.ok:
                        values[message.index] = message.value
                    else:
                        failures[message.index] = (
                            message.exc_bytes,
                            message.summary,
                            message.traceback,
                        )
            else:
                # A straggler from an abandoned batch (deadline abort):
                # chunk ids are globally monotonic, so it can't alias a
                # live chunk — count it, keep only its metrics delta.
                self._stale_results.inc()
            if message.delta is not None:
                worker_id, payload = message.delta
                self.metrics.merge_delta(
                    payload, extra_labels={"worker": str(worker_id)}
                )
        elif isinstance(message, Heartbeat):
            self._heartbeats.inc()
        # Any other frame type from a worker is unexpected but harmless
        # liveness; the type check in decode_message already rejected
        # malformed payloads.

    def _fail_worker(
        self,
        worker: _RemoteWorker,
        reason: str,
        fn: Callable[..., Any],
        epoch: int,
        selector: selectors.BaseSelector,
        values: dict[int, Any],
        failures: dict[int, tuple[bytes | None, str, str]],
    ) -> None:
        """Declare ``worker`` dead mid-batch and requeue its task items.

        The dead worker leaves the ring, each of its in-flight chunks
        re-resolves through its original ring key (landing on the
        chunk's new consistent-hash owner), and the unanswered pairs
        are re-sent at the same epoch — survivors share the broadcast
        state, so requeued results are bit-identical.  With no
        survivors left the batch fails loudly with
        :class:`FleetLossError` (which degraded mode may absorb).
        """
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            self._ring.remove(worker.node)
            self._breaker.record_failure(worker.host)
            self._faulted_hosts.add(worker.host)
        try:
            selector.unregister(worker.conn)
        except (KeyError, ValueError):
            pass
        worker.conn.close()
        self._dead_workers.inc()
        orphans = list(worker.chunks.values())
        worker.chunks.clear()
        pending = sum(
            1
            for chunk in orphans
            for index in chunk.pairs
            if index not in values and index not in failures
        )
        if not orphans or pending == 0:
            return
        queue = list(orphans)
        while queue:
            chunk = queue.pop(0)
            remaining = [
                (index, item)
                for index, item in chunk.pairs.items()
                if index not in values and index not in failures
            ]
            if not remaining:
                continue
            with self._lock:
                if not self._workers:
                    raise FleetLossError(
                        f"remote worker {worker.worker_id} died mid-batch "
                        f"({reason}) and no workers survive to requeue "
                        f"{pending} task item(s) for {fn!r}"
                    )
                target = self._worker_for(chunk.key)
                chunk_id = self._chunk_seq
                self._chunk_seq += 1
                requeued = _Chunk(chunk.key, remaining, epoch)
                target.chunks[chunk_id] = requeued
            try:
                self._send_tracked(
                    target,
                    Task(
                        chunk_id=chunk_id,
                        fn=fn,
                        pairs=tuple(remaining),
                        epoch=epoch,
                    ),
                )
            except (WireError, OSError):
                # The survivor died while absorbing the requeue: recurse
                # through the same failure path (its own chunks included).
                self._fail_worker(
                    target, "send failed during requeue", fn, epoch,
                    selector, values, failures,
                )
                queue.append(requeued)
                continue
            self._requeues.inc(len(remaining))

    # -- lifecycle -----------------------------------------------------------

    def _stop_spawned(self) -> None:
        """Join loopback processes, escalating terminate -> kill.

        Same shared escalation policy as the pool's worker stop; the
        remote listener is already closed at this point, so a stopping
        worker cannot rejoin mid-escalation.
        """
        for process in self._spawned:
            join_with_escalation(process)
        self._spawned = []

    def close(self) -> None:
        """Stop every worker, the listener and the accept thread (idempotent)."""
        with self._dispatch_lock:
            with self._lock:
                self._closing = True
                for worker in self._workers + self._pending:
                    try:
                        worker.conn.send(Stop())
                    except (WireError, OSError):
                        pass
                    worker.conn.close()
                self._workers = []
                self._pending = []
                self._ring = HashRing()
                if self._listener is not None:
                    # Closing alone does not wake the thread blocked in
                    # accept(); shutting the socket down first does, so
                    # the join below returns at once instead of timing out.
                    try:
                        self._listener.shutdown(socket.SHUT_RDWR)
                    except OSError:  # pragma: no cover - not connected
                        pass
                    try:
                        self._listener.close()
                    except OSError:  # pragma: no cover - already closed
                        pass
                    self._listener = None
                accept_thread = self._accept_thread
                self._accept_thread = None
                self._booted = False
                self._fleet_epoch = -1
                self._bound_init = None
                self._bound_initargs = ()
            self._stop_spawned()
        if accept_thread is not None:
            accept_thread.join(timeout=_JOIN_TIMEOUT_SECONDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteBackend(workers={self.workers}, sync={self.sync!r}, "
            f"address={self.address}, live={self.live_workers})"
        )
