"""The benchmark's serving process: a warm service behind a real RequestServer.

Started by ``perfbench/run.py`` with pipes on stdin/stdout; speaks one
JSON object per line.  The first line is the setup spec; the process
answers ``{"event": "ready", ...}`` once the service is set up and the
TCP front end is bound, then serves control commands until
``shutdown``:

* ``mark`` — start of the measured phase: counter baselines are taken
  and earlier spans dropped;
* ``batch`` — one ``recommend_many`` call (the ``batch_fleet`` closed
  loop; the TCP front end has no batch request);
* ``stats`` — counter deltas since ``mark``, peak RSS of this process
  and its fleet workers, and (traced) the spans written to a file;
* ``shutdown`` — ``RequestServer.stop()`` + ``service.close()``, timed
  until no child process or socket of this process is left.

With ``"setup_only": true`` in the spec the process instead sets up
once, answers ``{"setup_s": ..., "setup_layers": ...}``, tears the
replica down and exits: one more set-up sample, taken in a fresh
process with nothing else running.

Everything else this process prints goes to stderr.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.config import RecommenderConfig
from repro.data.groups import Group
from repro.obs import get_registry
from repro.serving import RecommendationService
from repro.serving.server import RequestServer

from perfbench.spans import Tracer, install, span_totals
from perfbench.workloads import Workload, build_dataset

#: Seconds shutdown waits for threads, child processes and sockets to go away.
SHUTDOWN_BOUND_S = 20.0

#: Seconds daemon threads get to end once nothing else is left.
DAEMON_GRACE_S = 1.0

#: Seconds between two RSS samples.
RSS_INTERVAL_S = 0.02

#: Seconds a set-up-only replica gets to release its workers.
TEARDOWN_BOUND_S = 60.0


def _registry_values(registry: Any) -> dict[str, float]:
    """Flat ``name|labels`` -> value view (histograms give ``#sum``/``#count``)."""
    values: dict[str, float] = {}
    for name, labels, metric in registry.metrics():
        key = name + "|" + ",".join(f"{k}={v}" for k, v in labels)
        if hasattr(metric, "sum") and hasattr(metric, "count"):
            values[key + "#sum"] = float(metric.sum)
            values[key + "#count"] = float(metric.count)
        else:
            values[key] = float(metric.value)
    return values


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _children() -> list[int]:
    """Pids of this process's live children (read from /proc)."""
    pids: list[int] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def _peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of ``pid`` in MB, 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class RssSampler:
    """Peak resident set size of this process, sampled from ``/proc/self/statm``.

    Started right after the served replica is set up, the only replica
    this process builds, so the peak covers that replica and serving
    only.  Falls back to the lifetime peak (``getrusage``) where
    ``/proc`` is unavailable.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-rss", daemon=True
        )
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> None:
        try:
            with open("/proc/self/statm") as handle:
                resident = int(handle.read().split()[1]) * self._page
        except OSError:
            resident = 0
        self.peak_bytes = max(self.peak_bytes, resident)

    def _run(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self._sample()

    def start(self) -> None:
        self._sample()
        self._thread.start()

    def stop(self) -> float:
        """Stop sampling; the peak in MB."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sample()
        if not self.peak_bytes:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.peak_bytes / (1024.0 * 1024.0)


def _tear_down(server: RequestServer, service: RecommendationService) -> None:
    """Stop a replica that only measured set-up; wait until its workers are gone.

    ``service.close()`` runs on a helper thread because, with the
    remote fleet, it ends in a 5 s join on an accept thread blocked on
    the closed listener.  That wait burns no CPU, so it is left running
    once every worker process the replica started has been reaped;
    without a fleet the close is waited for in full.
    """
    server.stop()
    before = set(_children())
    closer = threading.Thread(
        target=service.close, name="perfbench-replica-close", daemon=True
    )
    closer.start()
    deadline = time.perf_counter() + TEARDOWN_BOUND_S
    while closer.is_alive() and time.perf_counter() < deadline:
        if before and not before & set(_children()):
            break
        closer.join(timeout=0.005)


def _setup_layers(spans_by_layer: dict) -> dict[str, float]:
    """The set-up layer times one replica reports."""
    return {
        "index.build.ms": spans_by_layer.get("index.build", {}).get("ms", 0.0),
        "exec.boot.ms": spans_by_layer.get("exec.dispatch", {}).get("ms", 0.0),
    }


def _open_sockets() -> int:
    """Number of socket descriptors this process holds open."""
    count = 0
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return 0
    for fd in fds:
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            continue
    return count


class ServingProcess:
    """The service, its front end and the control loop."""

    def __init__(self, spec: dict[str, Any], control: Any) -> None:
        self.spec = spec
        self.control = control
        self.workload = Workload(**spec["workload"])
        self.workdir = Path(spec["workdir"])
        self.tracer = install(Tracer()) if spec["trace"] else None
        self.service: RecommendationService | None = None
        self.server: RequestServer | None = None
        self._baseline: dict[str, float] = {}
        self._remote_baseline: dict[str, float] = {}
        self.rss = RssSampler()

    def send(self, message: dict[str, Any]) -> None:
        self.control.write(json.dumps(message) + "\n")
        self.control.flush()

    # -- setup ---------------------------------------------------------------

    def _config(self) -> RecommenderConfig:
        overrides: dict[str, Any] = {"validation": "strict"}
        if self.workload.remote:
            overrides.update(
                exec_backend="remote",
                exec_workers=self.spec["workers"],
                packed_spill=str(self.workdir / f"spill-{self.spec['replica']}"),
            )
        return RecommenderConfig().with_overrides(**overrides)

    def _set_up_once(self) -> tuple[Any, Any, float, dict]:
        """Build one service + front end; returns them, the seconds and setup spans."""
        dataset = build_dataset(self.workload)
        config = self._config()
        gc.collect()
        if self.tracer is not None:
            self.tracer.take()
        started = time.perf_counter()
        service = RecommendationService(dataset, config)
        if self.spec["warm_users"]:
            service.warm(self.spec["warm_users"])
        if self.spec["boot_groups"]:
            service.recommend_many(
                [Group(member_ids=g) for g in self.spec["boot_groups"]]
            )
        server = RequestServer(service)
        server.start()
        elapsed = time.perf_counter() - started
        layers = _setup_layers(
            span_totals(self.tracer.take()) if self.tracer is not None else {}
        )
        return service, server, elapsed, layers

    def set_up(self) -> None:
        """Set up the served replica, then start sampling RSS."""
        self.service, self.server, elapsed, layers = self._set_up_once()
        self.rss.start()
        assert self.server.address is not None
        self.send(
            {
                "event": "ready",
                "address": list(self.server.address),
                "setup_s": elapsed,
                "setup_layers": layers,
            }
        )

    def set_up_only(self) -> None:
        """Time one set-up, report it and tear the replica down."""
        service, server, elapsed, layers = self._set_up_once()
        self.send({"setup_s": elapsed, "setup_layers": layers})
        _tear_down(server, service)

    # -- measured phase ------------------------------------------------------

    def _remote_stats(self) -> dict[str, float]:
        stats = getattr(self.service.backend, "remote_stats", None)
        if stats is None:
            return {}
        return {
            key: float(value)
            for key, value in stats().items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    def _counters(self) -> dict[str, float]:
        values = _registry_values(self.service.metrics)
        for key, value in _registry_values(get_registry()).items():
            values["default:" + key] = value
        return values

    def mark(self) -> dict[str, Any]:
        self._baseline = self._counters()
        self._remote_baseline = self._remote_stats()
        if self.tracer is not None:
            self.tracer.take()
        return {"ok": True}

    def batch(self, command: dict[str, Any]) -> dict[str, Any]:
        groups = [Group(member_ids=members) for members in command["groups"]]
        if self.tracer is not None:
            self.tracer.rid = f"batch:{command['index']}"
        try:
            answers = self.service.recommend_many(groups)
        finally:
            if self.tracer is not None:
                self.tracer.rid = None
        return {
            "answers": [
                {"items": list(a.items), "fairness": a.report.fairness}
                for a in answers
            ]
        }

    def stats(self) -> dict[str, Any]:
        counters = _delta(self._counters(), self._baseline)
        remote = _delta(self._remote_stats(), self._remote_baseline)
        workers = [_peak_rss_mb(pid) for pid in _children()]
        reply: dict[str, Any] = {
            "counters": counters,
            "remote": remote,
            "rss_mb": self.rss.stop(),
            "worker_rss_mb": sum(workers),
            "workers": len(workers),
        }
        if self.tracer is not None:
            path = self.workdir / "spans.json"
            spans = self.tracer.take()
            path.write_text(json.dumps(spans))
            reply["spans_path"] = str(path)
            reply["spans"] = len(spans)
        return reply

    def shutdown(self) -> dict[str, Any]:
        if self.tracer is not None:
            self.tracer.take()
        started = time.perf_counter()
        self.server.stop()
        self.service.close()
        closed = time.perf_counter() - started
        settled = None
        while True:
            children, sockets = _children(), _open_sockets()
            threads = [
                t for t in threading.enumerate()
                if t is not threading.main_thread() and t.is_alive()
                and t is not self.rss._thread
            ]
            elapsed = time.perf_counter() - started
            if not children and not sockets and all(t.daemon for t in threads):
                # Daemon threads get a short grace; any still alive
                # after it are reported as left over.
                settled = elapsed if settled is None else settled
                if not threads or elapsed - settled > DAEMON_GRACE_S:
                    break
            if elapsed > SHUTDOWN_BOUND_S:
                break
            time.sleep(0.0005)
        close_ms = 0.0
        if self.tracer is not None:
            close_ms = span_totals(self.tracer.take()).get(
                "exec.close", {}
            ).get("ms", 0.0)
        return {
            "shutdown_s": elapsed,
            "close_s": closed,
            "leftover_children": len(children),
            "leftover_sockets": sockets,
            "leftover_threads": sorted(t.name for t in threads),
            "exec.close.ms": close_ms,
        }

    def serve(self, commands: Any) -> None:
        handlers = {
            "mark": lambda command: self.mark(),
            "batch": self.batch,
            "stats": lambda command: self.stats(),
        }
        for line in commands:
            command = json.loads(line)
            if command["cmd"] == "shutdown":
                self.send(self.shutdown())
                return
            self.send(handlers[command["cmd"]](command))
        # The client went away without a shutdown: still release the
        # front end and the fleet before exiting.
        self.server.stop()
        self.service.close()


def main() -> int:
    # Control replies get a private copy of stdout; anything the
    # program prints lands on stderr instead.
    control = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    spec = json.loads(sys.stdin.readline())
    process = ServingProcess(spec, control)
    if spec.get("setup_only"):
        process.set_up_only()
    else:
        process.set_up()
        process.serve(sys.stdin)
    control.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
