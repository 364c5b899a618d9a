"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice on the same seed, untraced and
then with span wrappers installed in the serving process, and reports
the per-layer metrics plus the tracing overhead of every end-to-end
metric.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  The exit code is non-zero when any answer was
wrong or missing.  A run whose load generator ran late past its bound
is marked invalid in the report (``valid=False``) but still exits 0:
latency runs from each request's due time, so a late generator already
counts against the latencies it measures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__" and not (ROOT / "src" / "repro").is_dir():
    # Only ever measure the checkout's own program, never an installed one.
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.loadgen import (
    LineClient,
    calibrate_cpu,
    drive_open_loop,
    summarize,
)
from perfbench.oracle import (
    answer_of,
    build_oracle,
    oracle_answer,
    well_formed,
)
from perfbench.report import (
    e2e_metrics,
    per_layer_metrics,
    print_report,
)
from perfbench.workloads import (
    WORKLOADS,
    Workload,
    build_dataset,
    ladder_step,
    make_plan,
)

#: Set-up samples besides the served replica's, each in a fresh
#: process: half of the minimum before the serving process starts, the
#: other half after it exits, then more until the budget of wall seconds
#: is spent (up to the maximum), so cheap set-ups get a steadier median.
#: ``setup_s`` is the median of these and the served replica's set-up.
MIN_EXTRA_SETUPS = 4
MAX_EXTRA_SETUPS = 16
EXTRA_SETUP_BUDGET_S = 4.0

#: Seconds to wait for one control reply from the serving process.
REPLY_TIMEOUT_S = 150.0

#: Generator lateness past which the report marks the run invalid, as a
#: share of the workload's latency limit.
LATENESS_SHARE = 0.2

#: Scratch space of a run, inside the checkout.
WORK_ROOT = ROOT / ".perfbench_work"


@dataclass
class RunResult:
    """Raw observations of one run of one workload."""

    workload: Workload
    seconds: float
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    setup_layers: list[dict[str, float]] = field(default_factory=list)
    reads: list[tuple[float | None, bool]] = field(default_factory=list)
    read_offsets: list[float] = field(default_factory=list)
    writes: list[tuple[float | None, bool]] = field(default_factory=list)
    batch_groups: int = 0
    lateness_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    max_rate_rps: float | None = None
    ladder_attempted: int = 0
    probes: int = 0
    stats: dict[str, Any] = field(default_factory=dict)
    shutdown: dict[str, Any] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    timeline: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def lateness_bound_ms(self) -> float:
        return self.workload.limit_ms * LATENESS_SHARE

    @property
    def late(self) -> bool:
        """Whether the generator's lateness tail exceeded its bound."""
        summary = summarize(self.lateness_ms)
        return summary["tail"] is not None and summary["tail"] > self.lateness_bound_ms


class ServingProcess:
    """Client-side handle on ``perfbench/server.py``."""

    def __init__(self, spec: dict[str, Any]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py")],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._send(spec)

    def _send(self, message: dict[str, Any]) -> None:
        assert self.process.stdin is not None
        self.process.stdin.write((json.dumps(message) + "\n").encode())
        self.process.stdin.flush()

    def reply(self) -> dict[str, Any]:
        """The next control reply (raises when the process died or stalled)."""
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], REPLY_TIMEOUT_S)
        if not ready:
            raise TimeoutError("serving process did not reply in time")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serving process exited (code {self.process.wait()})"
            )
        return json.loads(line)

    def call(self, command: str, **fields: Any) -> dict[str, Any]:
        self._send({"cmd": command, **fields})
        return self.reply()

    def close(self) -> None:
        """Close its stdin, wait for it to exit, and kill it if it does not."""
        if self.process.stdin is not None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _connections() -> int:
    """Connections the load generator opens: at most ``nproc``."""
    return max(1, min(2, os.cpu_count() or 1))


def run_once(
    workload: Workload, seed: int, seconds: float, traced: bool
) -> RunResult:
    """One full run: set up, warm up, measure, probe, shut down, check."""
    connections = _connections()
    dataset = build_dataset(workload)
    plan = make_plan(workload, dataset, seed, seconds, connections)
    del dataset
    workdir = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}-{int(traced)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_in(workdir, workload, seed, seconds, traced, plan, connections)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(
    workdir: Path,
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    plan: Any,
    connections: int,
) -> RunResult:
    result = RunResult(workload=workload, seconds=seconds, traced=traced)
    spec = {
        "workload": dataclasses.asdict(workload),
        "trace": traced,
        "workdir": str(workdir),
        "workers": connections,
        "warm_users": plan.warm_users,
        "boot_groups": plan.boot_groups,
        "replica": 0,
    }
    _extra_setups(spec, result, MIN_EXTRA_SETUPS // 2, budget_s=0.0)
    server = ServingProcess(spec)
    try:
        ready = server.reply()
        address = (ready["address"][0], ready["address"][1])
        result.setup_s.append(ready["setup_s"])
        result.setup_layers.append(ready["setup_layers"])
        reference = _warm_up(address, plan.warmup)
        server.call("mark")
        batches: list[dict[str, Any]] = []
        if workload.closed_loop:
            batches = _closed_loop(server, address, plan, seconds, result)
        elif workload.closed_reads:
            _closed_reads(address, plan, connections, seconds, result)
        else:
            _open_loop(address, plan, connections, reference, result)
        result.stats = server.call("stats")
        if workload.ladder:
            _ladder(address, workload, plan, seed, connections, reference, result)
        probe_answers = _probe(address, plan.probes)
        result.shutdown = server.call("shutdown")
    finally:
        server.close()
    _extra_setups(
        spec, result, MIN_EXTRA_SETUPS - MIN_EXTRA_SETUPS // 2, EXTRA_SETUP_BUDGET_S
    )
    if traced:
        spans = json.loads(Path(result.stats["spans_path"]).read_text())
        result.spans = [tuple(span) for span in spans]
    _check_with_oracle(workload, seed, plan, probe_answers, batches, result)
    return result


def _extra_setups(
    spec: dict[str, Any], result: RunResult, minimum: int, budget_s: float
) -> None:
    """More set-up samples, each in its own process, one after another.

    They run while no serving process exists, so nothing else runs
    beside them; taken both before and after the measured phase, they
    keep the median from hanging on one stretch of host speed.
    """
    started = time.perf_counter()
    taken = 0
    while len(result.setup_s) <= MAX_EXTRA_SETUPS and (
        taken < minimum or time.perf_counter() - started < budget_s
    ):
        process = ServingProcess(
            {**spec, "setup_only": True, "replica": len(result.setup_s) + 1}
        )
        try:
            reply = process.reply()
        finally:
            process.close()
        result.setup_s.append(reply["setup_s"])
        result.setup_layers.append(reply["setup_layers"])
        taken += 1


def _warm_up(address: tuple[str, int], payloads: list[dict]) -> dict[str, Any]:
    """Touch every hot key once (unmeasured); returns the answers by key."""
    reference: dict[str, Any] = {}
    if not payloads:
        return reference
    with LineClient(address) as client:
        for payload in payloads:
            response = client.call(payload)
            if not well_formed(payload, response):
                raise RuntimeError(f"warm-up request failed: {payload} -> {response}")
            reference[json.dumps(payload, sort_keys=True)] = answer_of(response)
    return reference


def _scored(run: Any, reference: dict[str, Any], result: RunResult) -> list[tuple[Any, bool]]:
    """Each outcome with whether it was answered correctly.

    In a run without writes every answer to a key must equal its
    warm-up answer; a difference is a mismatch.
    """
    read_only = not any(o.request.payload["type"] == "rate" for o in run.outcomes)
    scored = []
    for outcome in run.outcomes:
        payload = outcome.request.payload
        ok = well_formed(payload, outcome.response)
        if ok and read_only and reference:
            expected = reference.get(json.dumps(payload, sort_keys=True))
            if expected is not None and answer_of(outcome.response) != expected:
                ok = False
                result.mismatches += 1
        scored.append((outcome, ok))
    return scored


def _open_loop(
    address: tuple[str, int],
    plan: Any,
    connections: int,
    reference: dict[str, Any],
    result: RunResult,
) -> None:
    run = drive_open_loop(address, plan.requests, connections)
    for outcome, ok in _scored(run, reference, result):
        sample = (outcome.latency_ms, ok)
        if outcome.request.payload["type"] == "rate":
            result.writes.append(sample)
        else:
            result.reads.append(sample)
            result.read_offsets.append(outcome.request.offset)
        result.lateness_ms.append(outcome.lateness_ms)
        if outcome.received is not None:
            port = run.ports[outcome.request.conn]
            result.timeline.append(
                (f"{port}:{outcome.number}", outcome.due, outcome.received)
            )
    result.attempted = len(run.outcomes)
    result.failed = sum(1 for _, ok in result.reads + result.writes if not ok)


def _closed_reads(
    address: tuple[str, int],
    plan: Any,
    connections: int,
    seconds: float,
    result: RunResult,
) -> None:
    """One caller per connection, each sending its next read once the last is answered.

    Callers stop at the first read due after ``seconds``; latency runs
    from send to response.
    """
    started = time.perf_counter()
    deadline = started + seconds
    records: list[list[tuple]] = [[] for _ in range(connections)]
    errors: list[BaseException] = []

    def caller(index: int) -> None:
        try:
            with LineClient(address) as client:
                for request in plan.requests:
                    if request.conn != index:
                        continue
                    sent = time.perf_counter()
                    if sent >= deadline:
                        return
                    response = client.call(request.payload)
                    records[index].append(
                        (request.payload, response, sent, time.perf_counter(),
                         f"{client.port}:{client.sent}")
                    )
        except BaseException as error:  # re-raised in the driving thread
            errors.append(error)

    callers = [
        threading.Thread(target=caller, args=(index,), name=f"perfbench-caller-{index}")
        for index in range(connections)
    ]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join()
    if errors:
        raise errors[0]
    for payload, response, sent, received, request_id in sorted(
        (record for caller_records in records for record in caller_records),
        key=lambda record: record[2],
    ):
        result.reads.append(((received - sent) * 1000.0, well_formed(payload, response)))
        result.read_offsets.append(sent - started)
        result.timeline.append((request_id, sent, received))
    result.attempted = len(result.reads)
    result.failed = sum(1 for _, ok in result.reads if not ok)


def _ladder(
    address: tuple[str, int],
    workload: Workload,
    plan: Any,
    seed: int,
    connections: int,
    reference: dict[str, Any],
    result: RunResult,
) -> None:
    """Climb the rate ladder while the read tail meets the latency limit.

    The measured phase is the first step.  A step passes when every
    request was answered correctly and its tail (the highest percentile
    with ten samples beyond it) is within ``limit_ms``; a growing
    backlog shows up as a tail past the limit.
    """
    def passes(samples: list[tuple[float | None, bool]]) -> bool:
        latencies = [lat for lat, ok in samples if ok and lat is not None]
        tail = summarize(latencies)["tail"]
        return len(latencies) == len(samples) and tail is not None and tail <= workload.limit_ms

    if not passes(result.reads):
        result.max_rate_rps = 0.0
        return
    result.max_rate_rps = workload.rate
    for rate in workload.ladder:
        step = drive_open_loop(
            address, ladder_step(plan, seed, rate, connections), connections,
            drain_timeout=10.0,
        )
        wrong_before = result.mismatches
        samples = [(o.latency_ms, ok) for o, ok in _scored(step, reference, result)]
        result.ladder_attempted += len(samples)
        result.failed += result.mismatches - wrong_before
        if not passes(samples):
            break
        result.max_rate_rps = rate


def _closed_loop(
    server: ServingProcess,
    address: tuple[str, int],
    plan: Any,
    seconds: float,
    result: RunResult,
) -> list[dict[str, Any]]:
    """Batches back to back, ingests before each; returns what was sent and got."""
    done: list[dict[str, Any]] = []
    with LineClient(address) as client:
        started = time.perf_counter()
        for index, (groups, writes) in enumerate(zip(plan.batches, plan.batch_writes)):
            if time.perf_counter() - started >= seconds:
                break
            for payload in writes:
                sent = time.perf_counter()
                response = client.call(payload)
                latency = (time.perf_counter() - sent) * 1000.0
                result.writes.append((latency, well_formed(payload, response)))
                result.timeline.append((f"{client.port}:{client.sent}", sent, sent + latency / 1000.0))
            sent = time.perf_counter()
            reply = server.call("batch", groups=groups, index=index)
            received = time.perf_counter()
            answers = reply.get("answers") or []
            ok = len(answers) == len(groups) and all(
                isinstance(a.get("items"), list) and len(a["items"]) <= 10
                for a in answers
            )
            result.reads.append(((received - sent) * 1000.0, ok))
            result.read_offsets.append(sent - started)
            result.timeline.append((f"batch:{index}", sent, received))
            result.batch_groups += len(groups)
            done.append({"index": index, "groups": groups, "writes": writes, "answers": answers})
    result.attempted = len(result.reads) + len(result.writes)
    result.failed = sum(1 for _, ok in result.reads + result.writes if not ok)
    return done


def _probe(address: tuple[str, int], probes: list[dict]) -> list[dict[str, Any] | None]:
    """Ask every probe once after the measured phase."""
    answers: list[dict[str, Any] | None] = []
    with LineClient(address) as client:
        for payload in probes:
            response = client.call(payload)
            answers.append(answer_of(response) if well_formed(payload, response) else None)
    return answers


def _check_with_oracle(
    workload: Workload,
    seed: int,
    plan: Any,
    probe_answers: list[dict[str, Any] | None],
    batches: list[dict[str, Any]],
    result: RunResult,
) -> None:
    """Replay the writes on the oracle and compare probes and sampled batches.

    Every mismatch counts as a failed request too.
    """
    oracle = build_oracle(workload)
    wrong = 0
    if batches:
        checked = {0, len(batches) // 2, len(batches) - 1}
        for batch in batches:
            for payload in batch["writes"]:
                oracle_answer(oracle, payload)
            if batch["index"] not in checked:
                continue
            for members, got in zip(batch["groups"], batch["answers"]):
                result.probes += 1
                expected = oracle_answer(oracle, {"type": "group", "members": members})
                wrong += got != expected
    else:
        for request in plan.requests:
            if request.payload["type"] == "rate":
                oracle_answer(oracle, request.payload)
    for payload, got in zip(plan.probes, probe_answers):
        result.probes += 1
        wrong += got is None or got != oracle_answer(oracle, payload)
    oracle.close()
    result.mismatches += wrong
    result.failed += wrong


def environment(seed: int) -> dict[str, Any]:
    """Where and how this run was made."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "seed": seed,
        "cpu_calibration_s": calibrate_cpu(),
    }


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    base = run_once(workload, args.seed, args.seconds, traced=False)
    runs = [base]
    metrics = e2e_metrics(base)
    if args.trace:
        traced = run_once(workload, args.seed, args.seconds, traced=True)
        runs.append(traced)
        metrics = per_layer_metrics(traced, metrics, e2e_metrics(traced))
    valid = not any(run.late for run in runs)
    correct = all(run.mismatches == 0 for run in runs)
    print_report(args, env, runs, metrics, valid, correct)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(
                    run.attempted + run.ladder_attempted + run.probes for run in runs
                ),
                "failed": sum(run.failed for run in runs),
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
