"""Load generation and the statistics the benchmark reports.

* :func:`poisson_schedule` — seeded open-loop arrival offsets.
* :func:`percentile` / :func:`tail_percentile` / :func:`summarize` —
  every percentile is computed from raw samples (never from registry
  histograms, whose quantiles snap to bucket edges).
* :func:`drive_open_loop` — one asyncio process, at most a few
  pipelined TCP connections, each request sent at its due time whether
  or not earlier answers came back.  Latency is measured from the due
  time, so a server stall also delays every request scheduled during
  it (no coordinated omission).
* :class:`LineClient` — a blocking JSONL connection for sequential
  (closed-loop) traffic.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

#: Percentiles the tail is chosen from: the highest one with at least
#: :data:`TAIL_MIN_BEYOND` samples above it is reported.
TAIL_LADDER: tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Seconds between the start of an open-loop run and its first due time.
LEAD_S = 0.05

#: Iterations and repeats of the CPU-calibration loop.
CALIBRATION_ITERATIONS = 1_000_000
CALIBRATION_REPEATS = 3


def poisson_schedule(
    rate: float, seconds: float, rng: random.Random
) -> list[float]:
    """Poisson arrival offsets in ``[0, seconds)`` with exactly ``rate * seconds`` arrivals.

    Given its count, a Poisson process places its arrivals as sorted
    independent uniforms; fixing the count at its expectation keeps
    the offered load identical from seed to seed.
    """
    count = round(rate * seconds)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            best = q
    return best


def summarize(values: Sequence[float], tail_q: float | None = None) -> dict[str, Any]:
    """Median and tail of a sample, with the count and the tail percentile.

    ``tail_q`` fixes the tail percentile (a workload fixes it for the
    sample count it is sized for, so runs stay comparable); by default
    it is :func:`tail_percentile` of the count.  ``beyond`` is how many
    samples lie above the tail percentile.
    """
    count = len(values)
    if tail_q is None:
        tail_q = tail_percentile(count)
    if count == 0:
        return {"count": 0, "p50": None, "tail": None, "tail_q": tail_q, "beyond": 0}
    return {
        "count": count,
        "p50": percentile(values, 50.0),
        "tail": percentile(values, tail_q) if tail_q is not None else None,
        "tail_q": tail_q,
        "beyond": count * (100.0 - tail_q) / 100.0 if tail_q is not None else 0,
    }


def windowed_tail(
    samples: Sequence[tuple[float, float]], q: float, windows: int, seconds: float
) -> float | None:
    """Median over ``windows`` equal time slices of each slice's ``q`` percentile.

    ``samples`` are ``(offset seconds, value)`` pairs; slices without
    samples are skipped.
    """
    width = seconds / windows
    slices: list[list[float]] = [[] for _ in range(windows)]
    for offset, value in samples:
        slices[min(windows - 1, max(0, int(offset // width)))].append(value)
    tails = [percentile(values, q) for values in slices if values]
    return statistics.median(tails) if tails else None


@dataclass
class Request:
    """One scheduled request of an open-loop run."""

    offset: float
    conn: int
    payload: dict[str, Any]


@dataclass
class Outcome:
    """What happened to one request (times are ``perf_counter`` seconds)."""

    request: Request
    number: int
    due: float
    sent: float
    received: float | None = None
    response: dict[str, Any] | None = None

    @property
    def latency_ms(self) -> float | None:
        """Due time to response, in ms (``None`` when never answered)."""
        if self.received is None:
            return None
        return (self.received - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        """How late the generator sent this request, in ms."""
        return (self.sent - self.due) * 1000.0


@dataclass
class OpenLoopResult:
    """All outcomes of one open-loop run plus the connections' local ports."""

    outcomes: list[Outcome]
    ports: list[int] = field(default_factory=list)


async def _open_loop(
    address: tuple[str, int],
    requests: Sequence[Request],
    connections: int,
    drain_timeout: float,
) -> OpenLoopResult:
    streams = [
        await asyncio.open_connection(*address) for _ in range(connections)
    ]
    ports = [
        writer.get_extra_info("sockname")[1] for _, writer in streams
    ]
    pending: list[deque[Outcome]] = [deque() for _ in streams]
    sent_counts = [0] * connections
    outcomes: list[Outcome] = []
    done = asyncio.Event()
    answered = 0

    async def read_loop(index: int) -> None:
        nonlocal answered
        reader = streams[index][0]
        while True:
            line = await reader.readline()
            if not line:
                return
            received = time.perf_counter()
            outcome = pending[index].popleft()
            outcome.received = received
            outcome.response = json.loads(line)
            answered += 1
            if answered == len(requests):
                done.set()

    readers = [asyncio.create_task(read_loop(i)) for i in range(connections)]
    start = time.perf_counter() + LEAD_S
    try:
        for request in requests:
            due = start + request.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = streams[request.conn][1]
            sent_counts[request.conn] += 1
            outcome = Outcome(
                request=request,
                number=sent_counts[request.conn],
                due=due,
                sent=time.perf_counter(),
            )
            pending[request.conn].append(outcome)
            outcomes.append(outcome)
            writer.write((json.dumps(request.payload) + "\n").encode())
        for _, writer in streams:
            await writer.drain()
        if requests:
            try:
                await asyncio.wait_for(done.wait(), timeout=drain_timeout)
            except asyncio.TimeoutError:
                pass  # unanswered requests stay with received=None
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in streams:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return OpenLoopResult(outcomes=outcomes, ports=ports)


def drive_open_loop(
    address: tuple[str, int],
    requests: Sequence[Request],
    connections: int,
    drain_timeout: float = 60.0,
) -> OpenLoopResult:
    """Send ``requests`` at ``start + offset`` over ``connections`` streams.

    ``requests`` must be sorted by offset; each goes out on its own
    connection index, pipelined behind whatever that connection still
    has in flight.  Returns once every request is answered or
    ``drain_timeout`` seconds after the last send.
    """
    return asyncio.run(
        _open_loop(address, requests, connections, drain_timeout)
    )


class LineClient:
    """A blocking JSONL request/response connection."""

    def __init__(self, address: tuple[str, int], timeout: float = 120.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self.port = self._sock.getsockname()[1]
        self.sent = 0

    def call(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request and wait for its response line."""
        self._file.write((json.dumps(payload) + "\n").encode())
        self._file.flush()
        self.sent += 1
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        """Close the connection."""
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def calibrate_cpu() -> float:
    """Best-of-repeats seconds of a fixed pure-Python loop (CPU speed probe)."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value & 7
        best = min(best, time.perf_counter() - started)
    return best

