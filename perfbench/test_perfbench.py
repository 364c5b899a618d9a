"""Tests of the benchmark itself: schedules, statistics, spans, oracle, smoke runs."""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import threading
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.loadgen import (
    Request,
    drive_open_loop,
    percentile,
    poisson_schedule,
    summarize,
    tail_percentile,
    windowed_tail,
)
from perfbench.oracle import build_oracle, oracle_answer
from perfbench.report import END_TO_END, PER_LAYER, per_layer_metrics, e2e_metrics
from perfbench.spans import Tracer, request_breakdown, self_times, span_totals
from perfbench.workloads import UNGATED, WORKLOADS, build_dataset, group_sizes, make_plan

ROOT = Path(__file__).resolve().parent.parent

#: Shrinks a workload to a size a unit test can afford.
TINY = {"users": 120, "items": 80, "ratings_per_user": 12}


def tiny(name: str, **overrides: object) -> object:
    workload = WORKLOADS[name]
    fields = dict(TINY)
    if workload.hot_groups:
        fields.update(hot_groups=4, hot_users=4)
    if workload.batch_groups:
        fields.update(batch_groups=3)
    fields.update(overrides)
    return dataclasses.replace(workload, **fields)


# -- schedule -----------------------------------------------------------------


def test_poisson_schedule_is_deterministic_per_seed():
    first = poisson_schedule(50.0, 4.0, random.Random("1:arrivals"))
    again = poisson_schedule(50.0, 4.0, random.Random("1:arrivals"))
    other = poisson_schedule(50.0, 4.0, random.Random("2:arrivals"))
    assert first == again
    assert first != other
    assert len(first) == 200
    assert first == sorted(first)
    assert all(0.0 <= offset < 4.0 for offset in first)


def test_plan_is_deterministic_per_seed():
    workload = tiny("write_mix", rate=20.0, write_every_s=0.5)
    dataset = build_dataset(workload)
    one = make_plan(workload, dataset, 5, 2.0, 2)
    two = make_plan(workload, dataset, 5, 2.0, 2)
    three = make_plan(workload, dataset, 6, 2.0, 2)
    assert [(r.offset, r.conn, r.payload) for r in one.requests] == [
        (r.offset, r.conn, r.payload) for r in two.requests
    ]
    assert one.probes == two.probes
    assert [r.payload for r in one.requests] != [r.payload for r in three.requests]
    writes = [r for r in one.requests if r.payload["type"] == "rate"]
    assert writes
    pairs = [(w.payload["user_id"], w.payload["item_id"]) for w in writes]
    assert len(pairs) == len(set(pairs))
    by_user: dict[str, set[int]] = {}
    for write in writes:
        by_user.setdefault(write.payload["user_id"], set()).add(write.conn)
    assert all(len(conns) == 1 for conns in by_user.values())


def test_cold_reads_never_send_a_user_twice():
    closed = tiny("cold_start")
    dataset = build_dataset(closed)
    plan = make_plan(closed, dataset, 5, 2.0, 2)
    users = [
        user
        for request in plan.requests
        for user in request.payload.get("members", [request.payload.get("user_id")])
    ]
    assert len(users) == len(set(users)) > closed.users - 4
    assert {request.conn for request in plan.requests} == {0, 1}
    scheduled = dataclasses.replace(closed, closed_reads=False, rate=8.0)
    assert len(make_plan(scheduled, dataset, 5, 2.0, 2).requests) == 16
    with pytest.raises(ValueError, match="never-seen users"):
        make_plan(scheduled, dataset, 5, 60.0, 2)


def test_group_sizes_follow_the_power_law_mix():
    sizes = group_sizes(96, random.Random(3))
    assert len(sizes) == 96
    assert sorted(sizes) == sorted(group_sizes(96, random.Random(4)))
    assert sizes.count(2) > sizes.count(3) > sizes.count(5)


# -- statistics ---------------------------------------------------------------


def test_percentile_interpolates_raw_samples():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50.5
    assert percentile(values, 0.0) == 1
    assert percentile(values, 100.0) == 100
    assert percentile([10.0, 20.0], 25.0) == 12.5
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    summary = summarize([float(v) for v in range(200)], tail_q=90.0)
    assert summary["count"] == 200
    assert summary["tail_q"] == 90.0
    assert summary["beyond"] == 20.0
    assert summary["tail"] == percentile(range(200), 90.0)


def test_windowed_tail_is_the_median_of_slice_tails():
    # Three 1 s slices; the middle one holds a burst of slow samples.
    samples = [(0.01 * i, 1.0) for i in range(100)]
    samples += [(1.0 + 0.01 * i, 50.0 if i >= 90 else 2.0) for i in range(100)]
    samples += [(2.0 + 0.01 * i, 3.0) for i in range(100)]
    assert windowed_tail(samples, 95.0, 3, 3.0) == 3.0
    assert windowed_tail(samples, 95.0, 1, 3.0) == percentile([v for _, v in samples], 95.0)
    assert windowed_tail([], 95.0, 3, 3.0) is None


# -- coordinated omission -----------------------------------------------------


class _StallingServer:
    """A JSONL echo server that sleeps ``stall`` seconds before answering line ``stall_at``."""

    def __init__(self, stall_at: int, stall: float) -> None:
        self.stall_at = stall_at
        self.stall = stall
        self.stall_ended = 0.0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as stream:
            number = 0
            for line in stream:
                number += 1
                if number == self.stall_at:
                    time.sleep(self.stall)
                    self.stall_ended = time.perf_counter()
                payload = json.loads(line)
                stream.write((json.dumps({"kind": payload["type"]}) + "\n").encode())
                stream.flush()

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5.0)


def test_stall_is_charged_to_every_request_due_during_it():
    server = _StallingServer(stall_at=5, stall=0.3)
    try:
        requests = [
            Request(offset=0.01 * i, conn=0, payload={"type": "user", "user_id": "u"})
            for i in range(40)
        ]
        result = drive_open_loop(server.address, requests, connections=1, drain_timeout=10.0)
    finally:
        server.close()
    outcomes = result.outcomes
    assert all(o.received is not None for o in outcomes)
    # The generator kept its schedule through the stall (open loop) ...
    assert max(o.lateness_ms for o in outcomes) < 100.0
    # ... so every request due before the stall ended waited for it:
    # its latency, measured from its due time, covers the rest of the stall.
    waited = [o for o in outcomes[5:] if o.due < server.stall_ended]
    assert len(waited) >= 20
    for outcome in waited:
        assert outcome.received >= server.stall_ended
        assert outcome.latency_ms >= (server.stall_ended - outcome.due) * 1000.0
    assert outcomes[5].latency_ms >= 250.0


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        (1, 0, "service.group", 0.0, 10.0, "r", None),
        (2, 1, "index.row", 1.0, 4.0, "r", None),
        (3, 2, "kernels.pearson", 2.0, 3.0, "r", None),
        (4, 1, "core.select", 5.0, 6.0, "r", None),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    breakdown = request_breakdown(spans, [("r", -1.0, 12.0)])
    layers = breakdown["layers"]
    assert layers["server"] == pytest.approx(3000.0)
    assert layers["service"] == pytest.approx(6000.0)
    assert layers["index"] == pytest.approx(2000.0)
    assert sum(layers.values()) == pytest.approx(breakdown["client_ms"])
    assert breakdown["queue_waits"] == [pytest.approx(1000.0)]


def test_tracer_records_nesting_and_request_ids():
    tracer = Tracer()

    def inner() -> int:
        time.sleep(0.01)
        return 1

    traced_inner = tracer.wrap("kernels.pearson", inner)

    def outer() -> int:
        time.sleep(0.01)
        return traced_inner() + 1

    traced_outer = tracer.wrap("service.group", outer)
    tracer.rid = "7:1"
    assert traced_outer() == 2
    tracer.rid = None
    spans = tracer.take()
    by_name = {span[2]: span for span in spans}
    assert by_name["kernels.pearson"][1] == by_name["service.group"][0]
    assert {span[5] for span in spans} == {"7:1"}
    totals = span_totals(spans)
    assert totals["service.group"]["self_ms"] == pytest.approx(
        totals["service.group"]["ms"] - totals["kernels.pearson"]["ms"]
    )


# -- oracle -------------------------------------------------------------------


def test_oracle_check_fails_on_a_planted_wrong_answer():
    workload = tiny("dashboard")
    dataset = build_dataset(workload)
    plan = make_plan(workload, dataset, 3, 1.0, 2)
    oracle = build_oracle(workload)
    answers = [oracle_answer(oracle, payload) for payload in plan.probes]
    clean = run.RunResult(workload=workload, seconds=1.0, traced=False)
    run._check_with_oracle(workload, 3, plan, answers, [], clean)
    assert clean.mismatches == 0 and clean.probes == len(plan.probes)
    planted = [dict(answer) for answer in answers]
    planted[0]["items"] = list(reversed(planted[0]["items"]))
    assert planted[0] != answers[0]
    wrong = run.RunResult(workload=workload, seconds=1.0, traced=False)
    run._check_with_oracle(workload, 3, plan, planted, [], wrong)
    assert wrong.mismatches == 1
    assert wrong.failed == 1


# -- smoke --------------------------------------------------------------------


@pytest.fixture
def no_setup_budget(monkeypatch):
    """Only the minimum of extra set-ups, to keep smoke runs short."""
    monkeypatch.setattr(run, "EXTRA_SETUP_BUDGET_S", 0.0)


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("dashboard", {"rate": 40.0}),
        ("cold_start", {}),
        ("write_mix", {"rate": 20.0, "write_every_s": 0.5}),
        ("batch_fleet", {}),
    ],
)
def test_each_workload_completes_a_tiny_run(name, overrides, no_setup_budget):
    workload = tiny(name, **overrides)
    result = run.run_once(workload, seed=1, seconds=1.0, traced=False)
    assert len(result.setup_s) == 1 + run.MIN_EXTRA_SETUPS
    assert len(result.setup_layers) == len(result.setup_s)
    assert result.mismatches == 0
    assert result.failed == 0
    assert result.attempted >= 1
    metrics = e2e_metrics(result)
    assert [m[0] for m in END_TO_END] == list(metrics)
    assert all(entry["value"] is not None for entry in metrics.values())


def test_traced_run_accounts_for_client_time(no_setup_budget):
    workload = tiny("dashboard", rate=40.0)
    untraced = run.run_once(workload, seed=2, seconds=1.0, traced=False)
    traced = run.run_once(workload, seed=2, seconds=1.0, traced=True)
    layers = per_layer_metrics(traced, e2e_metrics(untraced), e2e_metrics(traced))
    assert [m[0] for m in PER_LAYER] == list(layers)
    assert layers["trace.matched_ratio"]["value"] == 1.0
    assert layers["trace.accounted_ratio"]["value"] == pytest.approx(1.0, abs=0.05)
    assert layers["service.group.calls"]["value"] >= 1
    assert layers["validation.failures"]["value"] == 0


def test_benchmark_json_names_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w for name, w in WORKLOADS.items() if name not in UNGATED]
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in gated]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in gated]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
