"""Workload definitions and the seeded inputs each one sends.

Everything a run sends is derived here from ``--seed``: the dataset
(:func:`repro.data.scale.generate_scale_dataset`), the groups, the
arrival schedule, the writes and the probe set.  The serving process
only ever sees the generated requests.  Why each workload exists is
recorded in ``perfbench/README.md``; the ``why`` strings below are the
one-line versions that ``BENCHMARK.json`` carries.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any

from repro.data.datasets import HealthDataset
from repro.data.scale import ScaleConfig, generate_scale_dataset

from .loadgen import Request, poisson_schedule

#: Rating values a benchmark write may carry.
WRITE_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0)

#: Seed of the fixed per-workload dataset (the ``ScaleConfig`` default).
DATASET_SEED = 7

#: Batches planned for the closed loop; a run stops at ``--seconds``
#: long before it runs out.
MAX_BATCHES = 400

#: Share of open-loop reads that are group requests (the rest are user requests).
GROUP_SHARE = 0.8

#: Zipf exponent of hot-key popularity.
ZIPF_EXPONENT = 1.1

#: Groups and users in the probe set answered after the measured phase.
PROBE_GROUPS = 4
PROBE_USERS = 3

#: Seconds of one rate-ladder step.
LADDER_STEP_S = 1.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``limit_ms`` is the latency limit behind ``slo_ok_ratio`` (per
    request; per batch for ``batch_fleet``).  The read tail is the
    median, over ``tail_windows`` equal slices of the measured phase,
    of each slice's ``tail_q`` percentile: the highest one with at
    least ten samples beyond it at the read count a slice is sized
    for, fixed so that runs of different speed report the same
    percentile.  The median over slices keeps one burst of host noise
    from deciding the tail.  Open-loop workloads send
    reads at ``rate`` per second, :data:`GROUP_SHARE` of them group
    requests; ``hot_groups``/``hot_users`` > 0 draws them from a fixed
    pool with Zipf popularity, otherwise every read is never-seen: no
    user appears in two reads.  ``closed_reads`` replaces the schedule
    with a closed loop: one caller per connection sends its next
    never-seen read as soon as the previous answer arrives, until the
    run's seconds are up; the plan holds as many reads as the dataset
    has users for.  ``write_every_s`` adds one ``rate`` request per
    interval.
    ``ladder`` lists the rates, above ``rate``, of the short steps after
    the measured phase that find the highest rate still meeting
    ``limit_ms`` (``max_rate_rps``).  The
    closed loop sends ``batch_groups`` distinct groups per
    ``recommend_many`` batch with ``ingests_per_batch`` ratings before
    each batch.
    """

    name: str
    why: str
    users: int
    items: int
    ratings_per_user: int
    limit_ms: float
    tail_q: float
    tail_windows: int = 1
    rate: float = 0.0
    closed_reads: bool = False
    hot_groups: int = 0
    hot_users: int = 0
    write_every_s: float = 0.0
    batch_groups: int = 0
    ingests_per_batch: int = 0
    remote: bool = False
    ladder: tuple[float, ...] = ()

    @property
    def closed_loop(self) -> bool:
        """Whether this is the batch closed loop (no open-loop schedule)."""
        return self.batch_groups > 0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="dashboard",
            why="caregiver refresh: Zipf-hot groups and users, warm caches, open loop; server, group cache and validation dominate",
            users=2000,
            items=800,
            ratings_per_user=25,
            limit_ms=50.0,
            tail_q=98.0,
            tail_windows=5,
            rate=200.0,
            hot_groups=24,
            hot_users=24,
            ladder=(500.0, 1000.0, 2000.0, 4000.0),
        ),
        Workload(
            name="cold_start",
            why="never-seen groups and users over the whole population, one closed-loop caller per core; kernels and index row builds dominate",
            users=1800,
            items=400,
            ratings_per_user=20,
            limit_ms=1500.0,
            tail_q=90.0,
            closed_reads=True,
        ),
        Workload(
            name="write_mix",
            why="dashboard reads plus a steady trickle of ratings on hot members; write lock, cache invalidation and row patching",
            users=1000,
            items=600,
            ratings_per_user=25,
            limit_ms=500.0,
            tail_q=90.0,
            tail_windows=4,
            rate=40.0,
            hot_groups=12,
            hot_users=12,
            write_every_s=2.0,
        ),
        Workload(
            name="batch_fleet",
            why="closed-loop recommend_many batches on the remote fleet with ratings between batches; the only path through repro.exec",
            users=1000,
            items=600,
            ratings_per_user=25,
            limit_ms=2000.0,
            tail_q=60.0,
            batch_groups=6,
            ingests_per_batch=1,
            remote=True,
        ),
    )
}


#: Workloads that run by name but are not in ``BENCHMARK.json``: on a
#: shared 2-core host their gated figures spread too widely from run to
#: run to hold a 25% bound.  A ``dashboard`` read is a 2 ms cache hit,
#: so the host's scheduling stalls of several ms decide its tail (p98
#: spread 2.4 over ten seeds) and a slow stretch moves even its median
#: by a quarter.  ``write_mix`` reads flip between cache hits and misses
#: after every write, so its read tail follows how many misses a run
#: happens to see.  Every layer they stress stays measured on the gated
#: workloads: server, service, validation and the caches on
#: ``cold_start``; the write path (ingest, cache invalidation, row
#: patching, repacks) on ``batch_fleet``, which ingests a rating over
#: TCP before every batch.
UNGATED = ("dashboard", "write_mix")


def build_dataset(workload: Workload) -> HealthDataset:
    """The workload's dataset (identical in every process and run).

    The dataset is fixed per workload; ``--seed`` varies every request
    sent to it.
    """
    return generate_scale_dataset(
        num_users=workload.users,
        num_items=workload.items,
        ratings_per_user=workload.ratings_per_user,
        seed=DATASET_SEED,
    )


@dataclass
class Plan:
    """Everything one run sends, generated from the seed."""

    requests: list[Request] = field(default_factory=list)
    warmup: list[dict[str, Any]] = field(default_factory=list)
    warm_users: list[str] = field(default_factory=list)
    probes: list[dict[str, Any]] = field(default_factory=list)
    batches: list[list[list[str]]] = field(default_factory=list)
    batch_writes: list[list[dict[str, Any]]] = field(default_factory=list)
    boot_groups: list[list[str]] = field(default_factory=list)
    hot_groups: list[list[str]] = field(default_factory=list)
    hot_users: list[str] = field(default_factory=list)


def _rng(seed: int, purpose: str) -> random.Random:
    # String seeds hash through SHA-512, so the stream does not depend
    # on PYTHONHASHSEED.
    return random.Random(f"{seed}:{purpose}")


def group_sizes(count: int, rng: random.Random) -> list[int]:
    """``count`` group sizes in the power-law mix of :mod:`repro.data.scale`, shuffled.

    Each size appears in proportion to ``size ** -exponent`` over the
    scale generator's bounds (largest-remainder rounding), so every
    run sends the same mix of group sizes and only members and order
    vary with the seed.
    """
    mix = _size_mix(count)
    rng.shuffle(mix)
    return mix


def _size_mix(count: int) -> list[int]:
    """The sizes :func:`group_sizes` shuffles, in ascending order."""
    config = ScaleConfig()
    sizes = range(config.min_group_size, config.max_group_size + 1)
    weights = [size ** -config.group_size_exponent for size in sizes]
    shares = [count * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(shares)), key=lambda i: shares[i] - counts[i], reverse=True
    )
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    return [size for size, n in zip(sizes, counts) for _ in range(n)]


def _users_needed(reads: int) -> int:
    """Users ``reads`` never-seen reads take (groups in the size mix, plus single users)."""
    groups = round(reads * GROUP_SHARE)
    return sum(_size_mix(groups)) + reads - groups


def _reads_the_population_allows(users: int) -> int:
    """The most never-seen reads ``users`` users can serve."""
    low, high = 0, users
    while low < high:
        middle = (low + high + 1) // 2
        if _users_needed(middle) <= users:
            low = middle
        else:
            high = middle - 1
    return low


def _distinct_groups(
    user_ids: list[str], count: int, seed: int, purpose: str, taken: set
) -> list[list[str]]:
    """``count`` groups in the power-law size mix, none equal to one in ``taken``."""
    rng = _rng(seed, purpose)
    groups: list[list[str]] = []
    for size in group_sizes(count, rng):
        while True:
            members = rng.sample(user_ids, size)
            key = tuple(sorted(members))
            if key not in taken:
                break
        taken.add(key)
        groups.append(members)
    return groups


def _zipf_cum_weights(count: int) -> list[float]:
    return list(
        itertools.accumulate((rank + 1) ** -ZIPF_EXPONENT for rank in range(count))
    )


def group_request(members: list[str]) -> dict[str, Any]:
    """The wire form of a group request."""
    return {"type": "group", "members": list(members)}


def user_request(user_id: str) -> dict[str, Any]:
    """The wire form of a single-user request."""
    return {"type": "user", "user_id": user_id}


class _WritePicker:
    """Seeded ratings that write each (user, item) pair at most once."""

    def __init__(self, dataset: HealthDataset, seed: int) -> None:
        self._matrix = dataset.ratings
        self._items = dataset.ratings.item_ids()
        self._written: set[tuple[str, str]] = set()
        self._rng = _rng(seed, "writes")

    def write(self, user_id: str) -> dict[str, Any]:
        rated = self._matrix.item_ids_of(user_id)
        while True:
            item_id = self._rng.choice(self._items)
            if item_id not in rated and (user_id, item_id) not in self._written:
                break
        self._written.add((user_id, item_id))
        return {
            "type": "rate",
            "user_id": user_id,
            "item_id": item_id,
            "value": self._rng.choice(WRITE_VALUES),
        }


def _kinds(count: int, rng: random.Random) -> list[str]:
    """Exactly the workload's share of group requests, in seeded order."""
    groups = round(count * GROUP_SHARE)
    kinds = ["group"] * groups + ["user"] * (count - groups)
    rng.shuffle(kinds)
    return kinds


def _hot_reads(
    plan: Plan, kinds: list[str], rng: random.Random
) -> list[dict[str, Any]]:
    """Reads drawn from the hot pool with Zipf popularity."""
    group_weights = _zipf_cum_weights(len(plan.hot_groups))
    user_weights = _zipf_cum_weights(len(plan.hot_users))
    return [
        group_request(rng.choices(plan.hot_groups, cum_weights=group_weights)[0])
        if kind == "group"
        else user_request(rng.choices(plan.hot_users, cum_weights=user_weights)[0])
        for kind in kinds
    ]


def ladder_step(
    plan: Plan, seed: int, rate: float, connections: int
) -> list[Request]:
    """One rate-ladder step: hot-pool reads at ``rate`` for :data:`LADDER_STEP_S`."""
    arrivals = poisson_schedule(rate, LADDER_STEP_S, _rng(seed, f"ladder-{rate}"))
    kinds = _kinds(len(arrivals), _rng(seed, f"ladder-kinds-{rate}"))
    reads = _hot_reads(plan, kinds, _rng(seed, f"ladder-pick-{rate}"))
    return [
        Request(offset=offset, conn=index % connections, payload=payload)
        for index, (offset, payload) in enumerate(zip(arrivals, reads))
    ]


def write_connection(user_id: str, user_ids: list[str], connections: int) -> int:
    """The one connection every write of ``user_id`` travels on."""
    return user_ids.index(user_id) % connections


def make_plan(
    workload: Workload,
    dataset: HealthDataset,
    seed: int,
    seconds: float,
    connections: int,
) -> Plan:
    """Generate the run's requests, warm-up, probes and batches from ``seed``."""
    user_ids = dataset.ratings.user_ids()
    plan = Plan()
    if workload.closed_loop:
        taken: set = set()
        plan.boot_groups = _distinct_groups(user_ids, 2, seed, "boot", taken)
        picker = _WritePicker(dataset, seed)
        previous: list[list[str]] = plan.boot_groups
        write_rng = _rng(seed, "write-users")
        for index in range(MAX_BATCHES):
            batch = _distinct_groups(
                user_ids, workload.batch_groups, seed, f"batch-{index}", taken
            )
            members = sorted({m for group in previous for m in group})
            plan.batch_writes.append(
                [
                    picker.write(write_rng.choice(members))
                    for _ in range(workload.ingests_per_batch)
                ]
            )
            plan.batches.append(batch)
            previous = batch
        return plan

    if workload.closed_reads:
        arrivals = [0.0] * _reads_the_population_allows(len(user_ids))
    else:
        arrivals = poisson_schedule(workload.rate, seconds, _rng(seed, "arrivals"))
    kinds = _kinds(len(arrivals), _rng(seed, "kinds"))
    reads: list[dict[str, Any]] = []
    requested_groups: list[list[str]] = []
    requested_users: list[str] = []
    if workload.hot_groups:
        plan.hot_groups = _distinct_groups(
            user_ids, workload.hot_groups, seed, "hot-groups", set()
        )
        plan.hot_users = _rng(seed, "hot-users").sample(user_ids, workload.hot_users)
        reads = _hot_reads(plan, kinds, _rng(seed, "popularity"))
        plan.warmup = [group_request(g) for g in plan.hot_groups] + [
            user_request(u) for u in plan.hot_users
        ]
        plan.warm_users = sorted(
            {m for group in plan.hot_groups for m in group} | set(plan.hot_users)
        )
        requested_groups, requested_users = plan.hot_groups, plan.hot_users
    else:
        # Members are drawn without replacement, so no request meets a
        # user an earlier one warmed and every request costs a full
        # cold start, wherever the shuffle puts it in the run.
        rng = _rng(seed, "cold-members")
        sizes = group_sizes(kinds.count("group"), rng)
        needed = sum(sizes) + kinds.count("user")
        if needed > len(user_ids):
            raise ValueError(
                f"{workload.name}: {needed} never-seen users needed, the "
                f"dataset has {len(user_ids)}; shorten the run"
            )
        members = rng.sample(user_ids, needed)
        ends = list(itertools.accumulate(sizes))
        requested_groups = [
            members[end - size : end] for size, end in zip(sizes, ends)
        ]
        requested_users = members[sum(sizes) :]
        group_iter, user_iter = iter(requested_groups), iter(requested_users)
        reads = [
            group_request(next(group_iter)) if kind == "group" else user_request(next(user_iter))
            for kind in kinds
        ]

    plan.requests = [
        Request(offset=offset, conn=index % connections, payload=payload)
        for index, (offset, payload) in enumerate(zip(arrivals, reads))
    ]
    written: list[str] = []
    if workload.write_every_s > 0:
        picker = _WritePicker(dataset, seed)
        write_rng = _rng(seed, "write-users")
        # Writes cycle through the hot members in a seeded order, so
        # every run spreads them evenly instead of piling on a few.
        members = sorted({m for group in requested_groups for m in group})
        write_rng.shuffle(members)
        offset = write_rng.uniform(0.0, workload.write_every_s)
        writes = []
        while offset < seconds:
            user = members[len(writes) % len(members)]
            written.append(user)
            writes.append(
                Request(
                    offset=offset,
                    conn=write_connection(user, user_ids, connections),
                    payload=picker.write(user),
                )
            )
            offset += workload.write_every_s
        plan.requests = sorted(
            plan.requests + writes, key=lambda request: request.offset
        )

    probe_rng = _rng(seed, "probes")
    touched = [g for g in requested_groups if set(g) & set(written)]
    probe_groups = touched[: PROBE_GROUPS // 2]
    others = [g for g in requested_groups if g not in probe_groups]
    probe_groups += probe_rng.sample(
        others, min(len(others), PROBE_GROUPS - len(probe_groups))
    )
    probe_users = probe_rng.sample(
        requested_users, min(len(requested_users), PROBE_USERS)
    )
    if written:
        probe_users = [written[0]] + probe_users[1:]
    plan.probes = [group_request(g) for g in probe_groups] + [
        user_request(u) for u in probe_users
    ]
    return plan
