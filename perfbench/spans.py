"""Dapper-style spans recorded from the benchmark's own wrappers.

The program is not instrumented: :func:`install` replaces each layer's
entry points *where the caller looks them up* (``from ..kernels import
x`` binds a module-local name, so the wrapper goes into the importing
module) with a function that records ``(id, parent, name, start, end,
request id, value)`` in memory.  The serving process writes the spans
out when the run ends; :func:`self_times` and :func:`layer_metrics`
turn them into the per-layer numbers.

Times are ``time.perf_counter()`` seconds, which on Linux is
``CLOCK_MONOTONIC`` and therefore comparable between the client and
the serving process on one host.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

#: Span tuple layout.
ID, PARENT, NAME, START, END, RID, VALUE = range(7)


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        # Loop-side request ids: connection task -> client port, and
        # parsed request object id -> "port:number".
        self._task_port: dict[Any, int] = {}
        self._task_rid: dict[Any, str] = {}
        self._request_rid: dict[int, str] = {}

    # -- recording -----------------------------------------------------------

    @property
    def rid(self) -> str | None:
        """The request id spans of the calling thread are tagged with."""
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value: str | None) -> None:
        self._local.rid = value

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        value: Callable[..., float] | None = None,
    ) -> Callable[..., Any]:
        """``function`` recording one span per call (in this process only).

        ``value(*args, **kwargs)`` is evaluated before the call and
        stored with the span (e.g. the entries a cache scan examines).
        Forked children inherit the wrapper but record nothing.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            measured = value(*args, **kwargs) if value is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end,
                     getattr(local, "rid", None), measured)
                )

        return traced

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        value: Callable[..., float] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` (a function, method or classmethod) with a traced one."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(self.wrap(name, raw.__func__, value)))
        else:
            setattr(owner, attribute, self.wrap(name, raw, value))

    def take(self) -> list[tuple]:
        """Remove and return every span recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    # -- request ids on the TCP path ----------------------------------------

    def patch_server(self, server_cls: Any, server_module: Any) -> None:
        """Tag spans of each TCP request with ``"<client port>:<line number>"``.

        The connection handler learns the client's port, ``_respond``
        the per-connection line number; ``parse_request`` (called by
        ``_respond`` on the loop, before any ``await``) links the parsed
        request object to that id, and ``_execute`` (on an executor
        thread) picks it up and tags everything below it.
        """
        tracer = self
        handle = server_cls.__dict__["_handle_connection"]
        respond = server_cls.__dict__["_respond"]
        execute = server_cls.__dict__["_execute"]
        parse = server_module.parse_request

        @functools.wraps(handle)
        async def traced_handle(server: Any, reader: Any, writer: Any) -> None:
            task = asyncio.current_task()
            peer = writer.get_extra_info("peername")
            tracer._task_port[task] = peer[1] if peer else 0
            try:
                await handle(server, reader, writer)
            finally:
                tracer._task_port.pop(task, None)
                tracer._task_rid.pop(task, None)

        @functools.wraps(respond)
        async def traced_respond(server: Any, number: int, text: str) -> Any:
            task = asyncio.current_task()
            tracer._task_rid[task] = f"{tracer._task_port.get(task, 0)}:{number}"
            return await respond(server, number, text)

        @functools.wraps(parse)
        def traced_parse(payload: Any) -> Any:
            request = parse(payload)
            try:
                task = asyncio.current_task()
            except RuntimeError:
                task = None
            rid = tracer._task_rid.get(task)
            if rid is not None:
                tracer._request_rid[id(request)] = rid
            return request

        traced_execute = self.wrap("server.execute", execute)

        @functools.wraps(execute)
        def tagged_execute(server: Any, request: Any) -> Any:
            tracer.rid = tracer._request_rid.pop(id(request), None)
            try:
                return traced_execute(server, request)
            finally:
                tracer.rid = None

        server_cls._handle_connection = traced_handle
        server_cls._respond = traced_respond
        server_cls._execute = tagged_execute
        server_module.parse_request = traced_parse


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's entry points the benchmark reports on."""
    from repro.core.candidates import GroupCandidates
    from repro.core.greedy import FairnessAwareGreedy
    from repro.exec.remote import RemoteBackend
    from repro.serving import cache, index, server, service
    from repro.similarity import ratings_sim

    svc = service.RecommendationService
    for owner, attribute, name in (
        (svc, "recommend_group", "service.group"),
        (svc, "recommend_user", "service.user"),
        (svc, "ingest_rating", "service.ingest"),
        (svc, "recommend_many", "service.batch"),
        (service, "validate_group_response", "validation.group"),
        (service, "validate_user_response", "validation.user"),
        (service, "predict_row_packed", "kernels.predict_row"),
        (service, "predict_topk_packed", "kernels.topk"),
        (service, "items_unrated_by_all_packed", "kernels.scan"),
        (ratings_sim, "pearson_one_vs_many", "kernels.pearson"),
        (ratings_sim, "pearson_pair", "kernels.pearson_pair"),
        (GroupCandidates, "from_relevance_table", "core.candidates"),
        (FairnessAwareGreedy, "select", "core.select"),
        (cache.CachedSimilarity, "similarities", "cache.similarities"),
        (index.NeighborIndex, "row", "index.row"),
        (index.NeighborIndex, "build", "index.build"),
        (index.NeighborIndex, "refresh_user", "index.refresh"),
        (RemoteBackend, "map_items", "exec.dispatch"),
        (RemoteBackend, "close", "exec.close"),
    ):
        tracer.patch(owner, attribute, name)
    tracer.patch(
        cache.ScoreCache,
        "invalidate_where",
        "cache.invalidate",
        value=lambda cache_self, *_: float(len(cache_self)),
    )
    tracer.patch_server(server.RequestServer, server)
    return tracer


# -- analysis -----------------------------------------------------------------


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover (seconds).

    Children of one span run on the span's own thread, one after the
    other, so their durations add without overlap; the sum is clipped
    to the parent's interval.
    """
    child_time: dict[int, float] = defaultdict(float)
    by_id = {span[ID]: span for span in spans}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is None:
            continue
        start = max(span[START], parent[START])
        end = min(span[END], parent[END])
        if end > start:
            child_time[parent[ID]] += end - start
    return {
        span[ID]: max(0.0, (span[END] - span[START]) - child_time[span[ID]])
        for span in spans
    }


#: Spans that make up the service call of a request.
SERVICE_SPANS = ("service.group", "service.user", "service.ingest", "service.batch")


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its first dotted component)."""
    return name.split(".", 1)[0]


def span_totals(spans: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms, total self ms and summed values."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0, "value": 0.0}
    )
    for span in spans:
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["ms"] += (span[END] - span[START]) * 1000.0
        entry["self_ms"] += selfs[span[ID]] * 1000.0
        if span[VALUE] is not None:
            entry["value"] += span[VALUE]
    return dict(totals)


def request_breakdown(
    spans: Sequence[tuple],
    requests: Sequence[tuple[str, float, float]],
) -> dict[str, Any]:
    """Split each request's client-observed time into layer self times.

    ``requests`` holds ``(rid, due, received)`` per answered request.
    Per request, the server share is measured directly: from the due
    time to the start of the service call, plus from its end to the
    response; every span under the service call contributes its self
    time to its layer.  Returns per-layer totals (ms), the client total
    and the per-request queue waits and overheads (ms).
    """
    selfs = self_times(spans)
    by_rid: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[RID] is not None and span[NAME] != "server.execute":
            by_rid[span[RID]].append(span)
    layers: dict[str, float] = defaultdict(float)
    client_total = 0.0
    queue_waits: list[float] = []
    overheads: list[float] = []
    matched = 0
    for rid, due, received in requests:
        latency = (received - due) * 1000.0
        client_total += latency
        tagged = by_rid.get(rid)
        service_ids = {s[ID] for s in tagged or () if s[NAME] in SERVICE_SPANS}
        roots = [
            s for s in tagged or ()
            if s[ID] in service_ids and s[PARENT] not in service_ids
        ]
        if not roots:
            continue
        matched += 1
        root = min(roots, key=lambda s: s[START])
        service_ms = sum((s[END] - s[START]) * 1000.0 for s in roots)
        queue = (root[START] - due) * 1000.0
        queue_waits.append(queue)
        overheads.append(latency - service_ms)
        layers["server"] += latency - service_ms
        for span in tagged:
            layers[layer_of(span[NAME])] += selfs[span[ID]] * 1000.0
    return {
        "layers": dict(layers),
        "client_ms": client_total,
        "matched": matched,
        "queue_waits": queue_waits,
        "overheads": overheads,
    }
