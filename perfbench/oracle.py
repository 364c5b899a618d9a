"""Correctness checks: response shapes and the dict-kernel serial oracle.

The oracle is an in-process :class:`RecommendationService` on the
``dict`` kernel with the serial backend, built from the same seeded
dataset and fed the same writes in the same per-user order.  The
serving stack contractually returns bit-identical answers, so items
and fairness are compared with ``==``.
"""

from __future__ import annotations

from typing import Any

from repro.config import RecommenderConfig
from repro.data.groups import Group
from repro.serving import RecommendationService

from .workloads import Workload, build_dataset

#: Items a group or user answer may hold (the config's top_z / top_k).
MAX_ITEMS = 10


def build_oracle(workload: Workload) -> RecommendationService:
    """The dict-kernel, serial reference service on ``workload``'s dataset."""
    config = RecommenderConfig().with_overrides(
        kernel="dict", exec_backend="serial"
    )
    return RecommendationService(build_dataset(workload), config)


def oracle_answer(service: RecommendationService, payload: dict[str, Any]) -> dict[str, Any]:
    """What a correct server answers to ``payload`` (items, and fairness for groups)."""
    if payload["type"] == "group":
        answer = service.recommend_group(Group(member_ids=payload["members"]))
        return {"items": list(answer.items), "fairness": answer.report.fairness}
    if payload["type"] == "user":
        return {
            "items": [item.item_id for item in service.recommend_user(payload["user_id"])]
        }
    service.ingest_rating(payload["user_id"], payload["item_id"], payload["value"])
    return {"ok": True}


def answer_of(response: dict[str, Any]) -> dict[str, Any]:
    """The comparable part of a server response."""
    if "fairness" in response:
        return {"items": response.get("items"), "fairness": response["fairness"]}
    if "items" in response:
        return {"items": response["items"]}
    return {"ok": response.get("ok")}


def well_formed(payload: dict[str, Any], response: dict[str, Any] | None) -> bool:
    """Whether ``response`` is a successful answer of the right shape for ``payload``."""
    if response is None or "error" in response:
        return False
    kind = payload["type"]
    if response.get("kind") != kind:
        return False
    if kind == "rate":
        return response.get("ok") is True and response.get("user") == payload["user_id"]
    items = response.get("items")
    if not isinstance(items, list) or len(items) > MAX_ITEMS or len(set(items)) != len(items):
        return False
    if kind == "user":
        return response.get("user") == payload["user_id"]
    fairness = response.get("fairness")
    return (
        response.get("members") == payload["members"]
        and isinstance(fairness, (int, float))
        and 0.0 <= fairness <= 1.0
    )
