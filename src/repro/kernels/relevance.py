"""Packed prediction kernels (Equation 1 over the CSR rows).

All three kernels share one computation: the peers' CSR rows are
gathered in peer order and two ``numpy.bincount`` passes over their
item ints give every item's Equation-1 numerator (``Σ sim · rating``)
and denominator (``Σ sim``) at once.  They differ only in what they
emit:

* :func:`predict_table_packed` — the scores of a given string candidate
  list, the drop-in replacement for
  :func:`repro.core.relevance.predict_table`;
* :func:`predict_row_packed` — the full unrated row of one user, with
  candidates enumerated directly in intern space (no string candidate
  list in, one decode per emitted score out).  This is the serving
  layer's relevance-row kernel;
* :func:`predict_topk_packed` — the same row cut to its top ``k`` under
  the pinned score-desc/item-asc tie-break, so its output equals
  ``rank_items(predict_row_packed(...), k)`` without decoding or
  sorting the whole row.

Bit-identity with the dict path holds because the accumulation order is
the *peer* order: the dict path iterates ``peer_similarities`` and adds
each peer's term, and ``bincount`` adds each item's terms one at a
time, in input order — which is peer order, since every peer's row
holds an item at most once.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from ..obs import observe_kernel
from .packed import FLOAT_DTYPE, INT_DTYPE, PackedRatings, csr_gather


def _equation1(
    packed: PackedRatings, peer_similarities: Mapping[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item Equation-1 ``(numerators, denominators)`` over every item.

    Peers unknown to the matrix never rated anything, so dropping them
    up front changes no sum.  The caller holds a current view.
    """
    user_index = packed.user_index
    known = [
        (peer_int, similarity)
        for peer_int, similarity in zip(
            map(user_index.get, peer_similarities), peer_similarities.values()
        )
        if peer_int is not None
    ]
    peer_ints = np.array([peer_int for peer_int, _ in known], dtype=INT_DTYPE)
    similarities = np.array([similarity for _, similarity in known], dtype=FLOAT_DTYPE)
    positions, lengths = csr_gather(packed.indptr, peer_ints)
    items = packed.indices[positions]
    weights = np.repeat(similarities, lengths)
    numerators = np.bincount(
        items, weights * packed.values[positions], packed.num_items
    )
    denominators = np.bincount(items, weights, packed.num_items)
    return numerators, denominators


def _unrated_scores(
    packed: PackedRatings,
    user_id: str,
    peer_similarities: Mapping[str, float],
    default_score: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(item_ints, scores)`` of every item the user has not rated.

    Ascending item ints; items whose prediction is undefined (no peer
    rated them, or zero similarity mass) are dropped, or scored
    ``default_score`` when one is given.
    """
    packed.ensure_current()
    numerators, denominators = _equation1(packed, peer_similarities)
    emit = np.ones(packed.num_items, dtype=bool)
    user_int = packed.user_index.get(user_id)
    if user_int is not None:
        start, end = packed.row_bounds(user_int)
        emit[packed.indices[start:end]] = False
    defined = denominators != 0.0
    if default_score is None:
        emit &= defined
        scores = np.zeros(packed.num_items)
    else:
        scores = np.full(packed.num_items, default_score, dtype=FLOAT_DTYPE)
    np.divide(numerators, denominators, out=scores, where=defined)
    item_ints = np.flatnonzero(emit)
    return item_ints, scores[item_ints]


def predict_table_packed(
    packed: PackedRatings,
    user_id: str,
    peer_similarities: Mapping[str, float],
    candidate_items: Sequence[str],
    default_score: float | None = None,
) -> dict[str, float]:
    """Equation 1 over many candidate items for a fixed peer set, packed.

    Same contract as :func:`repro.core.relevance.predict_table`: items
    the user already rated keep their actual rating, items whose
    prediction is undefined (no peer rated them, or zero similarity
    mass) are omitted unless ``default_score`` is given.

    Each call is timed into the default metrics registry as
    ``kernel_ms{kernel="predict_table_packed"}``.
    """
    started = time.perf_counter()
    packed.ensure_current()
    numerators, denominators = _equation1(packed, peer_similarities)
    defined = denominators != 0.0
    scores = np.divide(
        numerators, denominators, out=np.zeros(packed.num_items), where=defined
    ).tolist()
    defined = defined.tolist()
    user_int = packed.user_index.get(user_id)
    own: dict[int, float] = {}
    if user_int is not None:
        start, end = packed.row_bounds(user_int)
        own = dict(
            zip(packed.indices[start:end].tolist(), packed.values[start:end].tolist())
        )
    item_index = packed.item_index
    predictions: dict[str, float] = {}
    for item_id in candidate_items:
        item_int = item_index.get(item_id)
        if item_int is not None:
            existing = own.get(item_int)
            if existing is not None:
                predictions[item_id] = existing
                continue
            if defined[item_int]:
                predictions[item_id] = scores[item_int]
                continue
        # Unknown item, or an undefined prediction.
        if default_score is not None:
            predictions[item_id] = default_score
    observe_kernel("predict_table_packed", started)
    return predictions


def predict_row_packed(
    packed: PackedRatings,
    user_id: str,
    peer_similarities: Mapping[str, float],
    default_score: float | None = None,
) -> dict[str, float]:
    """Equation 1 over *every* item the user has not rated, packed.

    Equivalent to ``predict_table_packed(packed, user_id,
    peer_similarities, matrix.unrated_items(user_id,
    matrix.item_ids()))`` — the serving layer's relevance-row shape —
    but the candidate set is enumerated directly in intern space, so no
    string candidate list is built and each emitted item id is decoded
    exactly once.  Timed as ``kernel_ms{kernel="predict_row_packed"}``.
    """
    started = time.perf_counter()
    item_ints, scores = _unrated_scores(
        packed, user_id, peer_similarities, default_score
    )
    item_ids = packed.item_ids
    predictions = dict(
        zip(map(item_ids.__getitem__, item_ints.tolist()), scores.tolist())
    )
    observe_kernel("predict_row_packed", started)
    return predictions


def predict_topk_packed(
    packed: PackedRatings,
    user_id: str,
    peer_similarities: Mapping[str, float],
    k: int,
    default_score: float | None = None,
) -> list[tuple[str, float]]:
    """Top-``k`` of the user's unrated row.

    Returns ``(item_id, score)`` pairs in ranking order — exactly
    ``[(s.item_id, s.score) for s in
    rank_items(predict_row_packed(...), k)]``.  Only the items scoring
    at least the ``k``-th best score are decoded and sorted; every item
    tied with that score is among them, so the (score desc, item asc)
    tie-break is applied exactly as a full sort would.  Timed as
    ``kernel_ms{kernel="predict_topk_packed"}``.
    """
    started = time.perf_counter()
    packed.ensure_current()
    if k <= 0:
        observe_kernel("predict_topk_packed", started)
        return []
    item_ints, scores = _unrated_scores(
        packed, user_id, peer_similarities, default_score
    )
    if len(scores) > k:
        kth_best = np.partition(scores, len(scores) - k)[len(scores) - k]
        contenders = scores >= kth_best
        item_ints, scores = item_ints[contenders], scores[contenders]
    item_ids = packed.item_ids
    ranked = sorted(
        zip(map(item_ids.__getitem__, item_ints.tolist()), scores.tolist()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    observe_kernel("predict_topk_packed", started)
    return ranked[:k]
