"""Packed candidate scan (Definition 2's group-unrated item set).

:func:`items_unrated_by_all_packed` is the layout-first replacement for
:meth:`repro.data.ratings.RatingMatrix.items_unrated_by_all` on the
group serving path: instead of probing ``has_rating`` with string keys
per (member, item) pair, the kernel stamps every member's packed row
into a byte mask and emits the unset positions — a set subtract in
intern space, decoded to item-id strings exactly once at the boundary.

Bit-identity with the dict path holds because the packed intern order
*is* the matrix item-insertion order (see
:class:`~repro.kernels.packed.PackedRatings`), which is the order
``items_unrated_by_all`` pins as its contract.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from ..obs import observe_kernel
from .packed import PackedRatings


def candidate_ints_unrated_by_all(
    packed: PackedRatings, member_ids: Iterable[str]
) -> np.ndarray:
    """Item ints (ascending = intern order) no listed member has rated.

    Members unknown to the matrix rated nothing and are skipped, which
    matches the dict path answering every ``has_rating`` probe for them
    with ``False``.  Each call is timed into the default registry as
    ``kernel_ms{kernel="candidate_scan"}``.
    """
    packed.ensure_current()
    started = time.perf_counter()
    rated = np.zeros(packed.num_items, dtype=bool)
    user_index = packed.user_index
    for member_id in member_ids:
        member_int = user_index.get(member_id)
        if member_int is None:
            continue
        start, end = packed.row_bounds(member_int)
        rated[packed.indices[start:end]] = True
    result = np.flatnonzero(~rated)
    observe_kernel("candidate_scan", started)
    return result


def items_unrated_by_all_packed(
    packed: PackedRatings, member_ids: Iterable[str]
) -> list[str]:
    """Decoded candidate scan, bit-identical to the dict oracle.

    Returns exactly ``packed.matrix.items_unrated_by_all(member_ids)``
    — same ids, same (item-insertion) order — computed in intern space
    and decoded once.
    """
    ints = candidate_ints_unrated_by_all(packed, member_ids)
    return list(map(packed.item_ids.__getitem__, ints.tolist()))
