"""Packed Pearson kernels (Equation 2 over CSR rows).

Two entry points mirror the dict-path surfaces of
:class:`~repro.similarity.ratings_sim.PearsonRatingSimilarity`:

* :func:`pearson_pair` — one ``RS(u, u')`` score over the two rows'
  sorted intersection;
* :func:`pearson_one_vs_many` — a batched row against many candidates
  through **one inverted-index gather**: the inverted-index slices of
  the user's rated items, concatenated in ascending item order, name
  every co-rating; ``numpy.bincount`` over the rater ints then yields,
  for *every* co-rater at once, the overlap count, the numerator and
  both squared-deviation sums.  No per-pair set construction, no
  per-pair merge, no string hashing — the batch costs
  O(Σ_{i∈I(u)} |U(i)|) regardless of the candidate count.

Both are **bit-identical** to the dict oracle: packed rows are sorted
by ascending interned item id, interning follows the matrix's item
insertion order, and the oracle sums each pair's co-rated terms in
exactly that order.  ``bincount`` adds each bin's weights one at a
time, in input order, starting from 0.0 — the same float sequence as
the oracle's ``+=`` loop (``tests/kernels`` pins this against a
weight sequence where pairwise summation would differ).  ``np.sqrt``
and division are correctly rounded, like ``math.sqrt`` and ``/``.

The co-rated means of the ``mean_over_common_only`` variant are taken
with Python's ``sum()``, as the oracle takes them, because ``sum()``
itself changed its float algorithm in Python 3.12.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from ..obs import is_enabled, observe_kernel
from .packed import INT_DTYPE, PackedRatings, csr_gather, csr_offsets


def overlap_counts(packed: PackedRatings, user_int: int) -> np.ndarray:
    """Co-rated item counts of one user against *every* user.

    One gather of the inverted index over the user's rated items; entry
    ``counts[v]`` is ``|I(u) ∩ I(v)|`` (and ``counts[user_int]`` the
    user's own row length).  Pure integer arithmetic — no float order
    concerns.
    """
    packed.ensure_current()
    start, end = packed.row_bounds(user_int)
    positions, _ = csr_gather(packed.inv_ptr, packed.indices[start:end])
    return np.bincount(packed.inv_users[positions], minlength=packed.num_users)


def _correlations(
    bins: np.ndarray,
    deviations_a: np.ndarray,
    deviations_b: np.ndarray,
    qualifies: np.ndarray,
) -> np.ndarray:
    """Equation 2 per bin from per-co-rating deviations (0 where undefined).

    ``bins`` names the pair each co-rating belongs to, in the canonical
    (ascending item) order within every pair; ``qualifies`` masks the
    bins that met ``min_common_items``.
    """
    count = len(qualifies)
    numerators = np.bincount(bins, deviations_a * deviations_b, count)
    sums_sq_a = np.bincount(bins, deviations_a * deviations_a, count)
    sums_sq_b = np.bincount(bins, deviations_b * deviations_b, count)
    denominators = np.sqrt(sums_sq_a) * np.sqrt(sums_sq_b)
    scores = np.zeros(count)
    np.divide(
        numerators, denominators, out=scores, where=qualifies & (denominators != 0.0)
    )
    return scores


def _common_means(
    bins: np.ndarray, values: np.ndarray, qualifies: np.ndarray
) -> np.ndarray:
    """Per-bin mean of ``values`` taken with ``sum()``, as the oracle takes it.

    Entries of one bin are summed in input order.  Bins that do not
    qualify are left at 0; their scores are discarded anyway.
    """
    means = np.zeros(len(qualifies))
    grouped = values[np.argsort(bins, kind="stable")].tolist()
    offsets = csr_offsets(bins, len(qualifies)).tolist()
    for bin_int in np.flatnonzero(qualifies).tolist():
        start, end = offsets[bin_int], offsets[bin_int + 1]
        means[bin_int] = sum(grouped[start:end]) / (end - start)
    return means


def _pair_score_ints(
    packed: PackedRatings,
    a_int: int,
    b_int: int,
    min_common_items: int,
    mean_over_common_only: bool,
) -> float:
    """Equation 2 for one interned pair (no self/unknown handling)."""
    a_start, a_end = packed.row_bounds(a_int)
    b_start, b_end = packed.row_bounds(b_int)
    _, in_a, in_b = np.intersect1d(
        packed.indices[a_start:a_end],
        packed.indices[b_start:b_end],
        assume_unique=True,
        return_indices=True,
    )
    if len(in_a) < min_common_items:
        return 0.0
    values_a = packed.values[a_start:a_end][in_a]
    values_b = packed.values[b_start:b_end][in_b]
    if mean_over_common_only:
        mean_a = sum(values_a.tolist()) / len(in_a)
        mean_b = sum(values_b.tolist()) / len(in_b)
    else:
        mean_a = packed.means[a_int]
        mean_b = packed.means[b_int]
    bins = np.zeros(len(in_a), dtype=INT_DTYPE)
    return float(
        _correlations(bins, values_a - mean_a, values_b - mean_b, np.ones(1, bool))[0]
    )


def pearson_pair(
    packed: PackedRatings,
    user_a: str,
    user_b: str,
    min_common_items: int = 2,
    mean_over_common_only: bool = False,
) -> float:
    """``RS(user_a, user_b)`` over the packed rows.

    Matches the dict path exactly: self-pairs score 1, users unknown to
    the matrix score 0, pairs under ``min_common_items`` co-rated items
    score 0, zero-variance overlaps score 0.
    """
    if user_a == user_b:
        return 1.0
    packed.ensure_current()
    a_int = packed.user_index.get(user_a)
    b_int = packed.user_index.get(user_b)
    if a_int is None or b_int is None:
        return 0.0
    return _pair_score_ints(
        packed, a_int, b_int, min_common_items, mean_over_common_only
    )


def pearson_one_vs_many(
    packed: PackedRatings,
    user_id: str,
    candidates: Iterable[str],
    min_common_items: int = 2,
    mean_over_common_only: bool = False,
) -> dict[str, float]:
    """Batched ``RS(u, ·)`` against many candidates, packed.

    One inverted-index gather and a handful of ``bincount`` passes score
    every co-rater; scores are decoded to the candidates once, at the
    end.  Candidates equal to ``user_id`` are excluded, everyone else
    starts at 0.0 — the dict batch contract.

    Each call is timed into the default metrics registry as
    ``kernel_ms{kernel="pearson_one_vs_many"}``.
    """
    if not is_enabled():
        return _one_vs_many(
            packed, user_id, candidates, min_common_items, mean_over_common_only
        )
    started = time.perf_counter()
    try:
        return _one_vs_many(
            packed, user_id, candidates, min_common_items, mean_over_common_only
        )
    finally:
        observe_kernel("pearson_one_vs_many", started)


def _one_vs_many(
    packed: PackedRatings,
    user_id: str,
    candidates: Iterable[str],
    min_common_items: int,
    mean_over_common_only: bool,
) -> dict[str, float]:
    """The uninstrumented body of :func:`pearson_one_vs_many`."""
    candidate_list = [candidate for candidate in candidates if candidate != user_id]
    if not candidate_list:
        return {}
    packed.ensure_current()
    user_index = packed.user_index
    user_int = user_index.get(user_id)
    if user_int is None:
        return dict.fromkeys(candidate_list, 0.0)
    start, end = packed.row_bounds(user_int)
    positions, lengths = csr_gather(packed.inv_ptr, packed.indices[start:end])
    raters = packed.inv_users[positions]
    rater_values = packed.inv_values[positions]
    qualifies = (
        np.bincount(raters, minlength=packed.num_users) >= min_common_items
    )
    if mean_over_common_only:
        own_values = np.repeat(packed.values[start:end], lengths)
        deviations_a = own_values - _common_means(raters, own_values, qualifies)[raters]
        deviations_b = (
            rater_values - _common_means(raters, rater_values, qualifies)[raters]
        )
    else:
        deviations_a = np.repeat(packed.devs[start:end], lengths)
        deviations_b = rater_values - packed.means[raters]
    scores = _correlations(raters, deviations_a, deviations_b, qualifies).tolist()
    return {
        candidate: scores[candidate_int] if candidate_int is not None else 0.0
        for candidate, candidate_int in zip(
            candidate_list, map(user_index.get, candidate_list)
        )
    }
