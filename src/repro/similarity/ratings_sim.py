"""Rating-based user similarity (Section V.A, Equation 2).

The paper's first similarity measure is the Pearson correlation over
co-rated items: "if two users have rated documents in a similar way,
then we can say that they are similar, since they share the same
interests."  This module implements that measure plus two common
alternatives (cosine over raw ratings and Jaccard over rated-item sets)
used by the similarity ablation benchmark.

Pearson runs on one of two interchangeable kernels (the ``kernel``
argument, mirrored by :attr:`repro.config.RecommenderConfig.kernel`):

* ``"packed"`` (default) — the CSR kernels of :mod:`repro.kernels`:
  integer-interned ids in flat CSR arrays, precomputed means and
  deviations, an inverted index gathered and summed with
  ``numpy.bincount``;
* ``"dict"`` — the oracle: straight dict-of-dicts arithmetic over the
  :class:`~repro.data.ratings.RatingMatrix`.

Both kernels sum each pair's co-rated terms in the same **canonical
order** — the matrix's item insertion order, which is also the packed
interning order — so their scores are bit-identical (asserted by the
cross-kernel parity suite), not merely close.
"""

from __future__ import annotations

import math
import weakref
from typing import Iterable

from ..data.ratings import RatingMatrix
from ..kernels import (
    DEFAULT_KERNEL,
    KERNEL_NAMES,
    PackedRatings,
    SpillError,
    get_packed,
    pearson_one_vs_many,
    pearson_pair,
)
from .base import UserSimilarity


class PearsonRatingSimilarity(UserSimilarity):
    """``RS(u, u')`` — Pearson correlation over co-rated items (Eq. 2).

    Scores lie in ``[-1, 1]``.  Pairs with fewer than
    ``min_common_items`` co-rated items score 0, as do pairs where one
    user has zero rating variance on the common items (the correlation
    is undefined there).

    Parameters
    ----------
    matrix:
        The rating matrix the measure reads from.
    min_common_items:
        Minimum number of co-rated items for a meaningful score.
    mean_over_common_only:
        Equation 2 centers each user's ratings with ``μ_u`` computed
        over *all* of the user's ratings.  Setting this flag computes the
        mean over the co-rated subset only (the other textbook variant);
        the default follows the paper.
    kernel:
        ``"packed"`` (default) computes through the CSR kernels of
        :mod:`repro.kernels`; ``"dict"`` keeps the dict-of-dicts oracle
        path.  Scores are bit-identical either way — this is purely a
        performance knob.
    """

    name = "ratings"

    def __init__(
        self,
        matrix: RatingMatrix,
        min_common_items: int = 2,
        mean_over_common_only: bool = False,
        kernel: str = DEFAULT_KERNEL,
    ) -> None:
        if min_common_items < 1:
            raise ValueError("min_common_items must be at least 1")
        if kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}"
            )
        self.matrix = matrix
        self.min_common_items = min_common_items
        self.mean_over_common_only = mean_over_common_only
        self.kernel = kernel
        self._mean_cache: dict[str, float] = {}
        self._packed = None
        self._item_rank: dict[str, int] = {}
        self._item_rank_version = -1
        # Per-shard sub-views: children created by with_private_packed()
        # own a *private* PackedRatings (their own dirty set and repack
        # lock), held weakly here so invalidations fan out for exactly
        # as long as a shard holds its measure alive.
        self._children: "weakref.WeakSet[PearsonRatingSimilarity]" = (
            weakref.WeakSet()
        )
        self._private_packed = False
        self._parent: "weakref.ref[PearsonRatingSimilarity] | None" = None

    def _mean(self, user_id: str) -> float:
        if user_id not in self._mean_cache:
            self._mean_cache[user_id] = self.matrix.mean_rating(user_id)
        return self._mean_cache[user_id]

    def _packed_view(self):
        if self._packed is None:
            if self._private_packed:
                self._packed = self._open_private_view()
            else:
                self._packed = get_packed(self.matrix)
        return self._packed

    def _open_private_view(self) -> PackedRatings:
        """A packed view owned by this measure alone (see with_private_packed).

        When the shared view the parent reads is mmap-backed, the
        private view maps the *same* spill — the operating system
        shares the pages, so per-shard views at scale cost interning
        tables, not CSR copies.  Otherwise (or when the spill has gone
        stale) the row data is packed privately from the matrix.
        """
        parent = self._parent() if self._parent is not None else None
        shared = parent._packed if parent is not None else None
        if shared is not None and shared.spill_backed and shared._spill_dir:
            try:
                return PackedRatings.open_mmap(shared._spill_dir, self.matrix)
            except (SpillError, OSError):
                pass
        return PackedRatings(self.matrix)

    def with_private_packed(self) -> "PearsonRatingSimilarity":
        """A clone of this measure holding its own packed view.

        :class:`~repro.serving.sharding.ShardedNeighborIndex` gives each
        shard one so parallel shard builds never serialise on a single
        repack lock, and a dirty mark from one shard's home user does
        not force every other shard through a repack check.  On the
        ``"dict"`` kernel there is no packed state to privatise and
        ``self`` is returned unchanged.

        The parent keeps a weak reference to every child and forwards
        :meth:`invalidate_user` / :meth:`invalidate_cache` marks, so
        the serving layer keeps invalidating only the measure it holds.
        Scores are bit-identical: private views pack from the same
        matrix in the same canonical order.
        """
        if self.kernel != "packed":
            return self
        clone = PearsonRatingSimilarity(
            self.matrix,
            min_common_items=self.min_common_items,
            mean_over_common_only=self.mean_over_common_only,
            kernel=self.kernel,
        )
        clone._private_packed = True
        clone._parent = weakref.ref(self)
        self._children.add(clone)
        return clone

    def __getstate__(self) -> dict:
        # The packed view and the oracle's rank map rebuild lazily on
        # the far side of a process hop (pool workers repack from
        # their own replayed matrix), so neither the CSR arrays nor an
        # O(items) derivable dict ever cross the boundary.  Children
        # and parent links are process-local wiring (weakrefs do not
        # pickle); the far side rebuilds its own sharding.
        state = self.__dict__.copy()
        state["_packed"] = None
        state["_item_rank"] = {}
        state["_item_rank_version"] = -1
        state["_children"] = None
        state["_parent"] = None
        state["_private_packed"] = False
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._children = weakref.WeakSet()

    def _canonical_common(
        self, ratings_a: dict[str, float], ratings_b: dict[str, float]
    ) -> list[str]:
        """The co-rated items in canonical (item insertion) order.

        The canonical order makes the per-pair float summation
        deterministic — independent of set/hash iteration order — and
        equal to the packed kernel's ascending interned-id merge order,
        which is what makes the two kernels bit-identical.
        """
        common = set(ratings_a) & set(ratings_b)
        if len(common) <= 1:
            return list(common)
        version = self.matrix.version
        if self._item_rank_version != version:
            self._item_rank = {
                item_id: rank
                for rank, item_id in enumerate(self.matrix.iter_item_ids())
            }
            self._item_rank_version = version
        return sorted(common, key=self._item_rank.__getitem__)

    def invalidate_cache(self) -> None:
        """Drop all cached per-user state (call after mutating the matrix).

        Fans out to every live child created by
        :meth:`with_private_packed`, so per-shard packed views go stale
        together with the shared one.
        """
        self._mean_cache.clear()
        if self._packed is not None:
            self._packed.mark_all_dirty()
        for child in tuple(self._children):
            child.invalidate_cache()

    def invalidate_user(self, user_id: str) -> None:
        """Drop the cached state of one user (after a rating change).

        Fans out to every live :meth:`with_private_packed` child.
        """
        self._mean_cache.pop(user_id, None)
        if self._packed is not None:
            self._packed.mark_dirty(user_id)
        for child in tuple(self._children):
            child.invalidate_user(user_id)

    def similarity(self, user_a: str, user_b: str) -> float:
        if user_a == user_b:
            return 1.0
        if self.kernel == "packed":
            return pearson_pair(
                self._packed_view(),
                user_a,
                user_b,
                self.min_common_items,
                self.mean_over_common_only,
            )
        ratings_a = self.matrix.items_of(user_a)
        ratings_b = self.matrix.items_of(user_b)
        common = self._canonical_common(ratings_a, ratings_b)
        if len(common) < self.min_common_items:
            return 0.0
        if self.mean_over_common_only:
            mean_a = sum(ratings_a[i] for i in common) / len(common)
            mean_b = sum(ratings_b[i] for i in common) / len(common)
        else:
            mean_a = self._mean(user_a)
            mean_b = self._mean(user_b)
        numerator = 0.0
        sum_sq_a = 0.0
        sum_sq_b = 0.0
        for item_id in common:
            deviation_a = ratings_a[item_id] - mean_a
            deviation_b = ratings_b[item_id] - mean_b
            numerator += deviation_a * deviation_b
            sum_sq_a += deviation_a * deviation_a
            sum_sq_b += deviation_b * deviation_b
        denominator = math.sqrt(sum_sq_a) * math.sqrt(sum_sq_b)
        if denominator == 0.0:
            return 0.0
        return numerator / denominator

    def similarities(
        self, user_id: str, candidates: Iterable[str]
    ) -> dict[str, float]:
        """Batched ``RS(u, ·)`` against many candidates.

        On the packed kernel this is
        :func:`repro.kernels.pearson_one_vs_many` — one inverted-index
        gather over interned ints, scored for every co-rater at once.  The dict path keeps the same shape over the
        string-keyed matrix: walk the inverted index of the user's
        rated items once, count co-rated items per candidate, and only
        evaluate the Pearson formula for the candidates that reach
        ``min_common_items``.  Scores are bit-identical between the
        kernels and to :meth:`similarity`.
        """
        if self.kernel == "packed":
            return pearson_one_vs_many(
                self._packed_view(),
                user_id,
                candidates,
                self.min_common_items,
                self.mean_over_common_only,
            )
        ratings_a = self.matrix.items_of(user_id)
        if not ratings_a:
            # Empty-profile users score 0 against everyone; skip the
            # overlap walk (and its bookkeeping allocations) entirely.
            return {
                candidate: 0.0 for candidate in candidates if candidate != user_id
            }
        scores = {
            candidate: 0.0 for candidate in candidates if candidate != user_id
        }
        if not scores:
            return scores
        overlap: dict[str, int] = {}
        for item_id in ratings_a:
            for user_b in self.matrix.iter_raters(item_id):
                if user_b in scores:
                    overlap[user_b] = overlap.get(user_b, 0) + 1
        for user_b, count in overlap.items():
            if count >= self.min_common_items:
                scores[user_b] = self.similarity(user_id, user_b)
        return scores

    def similarities_to(
        self, user_id: str, owners: Iterable[str]
    ) -> dict[str, float]:
        """``RS(owner, u)`` for every owner, as one :meth:`similarities` batch.

        Pearson is bit-symmetric on both kernels: each pair's co-rated
        terms run in canonical item order whichever user comes first,
        the products and ``sqrt(a) * sqrt(b)`` commute, and the
        co-rated means are per-user sums.  So ``RS(u, owner)`` from one
        inverted-index gather is exactly ``RS(owner, u)``.
        """
        return self.similarities(user_id, owners)


class CosineRatingSimilarity(UserSimilarity):
    """Cosine similarity over the users' raw rating vectors.

    Scores lie in ``[0, 1]`` for non-negative rating scales.  Included
    as an ablation alternative to the paper's Pearson choice.  Per-user
    vector norms are cached (they only depend on the user's own row)
    and dropped through the same ``invalidate_user`` hooks Pearson's
    mean cache uses.
    """

    name = "ratings-cosine"

    def __init__(self, matrix: RatingMatrix, min_common_items: int = 1) -> None:
        if min_common_items < 1:
            raise ValueError("min_common_items must be at least 1")
        self.matrix = matrix
        self.min_common_items = min_common_items
        self._norm_cache: dict[str, float] = {}

    def _norm(self, user_id: str) -> float:
        norm = self._norm_cache.get(user_id)
        if norm is None:
            ratings = self.matrix.items_of(user_id)
            norm = math.sqrt(sum(v * v for v in ratings.values()))
            self._norm_cache[user_id] = norm
        return norm

    def invalidate_cache(self) -> None:
        """Drop every cached norm (call after mutating the matrix)."""
        self._norm_cache.clear()

    def invalidate_user(self, user_id: str) -> None:
        """Drop the cached norm of one user (after a rating change)."""
        self._norm_cache.pop(user_id, None)

    def similarity(self, user_a: str, user_b: str) -> float:
        if user_a == user_b:
            return 1.0
        ratings_a = self.matrix.items_of(user_a)
        ratings_b = self.matrix.items_of(user_b)
        common = set(ratings_a) & set(ratings_b)
        if len(common) < self.min_common_items:
            return 0.0
        numerator = sum(ratings_a[i] * ratings_b[i] for i in common)
        norm_a = self._norm(user_a)
        norm_b = self._norm(user_b)
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return numerator / (norm_a * norm_b)


class JaccardRatingSimilarity(UserSimilarity):
    """Jaccard overlap of the rated-item sets (ignores the scores).

    Scores lie in ``[0, 1]``.  A cheap structural baseline used in the
    similarity ablation.
    """

    name = "ratings-jaccard"

    def __init__(self, matrix: RatingMatrix) -> None:
        self.matrix = matrix

    def similarity(self, user_a: str, user_b: str) -> float:
        if user_a == user_b:
            return 1.0
        items_a = self.matrix.item_ids_of(user_a)
        items_b = self.matrix.item_ids_of(user_b)
        union = items_a | items_b
        if not union:
            return 0.0
        return len(items_a & items_b) / len(union)
