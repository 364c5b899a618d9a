"""The numpy kernels against the dict oracle, compared with ``==``.

Bit-identity rests on one numpy property: ``np.bincount`` adds each
bin's weights one at a time, in input order.  The guard test pins it on
a weight sequence where any other summation order gives another float;
the parity tests cover the edge cases of Equations 1 and 2 one by one.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import RecommenderConfig
from repro.core.relevance import predict_table, rank_items
from repro.data.datasets import generate_dataset
from repro.data.ratings import RatingMatrix
from repro.kernels import (
    PackedRatings,
    pearson_one_vs_many,
    pearson_pair,
    predict_row_packed,
    predict_table_packed,
    predict_topk_packed,
)
from repro.serving import RecommendationService
from repro.similarity.ratings_sim import PearsonRatingSimilarity


def random_matrix(seed: int, users: int = 16, items: int = 20) -> RatingMatrix:
    rng = random.Random(seed)
    matrix = RatingMatrix()
    for u in range(users):
        for i in rng.sample(range(items), rng.randint(1, items - 1)):
            matrix.add(f"u{u}", f"i{i}", float(rng.randint(1, 5)))
    return matrix


def oracle_row(
    matrix: RatingMatrix, user_id: str, peers: dict, default_score=None
) -> dict[str, float]:
    """The dict path's relevance row: Equation 1 over every unrated item."""
    candidates = matrix.unrated_items(user_id, matrix.item_ids())
    return predict_table(matrix, user_id, peers, candidates, default_score)


def sequential_sum(weights: list[float]) -> float:
    total = 0.0
    for weight in weights:
        total += weight
    return total


class TestBincountOrder:
    def test_bincount_sums_each_bin_sequentially(self):
        # 1.0 + 2**-53 rounds back to 1.0 every time, so a left-to-right
        # sum stays at 1.0, while pairwise (np.sum) or compensated
        # summation adds the small terms up first and lands above it.
        weights = [1.0] + [2.0**-53] * 200
        assert sequential_sum(weights) == 1.0
        assert float(np.sum(weights)) != 1.0
        bins = np.zeros(len(weights), dtype=np.int64)
        assert np.bincount(bins, weights, 1)[0] == sequential_sum(weights)

    def test_bincount_keeps_input_order_within_interleaved_bins(self):
        rng = random.Random(5)
        weights = [rng.choice([1.0, 2.0**-53, -0.75, 1e16, 3.3]) for _ in range(600)]
        bins = [rng.randrange(3) for _ in weights]
        got = np.bincount(np.array(bins), np.array(weights), 3).tolist()
        want = [
            sequential_sum([w for w, b in zip(weights, bins) if b == bin_int])
            for bin_int in range(3)
        ]
        assert got == want


class TestPearsonParity:
    @pytest.mark.parametrize("min_common", [1, 3, 6])
    @pytest.mark.parametrize("common_mean", [False, True])
    def test_batched_rows_match_oracle(self, min_common, common_mean):
        matrix = random_matrix(41)
        oracle = PearsonRatingSimilarity(
            matrix, min_common, mean_over_common_only=common_mean, kernel="dict"
        )
        packed = PackedRatings(matrix)
        users = matrix.user_ids()
        for user_id in users:
            got = pearson_one_vs_many(packed, user_id, users, min_common, common_mean)
            assert got == oracle.similarities(user_id, users)
            assert all(type(score) is float for score in got.values())

    def test_zero_variance_rows_score_zero(self):
        matrix = RatingMatrix(
            [("flat", "x", 3.0), ("flat", "y", 3.0), ("flat", "z", 3.0)]
            + [("b", "x", 1.0), ("b", "y", 5.0), ("b", "z", 2.0)]
            + [("c", "x", 4.0), ("c", "y", 4.0)]
        )
        oracle = PearsonRatingSimilarity(matrix, kernel="dict")
        packed = PackedRatings(matrix)
        users = matrix.user_ids()
        for user_id in users:
            assert pearson_one_vs_many(packed, user_id, users) == oracle.similarities(
                user_id, users
            )
        assert pearson_one_vs_many(packed, "flat", users) == {"b": 0.0, "c": 0.0}
        assert pearson_pair(packed, "b", "flat") == 0.0

    def test_unknown_users_and_candidates(self):
        matrix = random_matrix(42)
        oracle = PearsonRatingSimilarity(matrix, kernel="dict")
        packed = PackedRatings(matrix)
        candidates = ["ghost"] + matrix.user_ids() + ["phantom"]
        for user_id in ("ghost", matrix.user_ids()[0]):
            assert pearson_one_vs_many(
                packed, user_id, candidates
            ) == oracle.similarities(user_id, candidates)
        assert pearson_pair(packed, "ghost", matrix.user_ids()[0]) == 0.0


class TestEquation1Parity:
    def test_empty_peer_set(self):
        matrix = random_matrix(43)
        packed = PackedRatings(matrix)
        user_id = matrix.user_ids()[0]
        assert predict_row_packed(packed, user_id, {}) == {}
        assert predict_row_packed(packed, user_id, {}, 2.5) == oracle_row(
            matrix, user_id, {}, 2.5
        )
        assert predict_topk_packed(packed, user_id, {}, 5) == []

    def test_unknown_user_peers_and_items(self):
        matrix = random_matrix(44)
        packed = PackedRatings(matrix)
        peers = {"ghost-peer": 0.9, matrix.user_ids()[1]: 0.4}
        candidates = ["unknown-item"] + matrix.item_ids()
        for user_id in ("nobody", matrix.user_ids()[0]):
            assert predict_row_packed(packed, user_id, peers) == oracle_row(
                matrix, user_id, peers
            )
            for default_score in (None, 1.5):
                assert predict_table_packed(
                    packed, user_id, peers, candidates, default_score
                ) == predict_table(matrix, user_id, peers, candidates, default_score)

    def test_zero_similarity_mass_and_default_score(self):
        # b and c rate y; their similarities cancel exactly.
        matrix = RatingMatrix(
            [("a", "x", 4.0), ("b", "y", 2.0), ("c", "y", 3.0), ("b", "z", 5.0)]
        )
        packed = PackedRatings(matrix)
        peers = {"b": 1.0, "c": -1.0}
        for default_score in (None, 0.0, 2.5):
            got = predict_row_packed(packed, "a", peers, default_score)
            assert got == oracle_row(matrix, "a", peers, default_score)
        assert predict_row_packed(packed, "a", peers) == {"z": 5.0}

    @pytest.mark.parametrize("seed", [3, 19])
    def test_topk_tie_break_matches_rank_items(self, seed):
        # Integer ratings and unit similarities make many exact ties.
        matrix = random_matrix(seed, users=30, items=25)
        packed = PackedRatings(matrix)
        rng = random.Random(seed)
        for user_id in matrix.user_ids()[:8]:
            peers = {p: 1.0 for p in rng.sample(matrix.user_ids(), 5)}
            peers.pop(user_id, None)
            row = oracle_row(matrix, user_id, peers)
            for k in (1, 3, 7, len(row), len(row) + 4):
                want = [(s.item_id, s.score) for s in rank_items(row, k)]
                assert predict_topk_packed(packed, user_id, peers, k) == want

    def test_rows_after_incremental_repack(self):
        matrix = random_matrix(45)
        packed = PackedRatings(matrix)
        rng = random.Random(45)
        for _ in range(10):
            user_id = f"u{rng.randrange(18)}"  # includes brand-new users
            matrix.add(user_id, f"i{rng.randrange(23)}", float(rng.randint(1, 5)))
            packed.mark_dirty(user_id)
            peers = {p: rng.uniform(-1.0, 1.0) for p in matrix.user_ids()[:6]}
            for target in matrix.user_ids()[:4]:
                assert predict_row_packed(packed, target, peers) == oracle_row(
                    matrix, target, peers
                )


class TestSpillBackedParity:
    def test_kernels_before_and_after_first_mutation(self, tmp_path):
        matrix = random_matrix(46)
        PackedRatings(matrix).save(tmp_path)
        view = PackedRatings.open_mmap(tmp_path, matrix)
        oracle = PearsonRatingSimilarity(matrix, kernel="dict")
        users = matrix.user_ids()
        peers = {p: 0.5 + i / 10 for i, p in enumerate(users[1:6])}

        def check() -> None:
            for user_id in users:
                assert pearson_one_vs_many(view, user_id, users) == (
                    oracle.similarities(user_id, users)
                )
            assert predict_row_packed(view, users[0], peers) == oracle_row(
                matrix, users[0], peers
            )

        assert view.spill_backed
        assert not view.indices.flags.writeable
        check()
        matrix.add(users[2], "i-new", 4.0)
        view.mark_dirty(users[2])
        oracle.invalidate_user(users[2])
        check()
        assert not view.spill_backed


class TestServiceParity:
    """Packed-kernel services answer exactly like dict-kernel ones."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"peer_threshold": -1.0},  # mixed-sign peers, cancelling mass
            {"max_peers": 3},  # a small bounded peer set
        ],
    )
    def test_relevance_rows_match_dict_kernel(self, overrides):
        dataset = generate_dataset(
            num_users=40, num_items=30, ratings_per_user=8, seed=23
        )
        services = {
            kernel: RecommendationService(
                dataset, RecommenderConfig(kernel=kernel, **overrides)
            )
            for kernel in ("packed", "dict")
        }
        try:
            users = dataset.ratings.user_ids()
            for user_id in users:
                assert services["packed"].relevance_row(user_id) == services[
                    "dict"
                ].relevance_row(user_id)
            for service in services.values():
                service.ingest_rating(users[0], dataset.ratings.item_ids()[-1], 2.0)
            for user_id in users:
                assert services["packed"].relevance_row(user_id) == services[
                    "dict"
                ].relevance_row(user_id)
        finally:
            for service in services.values():
                service.close()
