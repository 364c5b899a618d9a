"""Unit tests for the precomputed neighbour index."""

from __future__ import annotations

import random

import pytest

from repro.config import RecommenderConfig
from repro.serving import RecommendationService
from repro.serving.index import NeighborIndex
from repro.similarity.peers import PeerSelector
from repro.similarity.ratings_sim import PearsonRatingSimilarity


def _selector_peers(matrix, user_id, threshold, exclude=(), max_peers=None):
    selector = PeerSelector(
        PearsonRatingSimilarity(matrix), threshold=threshold, max_peers=max_peers
    )
    return selector.peers_from_matrix(user_id, matrix, exclude=exclude)


class TestNeighborIndex:
    def test_rows_match_peer_selector(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        for user_id in tiny_matrix.user_ids():
            assert index.row(user_id) == _selector_peers(
                tiny_matrix, user_id, threshold=0.0
            )

    def test_rows_match_peer_selector_on_synthetic_data(self, small_dataset):
        matrix = small_dataset.ratings
        index = NeighborIndex(
            matrix, PearsonRatingSimilarity(matrix), threshold=0.15
        )
        for user_id in matrix.user_ids()[:10]:
            assert index.row(user_id) == _selector_peers(
                matrix, user_id, threshold=0.15
            )

    def test_exclusion_and_cap_match_peer_selector(self, small_dataset):
        matrix = small_dataset.ratings
        index = NeighborIndex(matrix, PearsonRatingSimilarity(matrix), threshold=0.1)
        users = matrix.user_ids()
        exclude = users[1:4]
        for user_id in users[:6]:
            expected = _selector_peers(
                matrix, user_id, threshold=0.1, exclude=exclude, max_peers=5
            )
            assert (
                index.peers_excluding(user_id, exclude, max_peers=5) == expected
            )

    def test_build_is_idempotent(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        assert index.build() == tiny_matrix.num_users
        assert index.build() == 0
        assert index.built_rows == tiny_matrix.num_users

    def test_reverse_index_tracks_memberships(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        index.build()
        for user_id in tiny_matrix.user_ids():
            holders = index.users_with_neighbor(user_id)
            for holder in holders:
                assert user_id in index.peer_ids(holder)

    def test_refresh_user_patches_other_rows(self, mutable_dataset):
        matrix = mutable_dataset.ratings
        similarity = PearsonRatingSimilarity(matrix)
        index = NeighborIndex(matrix, similarity, threshold=0.1)
        index.build()

        target = matrix.user_ids()[0]
        unrated = matrix.unrated_items(target, matrix.item_ids())
        matrix.add(target, unrated[0], 5.0)
        similarity.invalidate_cache()
        index.refresh_user(target)

        # Every row (the rebuilt one and the patched ones) must equal a
        # from-scratch recomputation on the mutated matrix.
        for user_id in matrix.user_ids():
            assert index.row(user_id) == _selector_peers(
                matrix, user_id, threshold=0.1
            ), user_id

    def test_refresh_reports_changed_rows(self, tiny_matrix):
        similarity = PearsonRatingSimilarity(tiny_matrix)
        index = NeighborIndex(tiny_matrix, similarity, threshold=0.0)
        index.build()
        tiny_matrix.add("dave", "i1", 5.0)
        tiny_matrix.add("dave", "i2", 4.0)
        similarity.invalidate_cache()
        changed = index.refresh_user("dave")
        assert "dave" in changed
        # dave now co-rates i1/i2 with alice, so alice's row gained him.
        assert "alice" in changed
        assert "dave" in index.peer_ids("alice")

    def test_invalidate_user_rebuilds_lazily(self, tiny_matrix):
        index = NeighborIndex(
            tiny_matrix, PearsonRatingSimilarity(tiny_matrix), threshold=0.0
        )
        index.build()
        index.invalidate_user("alice")
        assert not index.is_built("alice")
        assert index.row("alice") == _selector_peers(
            tiny_matrix, "alice", threshold=0.0
        )


class TestPatchParity:
    """After any sequence of writes, every built row and reverse entry
    equals a freshly built index over the same matrix, bit for bit."""

    @pytest.mark.parametrize("threshold", [0.2, -1.0])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("kernel", ["packed", "dict"])
    def test_patched_index_equals_fresh_build(
        self, mutable_dataset, kernel, shards, threshold
    ):
        config = RecommenderConfig(
            kernel=kernel, index_shards=shards, peer_threshold=threshold
        )
        service = RecommendationService(mutable_dataset, config)
        matrix = service.matrix
        users = matrix.user_ids()
        items = matrix.item_ids()
        rng = random.Random(5)
        service.index.build(rng.sample(users, 25))
        patched_rows = 0
        for step in range(30):
            # Built and unbuilt users alike, plus one brand-new user.
            user_id = "newcomer" if step == 10 else rng.choice(users)
            value = float(rng.randint(1, 5))
            changed = service.ingest_rating(user_id, rng.choice(items), value)
            patched_rows += len(changed - {user_id})
        assert patched_rows > 0

        rows = service.index.snapshot_rows()
        fresh = NeighborIndex(
            matrix,
            PearsonRatingSimilarity(matrix, kernel=kernel).with_private_packed(),
            threshold,
        )
        fresh.build(rows)
        assert fresh.snapshot_rows() == rows
        for user_id in matrix.user_ids():
            assert service.index.users_with_neighbor(
                user_id
            ) == fresh.users_with_neighbor(user_id), user_id
