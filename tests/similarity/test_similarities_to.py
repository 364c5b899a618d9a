"""``similarities_to`` equals the owner-direction per-pair loop exactly.

The neighbour index patches a user's entry into every built row with one
``similarities_to(user, owners)`` call, so its scores must be the ones
the rows were built with: ``simU(owner, user)``, bit for bit.
"""

from __future__ import annotations

import pytest

from repro.config import KNOWN_SIMILARITIES, RecommenderConfig
from repro.core.pipeline import build_similarity
from repro.serving.cache import CachedSimilarity, ScoreCache


def _owner_loop(measure, user_id, owners):
    return {owner: measure.similarity(owner, user_id) for owner in owners if owner != user_id}


@pytest.mark.parametrize("kernel", ["packed", "dict"])
@pytest.mark.parametrize("name", KNOWN_SIMILARITIES)
def test_similarities_to_matches_owner_direction_loop(small_dataset, name, kernel):
    config = RecommenderConfig(similarity=name, kernel=kernel)
    measure = build_similarity(small_dataset, config)
    owners = small_dataset.ratings.user_ids()
    for user_id in owners[:8]:
        expected = _owner_loop(measure, user_id, owners)
        assert measure.similarities_to(user_id, owners) == expected
        cached = CachedSimilarity(measure, ScoreCache(1000))
        assert cached.similarities_to(user_id, owners) == expected
