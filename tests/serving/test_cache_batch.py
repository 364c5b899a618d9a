"""``ScoreCache.get_many`` / ``put_many``: one lock round trip, same semantics.

Each batched call must leave the cache — entries, LRU order and every
counter — exactly where the equivalent run of single ``get`` / ``put``
calls would.
"""

from __future__ import annotations

import random

import pytest

from repro.serving.cache import CachedSimilarity, ScoreCache
from repro.similarity.base import PrecomputedSimilarity


def snapshot(cache: ScoreCache) -> tuple:
    """Entries in LRU order (oldest first) plus every counter."""
    return list(cache._entries.items()), cache.stats.as_dict()


class TestBatchedEqualsSingle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_histories_agree(self, seed):
        rng = random.Random(seed)
        batched = ScoreCache(capacity=6)
        single = ScoreCache(capacity=6)
        for _ in range(60):
            keys = [rng.randrange(12) for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.5:
                got = batched.get_many(keys, default="miss")
                want = [single.get(key, "miss") for key in keys]
                assert got == want
            else:
                items = [(key, rng.random()) for key in keys]
                batched.put_many(items)
                for key, value in items:
                    single.put(key, value)
            assert snapshot(batched) == snapshot(single)
        stats = batched.stats
        assert stats.hits and stats.misses and stats.evictions

    def test_get_many_refreshes_recency_in_key_order(self):
        cache = ScoreCache(capacity=3)
        cache.put_many([("a", 1), ("b", 2), ("c", 3)])
        assert cache.get_many(["b", "a", "zz"]) == [2, 1, None]
        assert list(cache._entries) == ["c", "b", "a"]
        cache.put_many([("d", 4)])  # evicts the least recent: "c"
        assert list(cache._entries) == ["b", "a", "d"]
        assert cache.stats.evictions == 1

    def test_put_many_is_discarded_after_an_invalidation(self):
        cache = ScoreCache(capacity=8)
        epoch = cache.epoch
        assert cache.get_many(["a", "b"]) == [None, None]
        cache.invalidate("unrelated")  # lands between probe and store
        cache.put_many([("a", 1), ("b", 2)], epoch=epoch)
        assert len(cache) == 0
        cache.put_many([("a", 1), ("b", 2)], epoch=cache.epoch)
        assert cache.get_many(["a", "b"]) == [1, 2]

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_capacity_bypasses(self, capacity):
        cache = ScoreCache(capacity=capacity)
        cache.put_many([("a", 1), ("b", 2)])
        assert len(cache) == 0
        assert cache.get_many(["a", "b", "c"], default=-1) == [-1, -1, -1]
        assert cache.get_many([]) == []
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 3, 0)


class _InvalidatingInner(PrecomputedSimilarity):
    """An inner measure whose batch lands an invalidation mid-compute."""

    def __init__(self, scores: dict, cache: ScoreCache) -> None:
        super().__init__(scores)
        self.cache = cache

    def similarities(self, user_id, candidates):
        self.cache.invalidate(("someone", "else"))
        return super().similarities(user_id, candidates)


class TestCachedSimilarityBatch:
    SCORES = {("a", "b"): 0.8, ("a", "c"): 0.3}

    def test_cold_then_warm_counts_one_probe_per_pair(self):
        cache = ScoreCache(capacity=16)
        sim = CachedSimilarity(PrecomputedSimilarity(self.SCORES), cache)
        cold = sim.similarities("a", ["b", "c", "d", "a"])
        assert cold == {"b": 0.8, "c": 0.3, "d": 0.0}
        assert (cache.stats.hits, cache.stats.misses) == (0, 3)
        assert sim.similarities("a", ["d", "b", "c"]) == {"d": 0.0, "b": 0.8, "c": 0.3}
        assert (cache.stats.hits, cache.stats.misses) == (3, 3)

    def test_scores_computed_across_an_invalidation_are_not_stored(self):
        cache = ScoreCache(capacity=16)
        sim = CachedSimilarity(_InvalidatingInner(self.SCORES, cache), cache)
        assert sim.similarities("a", ["b", "c"]) == {"b": 0.8, "c": 0.3}
        assert ("a", "b") not in cache and ("a", "c") not in cache
