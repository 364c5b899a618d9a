"""The packed CSR representation: layout, interning, repack lifecycle."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.data.ratings import RatingMatrix
from repro.kernels import PackedRatings, get_packed


def random_matrix(seed: int, users: int = 12, items: int = 18) -> RatingMatrix:
    rng = random.Random(seed)
    matrix = RatingMatrix()
    for u in range(users):
        for i in rng.sample(range(items), rng.randint(1, items - 1)):
            matrix.add(f"u{u}", f"i{i}", float(rng.randint(1, 5)))
    return matrix


def row_of(packed: PackedRatings, user_int: int, flat) -> list:
    """User int ``user_int``'s slice of the flat CSR array ``flat``."""
    return flat[packed.indptr[user_int] : packed.indptr[user_int + 1]].tolist()


def raters_of(packed: PackedRatings, item_int: int) -> dict[int, float]:
    """Item int ``item_int``'s inverted-index slice as ``{rater: value}``."""
    start, end = packed.inv_ptr[item_int], packed.inv_ptr[item_int + 1]
    return dict(
        zip(packed.inv_users[start:end].tolist(), packed.inv_values[start:end].tolist())
    )


def assert_packed_matches_matrix(packed: PackedRatings) -> None:
    """The packed arrays mirror the matrix exactly (rows, means, inverse)."""
    matrix = packed.matrix
    assert packed.user_ids == matrix.user_ids()
    assert packed.item_ids == matrix.item_ids()
    assert packed._num_ratings == matrix.num_ratings
    assert len(packed.indptr) == matrix.num_users + 1
    assert len(packed.inv_ptr) == matrix.num_items + 1
    for user_id in matrix.user_ids():
        u = packed.user_index[user_id]
        row = matrix.items_of(user_id)
        expected = sorted(
            (packed.item_index[item_id], value) for item_id, value in row.items()
        )
        assert row_of(packed, u, packed.indices) == [item for item, _ in expected]
        assert row_of(packed, u, packed.values) == [value for _, value in expected]
        assert packed.means[u] == sum(row.values()) / len(row)
        assert row_of(packed, u, packed.devs) == [
            value - float(packed.means[u]) for _, value in expected
        ]
    for item_id in matrix.item_ids():
        i = packed.item_index[item_id]
        raters = matrix.users_of(item_id)
        got = {
            packed.user_ids[user_int]: value
            for user_int, value in raters_of(packed, i).items()
        }
        assert got == raters


def assert_same_packing(incremental: PackedRatings, fresh: PackedRatings) -> None:
    """Incrementally-repacked state equals a from-scratch rebuild, array for array."""
    assert incremental.user_ids == fresh.user_ids
    assert incremental.item_ids == fresh.item_ids
    for name in (
        "indptr", "indices", "values", "devs", "means",
        "inv_ptr", "inv_users", "inv_values",
    ):
        got = getattr(incremental, name)
        want = getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name


class TestLayout:
    def test_initial_packing_mirrors_matrix(self):
        packed = PackedRatings(random_matrix(1))
        assert_packed_matches_matrix(packed)

    def test_rows_sorted_by_interned_item_id(self):
        packed = PackedRatings(random_matrix(2))
        for u in range(packed.num_users):
            items = row_of(packed, u, packed.indices)
            assert items == sorted(items)

    def test_interning_follows_insertion_order(self):
        matrix = RatingMatrix([("b", "z", 3.0), ("a", "y", 4.0), ("a", "z", 2.0)])
        packed = PackedRatings(matrix)
        assert packed.user_ids == ["b", "a"]
        assert packed.item_ids == ["z", "y"]

    def test_registry_shares_one_view_per_matrix(self):
        matrix = random_matrix(3)
        assert get_packed(matrix) is get_packed(matrix)
        other = random_matrix(3)
        assert get_packed(matrix) is not get_packed(other)


class TestRepackLifecycle:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_incremental_repack_matches_full_rebuild(self, seed):
        matrix = random_matrix(seed)
        packed = PackedRatings(matrix)
        rng = random.Random(seed * 13)
        for _ in range(20):
            user = f"u{rng.randrange(14)}"   # includes brand-new users
            item = f"i{rng.randrange(22)}"   # includes brand-new items
            matrix.add(user, item, float(rng.randint(1, 5)))
            packed.mark_dirty(user)
            packed.ensure_current()
            assert_packed_matches_matrix(packed)
            assert_same_packing(packed, PackedRatings(matrix))

    def test_overwrite_repacks_value_and_deviations(self):
        matrix = RatingMatrix([("a", "x", 1.0), ("a", "y", 5.0), ("b", "x", 3.0)])
        packed = PackedRatings(matrix)
        matrix.add("a", "x", 4.0)
        packed.mark_dirty("a")
        packed.ensure_current()
        assert_packed_matches_matrix(packed)

    def test_removal_triggers_full_rebuild(self):
        matrix = random_matrix(7)
        packed = PackedRatings(matrix)
        victim_item = matrix.item_ids_of("u0").pop()
        matrix.remove("u0", victim_item)
        packed.mark_dirty("u0")
        packed.ensure_current()
        assert_packed_matches_matrix(packed)

    def test_item_removed_and_readded_reinterns(self):
        # Removing the only rating of an item deletes it from the
        # matrix; re-adding it later appends it at the *end* of the
        # insertion order.  The packed view must follow (full rebuild),
        # or its canonical summation order diverges from the oracle's.
        matrix = RatingMatrix(
            [("a", "x", 2.0), ("a", "y", 3.0), ("b", "y", 4.0)]
        )
        packed = PackedRatings(matrix)
        assert packed.item_ids == ["x", "y"]
        matrix.remove("a", "x")
        matrix.add("b", "x", 5.0)
        packed.mark_dirty("a")
        packed.mark_dirty("b")
        packed.ensure_current()
        assert packed.item_ids == matrix.item_ids() == ["y", "x"]
        assert_packed_matches_matrix(packed)

    def test_user_removed_entirely_rebuilds(self):
        matrix = RatingMatrix(
            [("a", "x", 2.0), ("b", "x", 3.0), ("b", "y", 4.0)]
        )
        packed = PackedRatings(matrix)
        matrix.remove("a", "x")
        packed.mark_dirty("a")
        packed.ensure_current()
        assert "a" not in packed.user_index
        assert_packed_matches_matrix(packed)

    def test_unmarked_mutation_falls_back_to_rebuild(self):
        matrix = random_matrix(9)
        packed = PackedRatings(matrix)
        matrix.add("u0", "i_new", 5.0)   # no mark_dirty call at all
        packed.ensure_current()
        assert_packed_matches_matrix(packed)

    def test_partially_marked_mutations_fall_back_to_rebuild(self):
        matrix = random_matrix(10)
        packed = PackedRatings(matrix)
        matrix.add("u0", "i_fresh_0", 5.0)
        matrix.add("u1", "i_fresh_1", 4.0)
        packed.mark_dirty("u0")          # u1's add was never marked
        packed.ensure_current()
        assert_packed_matches_matrix(packed)

    def test_spurious_dirty_marks_are_cheap_noops(self):
        matrix = random_matrix(11)
        packed = PackedRatings(matrix)
        version = packed._version
        packed.mark_dirty("u0")
        packed.mark_dirty("ghost")
        packed.ensure_current()          # no matrix mutation happened
        assert packed._version == version
        assert_packed_matches_matrix(packed)

    def test_dirty_ghost_user_is_skipped(self):
        matrix = random_matrix(12)
        packed = PackedRatings(matrix)
        matrix.add("u0", "i0", 3.0)
        packed.mark_dirty("u0")
        packed.mark_dirty("never-rated-anything")
        packed.ensure_current()
        assert_packed_matches_matrix(packed)

    def test_mark_all_dirty_forces_rebuild(self):
        matrix = random_matrix(13)
        packed = PackedRatings(matrix)
        matrix.add("u0", "i0", 2.0)      # unmarked…
        packed.mark_all_dirty()          # …but a full refresh was requested
        packed.ensure_current()
        assert_packed_matches_matrix(packed)


class TestEdgeCases:
    def test_empty_matrix_packs(self):
        packed = PackedRatings(RatingMatrix())
        assert packed.num_users == 0
        assert packed.num_items == 0

    def test_single_rating_matrix(self):
        packed = PackedRatings(RatingMatrix([("a", "x", 3.0)]))
        assert packed.means.tolist() == [3.0]
        assert packed.devs.tolist() == [0.0]

    def test_pickle_round_trips_as_rebuild_recipe(self):
        matrix = random_matrix(15)
        packed = PackedRatings(matrix)
        clone = pickle.loads(pickle.dumps(packed))
        assert clone.user_ids == packed.user_ids
        assert clone.item_ids == packed.item_ids
        assert_same_packing(clone, packed)

    def test_concurrent_ensure_current_repacks_exactly_once(self):
        """Batch serving calls the kernels from many reader threads at
        once; racing ensure_current() after a mutation must not extend
        the interning tables twice."""
        import threading

        matrix = random_matrix(16)
        packed = PackedRatings(matrix)
        matrix.add("brand-new-user", "brand-new-item", 5.0)
        packed.mark_dirty("brand-new-user")
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            packed.ensure_current()

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert packed.user_ids.count("brand-new-user") == 1
        assert packed.item_ids.count("brand-new-item") == 1
        assert_packed_matches_matrix(packed)

    def test_concurrent_kernel_reads_survive_full_rebuilds(self):
        """Concurrent readers racing ensure_current after a
        mark_all_dirty must serialise on the repack: unlocked, several
        threads entered rebuild() together and readers indexed into
        half-built interning tables (IndexError, or silently wrong
        scores).  Mutations themselves happen with readers drained —
        the service's read/write lock guarantees that — so the race
        under test is readers-vs-readers, not readers-vs-mutator.

        Non-vacuous: with the repack lock removed (and this switch
        interval) the same harness raises IndexError and produces
        dozens of silently wrong rows."""
        import sys
        import threading

        from repro.kernels import pearson_one_vs_many

        matrix = random_matrix(18, users=150, items=60)
        packed = PackedRatings(matrix)
        users = matrix.user_ids()
        probes = users[:12]
        expected = {
            user_id: pearson_one_vs_many(packed, user_id, users)
            for user_id in probes
        }
        errors: list[BaseException] = []

        def reader(offset: int, barrier: threading.Barrier) -> None:
            barrier.wait()
            try:
                for index in range(4):
                    user_id = probes[(offset + index) % len(probes)]
                    row = pearson_one_vs_many(packed, user_id, users)
                    assert row == expected[user_id]
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # widen the interleaving window
        try:
            for round_number in range(8):
                # A version-bumping overwrite keeps every score
                # constant but forces a full rebuild on the next
                # kernel call.
                item_id = sorted(matrix.item_ids_of("u0"))[0]
                matrix.add("u0", item_id, matrix.items_of("u0")[item_id])
                packed.mark_all_dirty()
                barrier = threading.Barrier(6)
                threads = [
                    threading.Thread(target=reader, args=(i, barrier))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert not errors, errors
        finally:
            sys.setswitchinterval(interval)
        assert_packed_matches_matrix(packed)
