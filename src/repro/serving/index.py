"""Precomputed peer neighbourhoods (Definition 1, served from memory).

Every group request needs, for each member, the peers above the
threshold ``δ``.  The cold pipeline recomputes them per request; the
:class:`NeighborIndex` computes each user's *uncapped* thresholded peer
list once and answers every later request by filtering.

Two properties keep the index exactly equivalent to
:class:`~repro.similarity.peers.PeerSelector`:

* rows are stored uncapped and sorted by ``(-similarity, user_id)``,
  so applying a group-exclusion filter followed by the ``max_peers``
  cap reproduces what the selector would compute against the reduced
  candidate pool;
* rows are built through the measure's (batched, possibly cached)
  :meth:`~repro.similarity.base.UserSimilarity.similarities`, whose
  scores are bit-identical to the pairwise path.

A reverse index (who lists ``u`` as a peer, with the score each row
holds) powers the targeted invalidation of :meth:`refresh_user`: after
a rating update only the touched user's row is rebuilt.  Every other
built row needs at most its one entry for that user moved; one batched
:meth:`~repro.similarity.base.UserSimilarity.similarities_to` call
scores the user against every row owner, and only the rows whose entry
moved are replaced.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable, Mapping

from ..data.ratings import RatingMatrix
from ..exec import ExecutionBackend, chunk_evenly, resolve_backend
from ..similarity.base import UserSimilarity
from ..similarity.peers import Peer

#: Per-process worker state for process-backend builds: each worker
#: holds its own index over the shipped (fork-inherited) matrix and
#: measure, and returns already-thresholded peer rows — raw O(n²)
#: score tables never cross back to the parent.
_BUILD_WORKER: "NeighborIndex | None" = None


def _peer_order(peer: Peer) -> tuple[float, str]:
    """Row order: descending similarity, ties by ascending user id."""
    return (-peer.similarity, peer.user_id)


def _init_build_worker(
    matrix: RatingMatrix, similarity: UserSimilarity, threshold: float
) -> None:
    global _BUILD_WORKER
    _BUILD_WORKER = NeighborIndex(matrix, similarity, threshold)


def _build_rows_task(user_chunk: list[str]) -> list[tuple[str, list["Peer"]]]:
    assert _BUILD_WORKER is not None
    return [
        (user_id, _BUILD_WORKER._compute_row(user_id)[0])
        for user_id in user_chunk
    ]


class NeighborIndex:
    """Per-user thresholded peer lists over a rating matrix.

    Parameters
    ----------
    matrix:
        The rating matrix whose users form the candidate pool (matching
        :meth:`PeerSelector.peers_from_matrix`).
    similarity:
        The ``simU`` measure; typically a
        :class:`~repro.serving.cache.CachedSimilarity`.
    threshold:
        The ``δ`` of Definition 1 (``simU >= δ`` qualifies).
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        similarity: UserSimilarity,
        threshold: float = 0.0,
    ) -> None:
        self.matrix = matrix
        self.similarity = similarity
        self.threshold = threshold
        # Rows are replaced, never mutated: readers hold row references
        # outside the lock.
        self._rows: dict[str, list[Peer]] = {}
        # peer id -> {row owner: the peer's similarity in that row}.
        self._reverse: dict[str, dict[str, float]] = {}
        self._lock = threading.RLock()
        self._version = 0

    # -- construction --------------------------------------------------------

    def _row_from_scores(self, scores: Mapping[str, float]) -> list[Peer]:
        """Threshold-filter and sort a score row into a peer row."""
        row = [
            Peer(user_id=candidate, similarity=score)
            for candidate, score in scores.items()
            if score >= self.threshold
        ]
        row.sort(key=_peer_order)
        return row

    def _compute_row(self, user_id: str) -> tuple[list[Peer], dict[str, float]]:
        candidates = [uid for uid in self.matrix.user_ids() if uid != user_id]
        scores = self.similarity.similarities(user_id, candidates)
        return self._row_from_scores(scores), scores

    def _store_row(self, user_id: str, row: list[Peer]) -> None:
        old = self._rows.get(user_id)
        if old is not None:
            self._unlist(user_id, old)
        self._rows[user_id] = row
        for peer in row:
            self._reverse.setdefault(peer.user_id, {})[user_id] = peer.similarity
        self._version += 1

    def _unlist(self, owner: str, row: list[Peer]) -> None:
        """Drop ``owner``'s reverse entries for every peer of ``row``."""
        for peer in row:
            self._reverse.get(peer.user_id, {}).pop(owner, None)

    def build(
        self,
        user_ids: Iterable[str] | None = None,
        backend: "ExecutionBackend | str | None" = None,
    ) -> int:
        """Eagerly index ``user_ids`` (default: every user of the matrix).

        Returns the number of rows built.  Already-indexed users are
        skipped, so repeated calls are cheap.  The missing rows fan out
        per user through ``backend``; each task thresholds its own row,
        so only peer rows (not O(users²) raw score tables) are ever
        held at once.  The rows are bit-identical for every backend,
        serial included.
        """
        targets = list(user_ids) if user_ids is not None else self.matrix.user_ids()
        with self._lock:
            seen: set[str] = set()
            missing = [
                uid
                for uid in targets
                if uid not in self._rows and not (uid in seen or seen.add(uid))
            ]
        if not missing:
            return 0
        backend = resolve_backend(backend)
        if backend.requires_pickling:
            chunks = chunk_evenly(missing, max(1, backend.workers * 4))
            row_chunks = backend.map_items(
                _build_rows_task,
                chunks,
                initializer=_init_build_worker,
                initargs=(
                    self.matrix,
                    self.similarity.picklable_measure(),
                    self.threshold,
                ),
            )
            computed = [pair for chunk in row_chunks for pair in chunk]
        else:
            rows = backend.map_items(self._computed_row, missing)
            computed = list(zip(missing, rows))
        built = 0
        with self._lock:
            for user_id, row in computed:
                if user_id in self._rows:
                    continue
                self._store_row(user_id, row)
                built += 1
        return built

    def _computed_row(self, user_id: str) -> list[Peer]:
        """:meth:`_compute_row` without the raw score table (map task)."""
        return self._compute_row(user_id)[0]

    # -- queries -------------------------------------------------------------

    def row(self, user_id: str) -> list[Peer]:
        """The full thresholded peer list of ``user_id`` (built lazily)."""
        with self._lock:
            cached = self._rows.get(user_id)
            if cached is None:
                cached, _ = self._compute_row(user_id)
                self._store_row(user_id, cached)
            return cached

    def peer_ids(self, user_id: str) -> set[str]:
        """The ids in ``user_id``'s thresholded peer list."""
        return {peer.user_id for peer in self.row(user_id)}

    def peers_excluding(
        self,
        user_id: str,
        exclude: Iterable[str] = (),
        max_peers: int | None = None,
    ) -> list[Peer]:
        """``P_u`` with some users excluded and an optional cap applied.

        Equivalent to running the peer selector against the candidate
        pool minus ``exclude`` — the row is already sorted, so filtering
        then slicing reproduces the threshold + cap semantics.
        """
        excluded = set(exclude)
        row = self.row(user_id)
        peers = [peer for peer in row if peer.user_id not in excluded]
        if max_peers is not None:
            peers = peers[:max_peers]
        return peers

    def users_with_neighbor(self, user_id: str) -> set[str]:
        """The indexed users whose peer list contains ``user_id``."""
        with self._lock:
            return set(self._reverse.get(user_id, ()))

    @property
    def built_rows(self) -> int:
        """Number of users currently indexed."""
        return len(self._rows)

    @property
    def version(self) -> int:
        """Monotonic mutation counter over the stored rows.

        Bumped whenever a row is stored, dropped or cleared.  Equal
        versions guarantee unchanged content, which is what the
        incremental per-shard snapshot save keys on; the converse does
        not hold (a rebuild to identical rows still bumps it).
        """
        with self._lock:
            return self._version

    def is_built(self, user_id: str) -> bool:
        """Whether ``user_id`` is currently indexed."""
        with self._lock:
            return user_id in self._rows

    # -- maintenance ---------------------------------------------------------

    def refresh_user(self, user_id: str) -> set[str]:
        """Rebuild one user's row and patch their entry everywhere else.

        After ``user_id``'s ratings or profile changed, ``simU(u, v)``
        changed for every ``v`` — but for each *other* built row only
        the single entry for ``u`` moves.  The row of ``u`` is rebuilt
        from scratch if it is built (an unbuilt row builds from current
        data on first read); every other built row whose entry moved is
        replaced by a patched copy (see :meth:`patch_neighbor`).

        Returns the set of users whose peer list changed (including
        ``user_id`` itself), which is exactly the set whose cached
        relevance rows the service must drop.
        """
        with self._lock:
            if user_id in self._rows:
                self.rebuild_row(user_id)
            return {user_id} | self.patch_neighbor(user_id)

    def rebuild_row(self, user_id: str) -> list[Peer]:
        """Recompute and store one user's row from current data.

        Compute and store happen under the index lock, so a concurrent
        lazy :meth:`row` build cannot interleave and resurrect a stale
        row.  Returns the new row.
        """
        with self._lock:
            row, _ = self._compute_row(user_id)
            self._store_row(user_id, row)
            return row

    def patch_neighbor(self, user_id: str) -> set[str]:
        """Re-evaluate ``user_id``'s entry in every *other* built row.

        After ``simU(·, user_id)`` changed, each built row needs only
        its single entry for ``user_id`` moved, added or removed.  One
        :meth:`~repro.similarity.base.UserSimilarity.similarities_to`
        call scores ``user_id`` against every row owner, in the owner's
        direction as the cold path computes it.  The reverse index says
        which rows hold an entry and at what score, so the old entry is
        found by bisection; a row whose entry moved is replaced by a
        patched copy and every other row is left alone.  Returns the
        owners of the rows that changed.  (Rebuilding ``user_id``'s own
        row is the caller's job — a sharded index calls this on every
        shard but rebuilds the row once, in the home shard.)
        """
        with self._lock:
            owners = [owner for owner in self._rows if owner != user_id]
            if not owners:
                return set()
            scores = self.similarity.similarities_to(user_id, owners)
            listed = self._reverse.setdefault(user_id, {})
            changed: set[str] = set()
            for owner in owners:
                new_score = scores[owner]
                old_score = listed.get(owner)
                qualifies = new_score >= self.threshold
                if old_score is None and not qualifies:
                    continue
                if qualifies and old_score == new_score:
                    continue
                patched = self._rows[owner].copy()
                if old_score is not None:
                    del patched[
                        bisect.bisect_left(
                            patched, (-old_score, user_id), key=_peer_order
                        )
                    ]
                if qualifies:
                    bisect.insort(
                        patched,
                        Peer(user_id=user_id, similarity=new_score),
                        key=_peer_order,
                    )
                    listed[owner] = new_score
                else:
                    del listed[owner]
                self._rows[owner] = patched
                changed.add(owner)
            self._version += len(changed)
            return changed

    def invalidate_user(self, user_id: str) -> None:
        """Drop one user's row (it rebuilds lazily on next access)."""
        with self._lock:
            row = self._rows.pop(user_id, None)
            if row is not None:
                self._unlist(user_id, row)
                self._version += 1

    def clear(self) -> None:
        """Drop every row."""
        with self._lock:
            if self._rows:
                self._version += 1
            self._rows.clear()
            self._reverse.clear()

    # -- persistence -----------------------------------------------------------

    def snapshot_rows(self) -> dict[str, list[Peer]]:
        """A copy of every built row (for snapshot persistence)."""
        with self._lock:
            return {uid: list(row) for uid, row in self._rows.items()}

    def load_rows(self, rows: Mapping[str, Iterable[Peer]]) -> int:
        """Replace the indexed rows with ``rows`` (snapshot restore).

        The reverse index is rebuilt from the loaded rows.  Returns the
        number of rows loaded.
        """
        with self._lock:
            if self._rows:
                # Dropping the previous rows is a content change even
                # when ``rows`` is empty — the version must move or an
                # incremental snapshot save would consider the shard
                # clean and keep the pre-load rows on disk.
                self._version += 1
            self._rows.clear()
            self._reverse.clear()
            for user_id, row in rows.items():
                self._store_row(user_id, list(row))
            return len(self._rows)
