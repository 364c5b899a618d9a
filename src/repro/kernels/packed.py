"""Packed, integer-interned CSR view of a :class:`RatingMatrix`.

The dict-of-dicts :class:`~repro.data.ratings.RatingMatrix` is the right
shape for mutation and for the paper-faithful oracle code, and the wrong
shape for the similarity/prediction inner loops: every pair score hashes
strings, builds throwaway sets and recomputes means.  This module packs
the same data into flat numpy arrays once and lets the kernels in
:mod:`repro.kernels.pearson` / :mod:`repro.kernels.relevance` run over
integers:

* **interning tables** — user and item ids are mapped to dense ints in
  the matrix's *insertion order* (``matrix.user_ids()`` /
  ``matrix.item_ids()``), so the ascending-int order of a packed row is
  exactly the canonical co-rated summation order the dict oracle uses
  (see :class:`~repro.similarity.ratings_sim.PearsonRatingSimilarity`);
* **CSR rows** — ``indptr`` (per user, ``num_users + 1`` offsets) over
  ``indices`` (item ints, ascending within each row), with parallel
  ``values`` (raw ratings) and ``devs`` (centered deviations,
  ``value - μ_u``), plus the per-user ``means``;
* **an inverted index** — ``inv_ptr`` (per item) over ``inv_users``
  (rater ints) and their raw ``inv_values``, powering the one-vs-many
  Pearson sweep without per-item dict copies.

Packing is cheap (one pass over the ratings plus two C-speed sorts) but
not free, so packed views are shared per matrix (:func:`get_packed`)
and kept current incrementally: the serving layer marks users dirty as
it mutates the matrix (:meth:`PackedRatings.mark_dirty`) and the next
kernel call re-reads only those rows from the matrix and splices them
into fresh flat arrays (:meth:`PackedRatings.ensure_current`).  Any
mutation the packed view was *not* told about — a removal, or a version
move with no dirty marks — falls back to a full rebuild, so results
stay correct (just slower) for out-of-band mutation patterns.

**Contract** (same as the Pearson mean cache): callers that mutate the
matrix directly must call the owning measure's ``invalidate_user`` (or
:meth:`PackedRatings.mark_dirty`) for every touched user before the
next kernel call.  The serving layer's ``ingest_rating`` /
``update_profile`` paths do this; the one unsupported pattern is
overwriting a rating of user A directly while only marking user B.
"""

from __future__ import annotations

import threading
import time
import weakref
from itertools import islice

import numpy as np

from ..data.ratings import RatingMatrix
from ..obs import get_registry, is_enabled

#: dtypes of the packed arrays (and of the spill files that mirror them).
INT_DTYPE = np.dtype(np.int64)
FLOAT_DTYPE = np.dtype(np.float64)


def _observe_repack(kind: str, started: float) -> None:
    """Record one hot-path repack into the default metrics registry.

    ``packed_repacks{kind=full|incremental}`` counts the events and
    ``repack_ms{kind=...}`` times them; the constructor's initial build
    is deliberately not counted — it is a build, not a re-pack.
    """
    if not is_enabled():
        return
    registry = get_registry()
    registry.observe(
        "repack_ms", (time.perf_counter() - started) * 1000.0, kind=kind
    )
    registry.inc("packed_repacks", kind=kind)

#: Shared packed views, one per live matrix (keyed by matrix identity).
#: Both sides are weak — the value holds the matrix strongly, so a
#: strong value reference here would pin the entry forever.  Consumers
#: (the similarity measure, the serving layer) hold the view strongly
#: for as long as they need it.
_REGISTRY: "weakref.WeakKeyDictionary[RatingMatrix, weakref.ref[PackedRatings]]" = (
    weakref.WeakKeyDictionary()
)


def get_packed(matrix: RatingMatrix) -> "PackedRatings":
    """The shared :class:`PackedRatings` view of ``matrix``.

    Views are cached per matrix *identity* (weakly, so a dropped matrix
    frees its packed arrays): the similarity measure, the neighbour
    index and the serving layer all read — and dirty-mark — the same
    packed state.
    """
    ref = _REGISTRY.get(matrix)
    packed = ref() if ref is not None else None
    if packed is None:
        packed = PackedRatings(matrix)
        _REGISTRY[matrix] = weakref.ref(packed)
    return packed


def attach_spill(matrix: RatingMatrix, directory) -> "PackedRatings":
    """Bind ``matrix``'s shared packed view to the spill at ``directory``.

    Tries :meth:`PackedRatings.open_mmap` and registers the mmap-backed
    view as the matrix's shared view, so every later
    :func:`get_packed` caller (the similarity measure, the serving
    layer) reads the mapped arrays.  Any :class:`SpillError` or OS
    failure falls back to the ordinary in-memory rebuild recipe —
    correctness never depends on a spill being present.  The outcome is
    counted as ``packed_spill_opens{outcome="mmap"|"fallback"}``.
    """
    from .spill import SpillError

    try:
        packed = PackedRatings.open_mmap(directory, matrix)
        outcome = "mmap"
    except (SpillError, OSError):
        packed = get_packed(matrix)
        outcome = "fallback"
    else:
        _REGISTRY[matrix] = weakref.ref(packed)
    if is_enabled():
        get_registry().inc("packed_spill_opens", outcome=outcome)
    return packed


def csr_offsets(keys: np.ndarray, count: int) -> np.ndarray:
    """CSR offsets (``count + 1`` entries) of the grouped ``keys`` array."""
    offsets = np.zeros(count + 1, dtype=INT_DTYPE)
    np.cumsum(np.bincount(keys, minlength=count), out=offsets[1:])
    return offsets


def csr_gather(
    indptr: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the CSR slices ``keys`` name, concatenated in key order.

    Returns ``(positions, lengths)``: ``positions`` indexes the flat
    arrays behind ``indptr``; ``lengths[k]`` is the size of the slice
    of ``keys[k]``.  One vectorised expansion, no Python loop.
    """
    starts = indptr[keys]
    lengths = indptr[keys + 1] - starts
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    # Each position is its slice's start plus its offset in the slice.
    positions = np.arange(total, dtype=INT_DTYPE) + np.repeat(
        starts - (ends - lengths), lengths
    )
    return positions, lengths


class PackedRatings:
    """Flat CSR mirror of one :class:`RatingMatrix` (see module docs).

    User int ``u`` owns positions ``indptr[u]:indptr[u + 1]`` of
    ``indices`` / ``values`` / ``devs`` and ``means[u]``; item int
    ``i`` owns positions ``inv_ptr[i]:inv_ptr[i + 1]`` of
    ``inv_users`` / ``inv_values``.  The arrays are never written in
    place — every repack assigns fresh ones — so they are safe to read
    (and may be read-only ``mmap`` views, see :meth:`open_mmap`).
    Mutate the underlying matrix and call :meth:`mark_dirty` /
    :meth:`ensure_current` instead.
    """

    def __init__(self, matrix: RatingMatrix) -> None:
        self.matrix = matrix
        self._dirty: set[str] = set()
        self._stale = True  # force the initial full build
        self._spill_backed = False
        self._spill_dir: str | None = None
        # Serialises repacks: batch serving runs kernel calls as
        # concurrent readers, and two threads racing ensure_current()
        # after a mutation would both extend the interning tables.
        # Reentrant because the locked ensure_current/_repack_dirty
        # paths escalate to rebuild(), which locks on its own behalf
        # for direct callers.
        self._repack_lock = threading.RLock()
        self.rebuild()

    # -- construction --------------------------------------------------------

    def rebuild(self) -> None:
        """Re-derive every packed structure from the current matrix."""
        with self._repack_lock:
            self._rebuild()

    def _rebuild(self) -> None:
        matrix = self.matrix
        self.user_ids: list[str] = matrix.user_ids()
        self.user_index: dict[str, int] = {
            user_id: index for index, user_id in enumerate(self.user_ids)
        }
        self.item_ids: list[str] = matrix.item_ids()
        self.item_index: dict[str, int] = {
            item_id: index for index, item_id in enumerate(self.item_ids)
        }
        rows, items, values, means = self._read_rows(range(len(self.user_ids)))
        self._pack(rows, items, values, np.array(means, dtype=FLOAT_DTYPE))

    def _read_rows(
        self, user_ints
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
        """The matrix rows of ``user_ints`` as flat (rows, items, values, means).

        Entries come out in each row's insertion order; :meth:`_pack`
        sorts them.  Each mean is accumulated in that order — the
        identical operation sequence :meth:`RatingMatrix.mean_rating`
        performs — so packed means and deviations are bit-equal to what
        the dict oracle computes.
        """
        matrix = self.matrix
        user_ids = self.user_ids
        lengths: list[int] = []
        means: list[float] = []
        keys: list[str] = []
        raw: list[float] = []
        for user_int in user_ints:
            row = matrix.items_of(user_ids[user_int])
            lengths.append(len(row))
            means.append(sum(row.values()) / len(row) if row else 0.0)
            keys.extend(row)
            raw.extend(row.values())
        rows = np.repeat(np.asarray(user_ints, dtype=INT_DTYPE), lengths)
        items = np.fromiter(
            map(self.item_index.__getitem__, keys), dtype=INT_DTYPE, count=len(keys)
        )
        return rows, items, np.array(raw, dtype=FLOAT_DTYPE), means

    def _pack(
        self,
        rows: np.ndarray,
        items: np.ndarray,
        values: np.ndarray,
        means: np.ndarray,
        inverted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Sort flat (row, item, value) entries into the CSR + inverted layout.

        ``inverted`` gives the inverted index's own (user, item, value)
        entries; by default they are the CSR entries.  Both sorts are
        stable (timsort), which merges already-sorted runs in linear
        time: an incremental repack passes the untouched entries in
        their packed order followed by the few re-read ones, so a write
        never pays a full O(ratings log ratings) sort.  Raters ascend
        within every item, so an incremental repack and a rebuild yield
        equal arrays.
        """
        num_users = len(self.user_ids)
        num_items = len(self.item_ids)
        order = np.argsort(rows * max(num_items, 1) + items, kind="stable")
        rows = rows[order]
        indices = items[order]
        values = values[order]
        inv_users, inv_items, inv_values = (
            inverted if inverted is not None else (rows, indices, values)
        )
        by_item = np.argsort(inv_items * max(num_users, 1) + inv_users, kind="stable")
        self.indptr = csr_offsets(rows, num_users)
        self.indices = indices
        self.values = values
        self.devs = values - means[rows]
        self.means = means
        self.inv_ptr = csr_offsets(inv_items, num_items)
        self.inv_users = inv_users[by_item]
        self.inv_values = inv_values[by_item]
        matrix = self.matrix
        self._num_ratings = len(indices)
        self._version = matrix.version
        self._removals = matrix.removals
        self._dirty.clear()
        self._stale = False
        # Packing always yields ordinary in-memory arrays, so a
        # spill-backed view that repacked is no longer mmap-backed.
        self._spill_backed = False

    # -- dirtiness -----------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Number of interned users."""
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        """Number of interned items."""
        return len(self.item_ids)

    def row_bounds(self, user_int: int) -> tuple[int, int]:
        """``(start, end)`` of user int ``user_int``'s CSR row."""
        return int(self.indptr[user_int]), int(self.indptr[user_int + 1])

    def mark_dirty(self, user_id: str) -> None:
        """Record that ``user_id``'s ratings changed since the last repack."""
        with self._repack_lock:
            self._dirty.add(user_id)

    def mark_all_dirty(self) -> None:
        """Force a full rebuild at the next :meth:`ensure_current`."""
        with self._repack_lock:
            self._stale = True

    def ensure_current(self) -> None:
        """Bring the packed state up to the matrix, as cheaply as possible.

        In sync (the common case) this is two int compares.  With only
        dirty-marked additive mutations outstanding it re-reads exactly
        the dirty rows (plus interning-table extensions for brand-new
        users/items) and splices them into fresh flat arrays.  Anything
        else — a removal, or a version move the packed view was never
        told about — triggers :meth:`rebuild`.

        Thread-safe: the serving layer's batch paths call the kernels
        from concurrent reader threads, so the staleness check and the
        repack run under one lock — at most the first caller mutates,
        the rest re-check and fall through.
        """
        matrix = self.matrix
        with self._repack_lock:
            if not self._stale and matrix.version == self._version:
                # Spurious marks (e.g. a profile-only invalidation):
                # the rows already match the matrix.
                if self._dirty:
                    self._dirty.clear()
                return
            if (
                self._stale
                or matrix.removals != self._removals
                or not self._dirty
            ):
                started = time.perf_counter()
                self.rebuild()
                _observe_repack("full", started)
                return
            started = time.perf_counter()
            self._repack_dirty()
            _observe_repack("incremental", started)

    def _repack_dirty(self) -> None:
        """Splice the dirty rows into new flat arrays.

        No Python loop runs over the untouched rows: they are carried
        over with C-speed masks and copies, so a write costs
        O(ratings) memory traffic plus the dirty rows' own re-read.
        """
        matrix = self.matrix
        old_users = len(self.user_ids)
        # New items/users append to the matrix dicts (no removals
        # happened, per the caller's check), so the interning tables
        # extend from a slice — insertion order, hence canonical
        # summation order, is preserved.
        for item_id in islice(matrix.iter_item_ids(), len(self.item_ids), None):
            self.item_index[item_id] = len(self.item_ids)
            self.item_ids.append(item_id)
        for user_id in islice(matrix.iter_user_ids(), old_users, None):
            self.user_index[user_id] = len(self.user_ids)
            self.user_ids.append(user_id)
            self._dirty.add(user_id)
        # Users marked but never rated anything have nothing to pack.
        dirty = sorted(
            user_int
            for user_int in map(self.user_index.get, self._dirty)
            if user_int is not None
        )
        fresh_rows, fresh_items, fresh_values, fresh_means = self._read_rows(dirty)
        if len(np.unique(fresh_rows)) != len(dirty):
            # An interned user lost their whole row; only remove() can
            # do that and it forces a full rebuild upstream, but guard
            # against it anyway.
            self.rebuild()
            return
        old_rows = np.repeat(
            np.arange(old_users, dtype=INT_DTYPE), np.diff(self.indptr)
        )
        touched = np.zeros(len(self.user_ids), dtype=bool)
        touched[dirty] = True
        keep = ~touched[old_rows]
        rows = np.concatenate((old_rows[keep], fresh_rows))
        if len(rows) != matrix.num_ratings:
            # More mutated than was marked dirty; start over from the
            # matrix rather than serve a stale row.
            self.rebuild()
            return
        means = np.zeros(len(self.user_ids), dtype=FLOAT_DTYPE)
        means[:old_users] = self.means
        means[dirty] = fresh_means
        old_items = np.repeat(
            np.arange(len(self.inv_ptr) - 1, dtype=INT_DTYPE), np.diff(self.inv_ptr)
        )
        inv_keep = ~touched[self.inv_users]
        self._pack(
            rows,
            np.concatenate((self.indices[keep], fresh_items)),
            np.concatenate((self.values[keep], fresh_values)),
            means,
            inverted=(
                np.concatenate((self.inv_users[inv_keep], fresh_rows)),
                np.concatenate((old_items[inv_keep], fresh_items)),
                np.concatenate((self.inv_values[inv_keep], fresh_values)),
            ),
        )

    # -- spill ---------------------------------------------------------------

    @property
    def spill_backed(self) -> bool:
        """True while the packed arrays are read-only ``mmap`` views."""
        return self._spill_backed

    def save(self, directory) -> str:
        """Spill the packed CSR arrays to ``directory``; returns the fingerprint.

        Brings the view current first, then writes the
        :mod:`repro.kernels.spill` layout (atomic per-file writes,
        manifest last).  A no-op when the on-disk spill already carries
        the fingerprint of this state.
        """
        from .spill import write_spill

        with self._repack_lock:
            self.ensure_current()
            return write_spill(self, directory)

    @classmethod
    def open_mmap(cls, directory, matrix: RatingMatrix) -> "PackedRatings":
        """Open the spill at ``directory`` as an mmap-backed view of ``matrix``.

        The returned view shares the operating system's page-cache copy
        of the arrays with every other process that opened the same
        spill; nothing is deserialised beyond the interning tables.
        Raises :class:`~repro.kernels.spill.SpillError` when the spill
        is missing, torn, or disagrees with ``matrix`` — callers fall
        back to the in-memory rebuild recipe then (:func:`attach_spill`
        automates that).  The first repack replaces the mapped arrays
        with fresh in-memory ones; the spill on disk is untouched (and
        then stale — re-save to refresh it).
        """
        from .spill import open_spill

        state = open_spill(directory, matrix)
        packed = cls.__new__(cls)
        packed.matrix = matrix
        packed._dirty = set()
        packed._stale = False
        packed._repack_lock = threading.RLock()
        for name, value in state.items():
            setattr(packed, name, value)
        packed._num_ratings = len(packed.indices)
        packed._version = matrix.version
        packed._removals = matrix.removals
        packed._spill_backed = True
        # Remembered so sibling views (per-shard measures) can map the
        # same spill instead of packing their own private copy.
        packed._spill_dir = str(directory)
        return packed

    # -- pickling ------------------------------------------------------------

    def __reduce__(self):
        """Pickle as a rebuild recipe, not as the packed arrays.

        Shipping a worker the matrix and letting it repack locally is
        both smaller on the wire and exactly the delta-sync story: pool
        workers replay mutations into their own matrix copy and repack
        from it, so packed blobs never cross the process boundary.
        """
        return (PackedRatings, (self.matrix,))
