"""On-disk spill of the packed CSR layout, opened read-only via ``mmap``.

:meth:`~repro.kernels.packed.PackedRatings.save` writes the flat CSR
arrays, one binary file each, plus a fingerprinted ``manifest.json``;
:meth:`~repro.kernels.packed.PackedRatings.open_mmap` maps those files
back as zero-copy, read-only ``ndarray`` views (``np.frombuffer`` over
an ``mmap``), so the kernels run over them unchanged.  The point is worker
bootstrap: a pool worker that opens the spill shares one page-cache
copy of the arrays with every sibling and never receives the packed
state over a pipe — ``pool_stats()``'s ``bootstrap_bytes`` shows the
difference against a full state ship.

Layout of a spill directory::

    manifest.json     format/version, counts, fingerprint, file sizes
    users.json        interned user ids, insertion order
    items.json        interned item ids, insertion order
    row_offsets.bin   indptr: int64 CSR offsets, len num_users + 1
    row_items.bin     indices: int64 item ints, all user rows concatenated
    row_values.bin    values: raw ratings, parallel to row_items
    row_devs.bin      devs: centred deviations, parallel to row_items
    means.bin         means: per-user means
    inv_offsets.bin   inv_ptr: int64 CSR offsets, len num_items + 1
    inv_users.bin     inv_users: int64 rater ints, all item columns concatenated
    inv_values.bin    inv_values: raw ratings, parallel to inv_users

Each file is the raw bytes of the ``PackedRatings`` array named after
the colon, in native byte order (recorded in the manifest).

Writes mirror the PR-3 snapshot discipline: every file is written to a
temporary name and atomically renamed, and the manifest is written
**last**, so a crash mid-save leaves either the previous generation or
a detectable mismatch — never a silently torn spill.  Opening validates
the manifest, the file sizes, the interning tables against the live
matrix (full id-list compare) and a deterministic sample of rows
against the matrix values; any disagreement raises :class:`SpillError`
so the caller can fall back to the in-memory rebuild recipe.

A spill-backed view is read-only, and needs nothing else: no repack
writes into an array, so the first mutation the owner tells it about
(``mark_dirty`` + ``ensure_current``) splices the dirty rows into fresh
in-memory arrays like any other repack, and the view stops being
spill-backed.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from pathlib import Path
from typing import Any

import numpy as np

from ..exceptions import SerializationError
from .packed import FLOAT_DTYPE, INT_DTYPE

#: Identifies the spill layout; bump on incompatible changes.
SPILL_FORMAT = "repro.packed-spill"
SPILL_VERSION = 2

#: Manifest file name inside a spill directory.
SPILL_MANIFEST_NAME = "manifest.json"

#: Binary array files, the ``PackedRatings`` attribute each holds, and
#: its dtype.
_ARRAY_FILES: tuple[tuple[str, str, np.dtype], ...] = (
    ("row_offsets.bin", "indptr", INT_DTYPE),
    ("row_items.bin", "indices", INT_DTYPE),
    ("row_values.bin", "values", FLOAT_DTYPE),
    ("row_devs.bin", "devs", FLOAT_DTYPE),
    ("means.bin", "means", FLOAT_DTYPE),
    ("inv_offsets.bin", "inv_ptr", INT_DTYPE),
    ("inv_users.bin", "inv_users", INT_DTYPE),
    ("inv_values.bin", "inv_values", FLOAT_DTYPE),
)

#: Manifest entry pinning the byte layout of the array files; a spill
#: written with another byte order or dtype is refused.
_DTYPES = {"int": INT_DTYPE.str, "float": FLOAT_DTYPE.str}

#: Stride of the row-sample validation in :func:`open_spill`: one in
#: every ``_SAMPLE_STRIDE`` user rows is value-compared against the
#: live matrix, catching a same-shape / different-values stale spill
#: without an O(ratings) full scan.
_SAMPLE_STRIDE = 64


class SpillError(SerializationError):
    """Raised when a packed spill cannot be opened or trusted.

    Covers missing or torn files, manifests from another layout
    version or platform, and spills whose interning tables or sampled
    values disagree with the live matrix.  Callers treat this as "no
    usable spill" and rebuild from the matrix instead.
    """


def _ids_digest(ids: list[str]) -> str:
    """Order-sensitive digest of an interning table."""
    joined = "\x1f".join(ids)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _values_digest(values: np.ndarray) -> str:
    """Digest of the flat raw rating bytes (rows in order).

    Catches the one staleness mode shape checks cannot: an in-place
    value overwrite that leaves counts and interning tables untouched.
    C-speed (``tobytes`` + sha256), so cheap relative to a save.
    """
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


def spill_fingerprint_of(
    num_users: int, num_items: int, num_ratings: int,
    user_ids: list[str], item_ids: list[str], values_digest: str,
) -> str:
    """Fingerprint binding a spill to one matrix state's shape, ids and values."""
    payload = {
        "users": num_users,
        "items": num_items,
        "ratings": num_ratings,
        "users_digest": _ids_digest(user_ids),
        "items_digest": _ids_digest(item_ids),
        "values_digest": values_digest,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a temp file and atomic rename."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def _atomic_write_json(path: Path, payload: Any) -> None:
    """Atomically write ``payload`` as JSON."""
    _atomic_write_bytes(
        path, json.dumps(payload, separators=(",", ":")).encode("utf-8")
    )


def peek_fingerprint(directory: str | Path) -> str | None:
    """The fingerprint of the spill at ``directory``, or ``None``.

    A cheap manifest peek used to skip a re-save when the on-disk spill
    already matches the matrix state about to be written.
    """
    manifest_path = Path(directory) / SPILL_MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if (
        manifest.get("format") != SPILL_FORMAT
        or manifest.get("version") != SPILL_VERSION
    ):
        return None
    fingerprint = manifest.get("fingerprint")
    return fingerprint if isinstance(fingerprint, str) else None


def write_spill(packed: Any, directory: str | Path) -> str:
    """Serialise ``packed`` (a current ``PackedRatings``) to ``directory``.

    Returns the spill fingerprint.  The caller (``PackedRatings.save``)
    is responsible for holding the repack lock and for having run
    ``ensure_current()`` first.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    fingerprint = spill_fingerprint_of(
        packed.num_users,
        packed.num_items,
        packed._num_ratings,
        packed.user_ids,
        packed.item_ids,
        _values_digest(packed.values),
    )
    if peek_fingerprint(target) == fingerprint:
        return fingerprint
    blobs: dict[str, bytes] = {
        name: getattr(packed, attribute).tobytes()
        for name, attribute, _ in _ARRAY_FILES
    }
    for name, blob in blobs.items():
        _atomic_write_bytes(target / name, blob)
    _atomic_write_json(target / "users.json", packed.user_ids)
    _atomic_write_json(target / "items.json", packed.item_ids)
    manifest = {
        "format": SPILL_FORMAT,
        "version": SPILL_VERSION,
        "fingerprint": fingerprint,
        "num_users": packed.num_users,
        "num_items": packed.num_items,
        "num_ratings": packed._num_ratings,
        "dtypes": _DTYPES,
        "files": {name: len(blob) for name, blob in blobs.items()},
    }
    _atomic_write_json(target / SPILL_MANIFEST_NAME, manifest)
    return fingerprint


def _map_file(path: Path, dtype: np.dtype, expected_bytes: int) -> np.ndarray:
    """``mmap`` one array file read-only as a ``dtype`` array."""
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise SpillError(f"missing spill file {path}: {exc}") from exc
    if size != expected_bytes:
        raise SpillError(
            f"spill file {path} is {size} bytes, manifest says "
            f"{expected_bytes}; the spill is torn or from another save"
        )
    if size % dtype.itemsize:
        raise SpillError(f"spill file {path} is not a whole number of {dtype} items")
    if size == 0:
        return np.empty(0, dtype=dtype)
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(mapped, dtype=dtype)


def open_spill(directory: str | Path, matrix: Any) -> dict[str, Any]:
    """Open and validate the spill at ``directory`` against ``matrix``.

    Returns the packed structures as an attribute name → object dict
    for ``PackedRatings.open_mmap`` to adopt.  Raises :class:`SpillError`
    when anything — manifest, sizes, interning tables, or the sampled
    row values — disagrees with the live matrix.
    """
    target = Path(directory)
    manifest_path = target / SPILL_MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except OSError as exc:
        raise SpillError(f"no spill manifest at {manifest_path}: {exc}") from exc
    except ValueError as exc:
        raise SpillError(f"malformed spill manifest {manifest_path}: {exc}") from exc
    if manifest.get("format") != SPILL_FORMAT:
        raise SpillError(
            f"{manifest_path} is not a packed spill manifest "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != SPILL_VERSION:
        raise SpillError(
            f"spill layout version {manifest.get('version')!r} unsupported "
            f"(expected {SPILL_VERSION})"
        )
    if manifest.get("dtypes") != _DTYPES:
        raise SpillError(
            "spill was written with another array byte order or dtype "
            f"({manifest.get('dtypes')!r}, expected {_DTYPES!r})"
        )
    try:
        user_ids = json.loads((target / "users.json").read_text("utf-8"))
        item_ids = json.loads((target / "items.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise SpillError(f"unreadable spill id tables in {target}: {exc}") from exc
    if user_ids != matrix.user_ids() or item_ids != matrix.item_ids():
        raise SpillError(
            f"spill {target} interning tables disagree with the matrix "
            "(different dataset, or ids in a different insertion order)"
        )
    if (
        manifest.get("num_users") != len(user_ids)
        or manifest.get("num_items") != len(item_ids)
        or manifest.get("num_ratings") != matrix.num_ratings
    ):
        raise SpillError(
            f"spill {target} counts disagree with the matrix "
            f"(manifest {manifest.get('num_users')}u/"
            f"{manifest.get('num_items')}i/{manifest.get('num_ratings')}r, "
            f"matrix {len(user_ids)}u/{len(item_ids)}i/"
            f"{matrix.num_ratings}r)"
        )
    sizes = manifest.get("files") or {}
    arrays: dict[str, np.ndarray] = {}
    for name, attribute, dtype in _ARRAY_FILES:
        declared = sizes.get(name)
        if not isinstance(declared, int):
            raise SpillError(f"spill manifest {manifest_path} misses file {name}")
        arrays[attribute] = _map_file(target / name, dtype, declared)
    num_users = len(user_ids)
    num_items = len(item_ids)
    num_ratings = matrix.num_ratings
    indptr = arrays["indptr"]
    inv_ptr = arrays["inv_ptr"]
    if (
        len(indptr) != num_users + 1
        or len(inv_ptr) != num_items + 1
        or indptr[-1] != num_ratings
        or inv_ptr[-1] != num_ratings
        or len(arrays["indices"]) != num_ratings
        or len(arrays["means"]) != num_users
        or len(arrays["inv_users"]) != num_ratings
    ):
        raise SpillError(
            f"spill {target} array lengths disagree with its manifest counts"
        )
    item_index = {item_id: index for index, item_id in enumerate(item_ids)}
    indices = arrays["indices"]
    values = arrays["values"]
    for user_int in range(0, num_users, _SAMPLE_STRIDE):
        row = matrix.items_of(user_ids[user_int])
        expected = {item_index[item_id]: value for item_id, value in row.items()}
        start, end = int(indptr[user_int]), int(indptr[user_int + 1])
        actual = dict(zip(indices[start:end].tolist(), values[start:end].tolist()))
        if expected != actual:
            raise SpillError(
                f"spill {target} row for user {user_ids[user_int]!r} "
                "disagrees with the matrix; the spill is stale"
            )
    return {
        "user_ids": user_ids,
        "user_index": {uid: index for index, uid in enumerate(user_ids)},
        "item_ids": item_ids,
        "item_index": item_index,
        **arrays,
    }
