"""``repro.kernels`` — packed CSR similarity / prediction kernels.

The layout-first compute layer: :class:`PackedRatings` mirrors a
:class:`~repro.data.ratings.RatingMatrix` as integer-interned, flat CSR
``numpy`` arrays (sorted rows, precomputed means and centered
deviations, a packed inverted index), and the kernel functions run the
paper's hot equations over that layout, each as one gather plus
``numpy.bincount`` —

* :func:`pearson_one_vs_many` / :func:`pearson_pair` — Equation 2 over
  int ids;
* :func:`overlap_counts` — candidate co-rating counts through the
  packed inverted index;
* :func:`predict_table_packed` / :func:`predict_row_packed` /
  :func:`predict_topk_packed` — Equation 1 prediction tables (full,
  per-row, and top-k) for the recommend paths;
* :func:`items_unrated_by_all_packed` /
  :func:`candidate_ints_unrated_by_all` — the group candidate scan
  (Definition 2) as a set subtract in intern space;
* :meth:`PackedRatings.save` / :meth:`PackedRatings.open_mmap` /
  :func:`attach_spill` — the mmap'd on-disk spill of the CSR arrays
  (:mod:`repro.kernels.spill`), letting pool workers bootstrap by
  opening files instead of receiving a full state ship.

The kernels need ``numpy`` (a runtime dependency) and are
**bit-identical** to the dict-of-dicts oracle paths: ``bincount`` adds
every bin's terms in input order, which the gathers arrange to be the
oracle's summation order.  The ``kernel="packed"|"dict"`` knob on
:class:`~repro.config.RecommenderConfig` selects between them, with
``packed`` the default and ``dict`` retained as the oracle.
"""

from __future__ import annotations

from .packed import PackedRatings, attach_spill, get_packed
from .pearson import overlap_counts, pearson_one_vs_many, pearson_pair
from .relevance import predict_row_packed, predict_table_packed, predict_topk_packed
from .scan import candidate_ints_unrated_by_all, items_unrated_by_all_packed
from .spill import SPILL_MANIFEST_NAME, SpillError

#: Kernel implementations selectable via ``RecommenderConfig.kernel``.
KERNEL_NAMES: tuple[str, ...] = ("packed", "dict")

#: The kernel used when nothing is configured.
DEFAULT_KERNEL: str = "packed"

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_NAMES",
    "PackedRatings",
    "SPILL_MANIFEST_NAME",
    "SpillError",
    "attach_spill",
    "candidate_ints_unrated_by_all",
    "get_packed",
    "items_unrated_by_all_packed",
    "overlap_counts",
    "pearson_one_vs_many",
    "pearson_pair",
    "predict_row_packed",
    "predict_table_packed",
    "predict_topk_packed",
]
