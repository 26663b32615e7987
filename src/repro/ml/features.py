"""Feature-name rows → sparse matrix vectorization (DictVectorizer substitute).

CERES represents each DOM node as a sparse bag of named binary features
(Section 4.2); the feature-row walker
(:class:`repro.core.extraction.features.FeatureNameBatcher`) emits each
bag as a tuple of names.  The vectorizer learns a sorted vocabulary on
fit and produces ``scipy.sparse`` CSR matrices of unit values; unseen
names at transform time are silently dropped (the standard behaviour
the paper's scikit-learn stack provides).

Feature namespaces
------------------

Every feature the extraction stack produces carries an explicit
namespace prefix separating *site-local* vocabulary from *transferable*
structure (the split ZeroShotCeres showed matters for cross-site
generalization):

* ``site:`` — anything tied to one site's private vocabulary: HTML
  attribute values (CSS class names, ids, microdata URLs), the site's
  frequent-string lexicon, raw paths.  These features are meaningless on
  any other site.
* ``xfer:`` — topology-relative structure that transfers across sites
  of a vertical: tag-name ancestry/sibling windows, depth and layout
  buckets, token overlap with predicate names, node-text shape classes.

Per-site models consume both namespaces; the cross-site global model
(:mod:`repro.transfer`) is trained on ``xfer:`` features only.
:data:`SITE_NAMESPACE` and :data:`TRANSFER_NAMESPACE` are the single
source of truth for the prefix scheme.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FeatureVectorizer",
    "NAMESPACE_SEPARATOR",
    "SITE_NAMESPACE",
    "TRANSFER_NAMESPACE",
]

#: Separator between a feature's namespace prefix and its local name.
NAMESPACE_SEPARATOR = ":"
#: Namespace of site-local vocabulary (attr values, frequent strings).
SITE_NAMESPACE = "site"
#: Namespace of transferable, topology-relative structure.
TRANSFER_NAMESPACE = "xfer"


class FeatureVectorizer:
    """Maps feature-name rows to rows of a CSR matrix."""

    def __init__(self) -> None:
        self.vocabulary_: dict[str, int] = {}
        self._fitted = False

    @property
    def n_features(self) -> int:
        return len(self.vocabulary_)

    def fit_names(self, rows: Sequence[Sequence[str]]) -> FeatureVectorizer:
        """Learn the vocabulary: every name of ``rows``, sorted (so it is
        deterministic).

        Rows produced by :class:`repro.core.extraction.features.FeatureNameBatcher`
        share identity for template-identical nodes, so the union skips
        already-seen row objects.
        """
        names: set[str] = set()
        seen_rows: set[int] = set()
        for row in rows:
            key = id(row)
            if key in seen_rows:
                continue
            seen_rows.add(key)
            names.update(row)
        self.vocabulary_ = {name: idx for idx, name in enumerate(sorted(names))}
        self._fitted = True
        return self

    def transform_name_rows(self, rows: Sequence[Sequence[str]]) -> sp.csr_matrix:
        """Vectorize ``rows`` against the learned vocabulary.

        Each matrix row holds the sorted, duplicate-free columns of the
        row's known names, with unit values (the canonical CSR layout,
        so no ``sum_duplicates()`` pass is needed).  Distinct row
        *objects* are resolved against the vocabulary once and memoized
        by identity.
        """
        if not self._fitted:
            raise RuntimeError("vectorizer is not fitted")
        vocabulary = self.vocabulary_
        n_samples = len(rows)
        column_cache: dict[int, np.ndarray] = {}
        row_columns: list[np.ndarray] = []
        capacity = 0
        for row in rows:
            columns = column_cache.get(id(row))
            if columns is None:
                found = {
                    column
                    for name in row
                    if (column := vocabulary.get(name)) is not None
                }
                columns = np.fromiter(
                    sorted(found), dtype=np.int32, count=len(found)
                )
                column_cache[id(row)] = columns
            row_columns.append(columns)
            capacity += len(columns)
        indices = np.empty(capacity, dtype=np.int32)
        indptr = np.empty(n_samples + 1, dtype=np.int32)
        indptr[0] = 0
        cursor = 0
        for index, columns in enumerate(row_columns):
            width = len(columns)
            indices[cursor : cursor + width] = columns
            cursor += width
            indptr[index + 1] = cursor
        matrix = sp.csr_matrix(
            (np.ones(capacity, dtype=np.float64), indices, indptr),
            shape=(n_samples, len(vocabulary)),
        )
        matrix.has_sorted_indices = True
        return matrix

    def fit_transform_name_rows(self, rows: Sequence[Sequence[str]]) -> sp.csr_matrix:
        return self.fit_names(rows).transform_name_rows(rows)

    def feature_names(self) -> list[str]:
        """Feature names in column order."""
        return sorted(self.vocabulary_, key=self.vocabulary_.__getitem__)
