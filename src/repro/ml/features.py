"""Dict-of-features → sparse matrix vectorization (DictVectorizer substitute).

CERES represents each DOM node as a sparse bag of named features
(Section 4.2).  The vectorizer learns a vocabulary on fit and produces
``scipy.sparse`` CSR matrices; unseen features at transform time are
silently dropped (the standard behaviour the paper's scikit-learn stack
provides).

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
(:mod:`repro.transfer`) is trained on ``xfer:`` features only.  The
helpers here (:func:`split_namespace`, :data:`SITE_NAMESPACE`,
:data:`TRANSFER_NAMESPACE`) are the single source of truth for the
prefix scheme, and :class:`FeatureVectorizer` exposes the namespace
structure of a fitted vocabulary (:meth:`FeatureVectorizer.namespace_counts`,
:meth:`FeatureVectorizer.restrict`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FeatureVectorizer",
    "NAMESPACE_SEPARATOR",
    "SITE_NAMESPACE",
    "TRANSFER_NAMESPACE",
    "namespace_of",
    "split_namespace",
]

#: Separator between a feature's namespace prefix and its local name.
NAMESPACE_SEPARATOR = ":"
#: Namespace of site-local vocabulary (attr values, frequent strings).
SITE_NAMESPACE = "site"
#: Namespace of transferable, topology-relative structure.
TRANSFER_NAMESPACE = "xfer"


def split_namespace(name: str) -> tuple[str, str]:
    """``(namespace, local name)`` of a feature name.

    Names without a separator belong to the anonymous namespace ``""``
    (hand-built test vocabularies; nothing the extraction stack emits).
    """
    namespace, separator, local = name.partition(NAMESPACE_SEPARATOR)
    if not separator:
        return "", name
    return namespace, local


def namespace_of(name: str) -> str:
    """The namespace prefix of a feature name (``""`` when absent)."""
    return split_namespace(name)[0]


class FeatureVectorizer:
    """Maps feature dictionaries to rows of a CSR matrix."""

    def __init__(self) -> None:
        self.vocabulary_: dict[str, int] = {}
        self._fitted = False

    @property
    def n_features(self) -> int:
        return len(self.vocabulary_)

    def fit(self, samples: Sequence[Mapping[str, float]]) -> FeatureVectorizer:
        """Learn the feature vocabulary (sorted for determinism)."""
        names: set[str] = set()
        for sample in samples:
            names.update(sample.keys())
        self.vocabulary_ = {name: idx for idx, name in enumerate(sorted(names))}
        self._fitted = True
        return self

    def transform(self, samples: Sequence[Mapping[str, float]]) -> sp.csr_matrix:
        """Vectorize ``samples`` against the learned vocabulary.

        Mapping keys are unique, so duplicate columns within a row are
        impossible and no ``sum_duplicates()`` pass is needed; entries are
        emitted in ascending column order (the canonical CSR layout that
        ``sum_duplicates()`` used to establish) into preallocated buffers.
        """
        if not self._fitted:
            raise RuntimeError("vectorizer is not fitted")
        vocabulary = self.vocabulary_
        n_samples = len(samples)
        capacity = sum(len(sample) for sample in samples)
        indices = np.empty(capacity, dtype=np.int32)
        data = np.empty(capacity, dtype=np.float64)
        indptr = np.empty(n_samples + 1, dtype=np.int32)
        indptr[0] = 0
        cursor = 0
        for row, sample in enumerate(samples):
            entries = sorted(
                (column, value)
                for name, value in sample.items()
                if value and (column := vocabulary.get(name)) is not None
            )
            for column, value in entries:
                indices[cursor] = column
                data[cursor] = value
                cursor += 1
            indptr[row + 1] = cursor
        matrix = sp.csr_matrix(
            (data[:cursor], indices[:cursor], indptr),
            shape=(n_samples, len(vocabulary)),
        )
        matrix.has_sorted_indices = True
        return matrix

    def fit_transform(self, samples: Sequence[Mapping[str, float]]) -> sp.csr_matrix:
        return self.fit(samples).transform(samples)

    # -- batched name-row path (training hot path) -------------------------

    def fit_names(self, rows: Sequence[Sequence[str]]) -> FeatureVectorizer:
        """:meth:`fit` over feature-*name* rows instead of dicts.

        Rows produced by :class:`repro.core.extraction.features.FeatureNameBatcher`
        share identity for template-identical nodes, so the union skips
        already-seen row objects.  The vocabulary is identical to fitting
        the equivalent dicts: the same name set, sorted.
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
        """:meth:`transform` over feature-name rows with all-ones values.

        Produces exactly the matrix :meth:`transform` would for dicts
        mapping those names to ``1.0``: per row, the sorted unique known
        columns with unit values (duplicate names collapse just as
        duplicate dict keys cannot exist).  Distinct row *objects* are
        resolved against the vocabulary once and memoized by identity.
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

    # -- namespace structure -----------------------------------------------

    def namespace_counts(self) -> dict[str, int]:
        """Feature count per namespace prefix of the fitted vocabulary."""
        counts: dict[str, int] = {}
        for name in self.vocabulary_:
            namespace = namespace_of(name)
            counts[namespace] = counts.get(namespace, 0) + 1
        return counts

    def restrict(self, namespace: str) -> FeatureVectorizer:
        """A new fitted vectorizer over one namespace of this vocabulary.

        Columns are re-enumerated in sorted-name order (the canonical
        layout :meth:`fit` would produce over the same names), so a
        restricted vectorizer behaves exactly like one fitted on the
        namespace's features alone.
        """
        prefix = namespace + NAMESPACE_SEPARATOR
        restricted = FeatureVectorizer()
        restricted.vocabulary_ = {
            name: index
            for index, name in enumerate(
                sorted(n for n in self.vocabulary_ if n.startswith(prefix))
            )
        }
        restricted._fitted = True
        return restricted
