"""Sequence distance and set similarity measures.

Two measures drive CERES:

* **Levenshtein distance** between XPaths (Section 3.2.2) — the clustering
  step that supplies global evidence for relation annotation measures how
  far apart two mention locations are structurally.  The implementation is
  generic over sequences, so callers may pass strings (character-level, as
  in the paper) or XPath step tuples (token-level, a 50x cheaper measure
  with the same ordering behaviour under index drift).

* **Jaccard similarity** between entity sets (Section 3.1.1, Equation 1) —
  the topic-candidate score.

Two Levenshtein implementations coexist:

* :func:`levenshtein` — the classic pure-Python two-row DP over one pair,
  with an optional early-exit ``limit``.  Clustering uses it for single
  pairs, and the tests check the batched engine against it.
* :func:`levenshtein_matrix` — the vectorized engine: tokens are interned
  into small ints once (:func:`encode_token_sequences`), and the full
  pairwise distance matrix is produced by a numpy DP that advances all
  pairs' DP rows together, collapsing the insertion recurrence into a
  running minimum (``cur[j] = min_{k<=j}(t[k] + j - k)``).  Distances are
  exact integers, so the two implementations agree exactly.
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from typing import TypeVar

import numpy as np

__all__ = [
    "levenshtein",
    "normalized_levenshtein",
    "jaccard",
    "encode_token_sequences",
    "batched_levenshtein",
    "levenshtein_matrix",
]

T = TypeVar("T")

#: Pairs processed per DP batch by :func:`levenshtein_matrix`; bounds the
#: temporary arrays to a few MB regardless of how many pairs are requested.
_PAIR_CHUNK = 1 << 17


def levenshtein(a: Sequence[T], b: Sequence[T], limit: int | None = None) -> int:
    """Edit distance between sequences ``a`` and ``b``.

    Uses the classic two-row dynamic program with an optional early-exit
    ``limit``: if the true distance exceeds ``limit``, some value
    ``> limit`` is returned (callers treating distances above a cap as
    "far" can use this to skip work).

    >>> levenshtein("kitten", "sitting")
    3
    >>> levenshtein(("a", "b"), ("a", "c", "b"))
    1
    """
    if a is b or a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    # Ensure the inner loop runs over the shorter sequence.
    if lb > la:
        a, b = b, a
        la, lb = lb, la
    if limit is not None and la - lb > limit:
        return la - lb
    previous = list(range(lb + 1))
    current = [0] * (lb + 1)
    for i in range(1, la + 1):
        current[0] = i
        ai = a[i - 1]
        row_min = current[0]
        for j in range(1, lb + 1):
            cost = 0 if ai == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost, # substitution
            )
            if current[j] < row_min:
                row_min = current[j]
        if limit is not None and row_min > limit:
            return row_min
        previous, current = current, previous
    return previous[lb]


def encode_token_sequences(
    sequences: Sequence[Sequence],
) -> tuple[np.ndarray, np.ndarray]:
    """Intern the tokens of ``sequences`` into a padded int matrix.

    Every distinct token (compared by equality, exactly as
    :func:`levenshtein` compares elements) is assigned a small int code
    once; the sequences are packed into a ``(n, max_len)`` int32 matrix
    padded with ``-1``.  Padding can never corrupt a distance because the
    DP cell read for a pair only depends on the un-padded prefixes.

    Returns ``(codes, lengths)``.
    """
    n = len(sequences)
    lengths = np.fromiter(
        (len(sequence) for sequence in sequences), dtype=np.int32, count=n
    )
    width = int(lengths.max()) if n else 0
    codes = np.full((n, width), -1, dtype=np.int32)
    interned: dict = {}
    for row, sequence in enumerate(sequences):
        target = codes[row]
        for column, token in enumerate(sequence):
            code = interned.get(token)
            if code is None:
                code = len(interned)
                interned[token] = code
            target[column] = code
    return codes, lengths


def batched_levenshtein(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Levenshtein distance for aligned pairs of encoded sequences.

    ``a_codes``/``b_codes`` are ``(p, width)`` int matrices (one row per
    pair, from :func:`encode_token_sequences`), ``a_lengths``/``b_lengths``
    the true sequence lengths.  All ``p`` pairs advance through the DP
    together: row ``i`` of every pair is computed with three vectorized
    ops plus a running-minimum pass that resolves the insertion
    recurrence (``cur[j] = min(t[j], cur[j-1] + 1)`` unrolls to
    ``min_{k<=j}(t[k] + j - k)``, a ``minimum.accumulate`` over
    ``t - arange``).

    Returns an int32 array of exact distances, one per pair.
    """
    p = len(a_lengths)
    out = np.empty(p, dtype=np.int32)
    if p == 0:
        return out
    max_a = int(a_lengths.max())
    max_b = int(b_lengths.max())
    zero_a = a_lengths == 0
    if zero_a.any():
        out[zero_a] = b_lengths[zero_a]
    if max_a == 0:
        return out
    columns = np.arange(max_b + 1, dtype=np.int32)
    previous = np.broadcast_to(columns, (p, max_b + 1)).copy()
    boundary = np.empty((p, 1), dtype=np.int32)
    rows = np.arange(p)
    for i in range(1, max_a + 1):
        cost = (a_codes[:, i - 1 : i] != b_codes[:, :max_b]).astype(np.int32)
        candidate = np.minimum(previous[:, :-1] + cost, previous[:, 1:] + 1)
        boundary.fill(i)
        stacked = np.concatenate([boundary, candidate], axis=1)
        np.subtract(stacked, columns, out=stacked)
        np.minimum.accumulate(stacked, axis=1, out=stacked)
        current = np.add(stacked, columns, out=stacked)
        finished = a_lengths == i
        if finished.any():
            out[finished] = current[rows[finished], b_lengths[finished]]
        previous = current  # next iteration's concatenate allocates afresh
    return out


def levenshtein_matrix(sequences: Sequence[Sequence]) -> np.ndarray:
    """Full pairwise Levenshtein distance matrix over ``sequences``.

    Tokens are interned once; pairs are processed in bounded chunks
    through :func:`batched_levenshtein`.  Entries are exact: each equals
    :func:`levenshtein` of its pair.
    """
    n = len(sequences)
    matrix = np.zeros((n, n))
    if n < 2:
        return matrix
    codes, lengths = encode_token_sequences(sequences)
    upper_i, upper_j = np.triu_indices(n, k=1)
    for start in range(0, len(upper_i), _PAIR_CHUNK):
        chunk_i = upper_i[start : start + _PAIR_CHUNK]
        chunk_j = upper_j[start : start + _PAIR_CHUNK]
        distances = batched_levenshtein(
            codes[chunk_i], lengths[chunk_i], codes[chunk_j], lengths[chunk_j]
        )
        matrix[chunk_i, chunk_j] = distances
        matrix[chunk_j, chunk_i] = distances
    return matrix


def normalized_levenshtein(a: Sequence[T], b: Sequence[T]) -> float:
    """Levenshtein distance scaled to ``[0, 1]`` by the longer length.

    Returns 0.0 for two empty sequences.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def jaccard(a: Set[T], b: Set[T]) -> float:
    """Jaccard similarity ``|a ∩ b| / |a ∪ b|`` (Equation 1 of the paper).

    Returns 0.0 when both sets are empty (no evidence either way).

    >>> jaccard({1, 2}, {2, 3})
    0.3333333333333333
    """
    if not a and not b:
        return 0.0
    intersection = len(a & b)
    if intersection == 0:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)
