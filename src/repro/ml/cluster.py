"""Agglomerative clustering (scikit-learn AgglomerativeClustering substitute).

Used by the global-evidence step of relation annotation (Section 3.2.2):
"we use an agglomerative clustering approach, where in each iteration we
find two nodes with the closest distance, and merge the clusters they
belong to, until we reach the desired number of clusters.  The distance
function between two DOM nodes is defined as the Levenshtein distance
between their corresponding XPaths."

The implementation performs average-linkage agglomeration over a
precomputed distance matrix via the Lance–Williams update, O(n^2 log n)
overall.  Heap entries are validated with *per-cluster version counters*
(each merge bumps the surviving cluster's version; an entry is live only
if both endpoint versions still match), so stale entries can never be
confused with fresh ones — unlike the float-equality check this replaces,
which compared a popped distance against the current matrix cell and
could in principle mistake a stale entry for live after Lance–Williams
averaging recreated an old value.  Row updates run vectorized over the
whole distance matrix; the per-element arithmetic is the same IEEE
multiply-add-divide the scalar loop performed, so merge distances are
bit-identical to the scalar implementation's.

The distance matrix itself comes from the interned-token batched
Levenshtein engine (:func:`repro.text.distance.levenshtein_matrix`) —
one numpy DP over all pairs instead of ``n^2/2`` Python calls.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.text.distance import levenshtein, levenshtein_matrix

__all__ = ["agglomerative_cluster", "cluster_xpaths"]


def agglomerative_cluster(
    distances: np.ndarray, n_clusters: int
) -> list[int]:
    """Average-linkage agglomerative clustering on a distance matrix.

    Args:
        distances: ``(n, n)`` symmetric matrix of pairwise distances.
        n_clusters: desired number of clusters; clipped to ``[1, n]``.

    Returns:
        A label per item, labels renumbered to ``0..k-1`` in order of first
        appearance (deterministic given the matrix).
    """
    n = distances.shape[0]
    if distances.shape != (n, n):
        raise ValueError("distance matrix must be square")
    n_clusters = max(1, min(n_clusters, n))
    if n == 0:
        return []

    # active[i] is True while cluster i exists; sizes track member counts
    # for the average-linkage (UPGMA) Lance-Williams update.  version[i]
    # stamps heap entries: any merge touching i invalidates entries that
    # recorded an older stamp.
    current = distances.astype(float).copy()
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n)
    version = [0] * n
    members: list[list[int]] = [[i] for i in range(n)]
    heap: list[tuple[float, int, int, int, int]] = [
        (current[i, j], i, j, 0, 0) for i in range(n) for j in range(i + 1, n)
    ]
    heapq.heapify(heap)

    remaining = n
    while remaining > n_clusters and heap:
        d, i, j, stamp_i, stamp_j = heapq.heappop(heap)
        if (
            not (active[i] and active[j])
            or version[i] != stamp_i
            or version[j] != stamp_j
        ):
            continue  # stale entry
        # Merge j into i.
        active[j] = False
        members[i].extend(members[j])
        members[j] = []
        si, sj = sizes[i], sizes[j]
        sizes[i] = si + sj
        version[i] += 1
        stamp_i = version[i]
        # Vectorized Lance-Williams (UPGMA) row update: identical IEEE
        # operations per element as the scalar loop it replaces.
        merged = (si * current[i] + sj * current[j]) / (si + sj)
        targets = active.copy()
        targets[i] = False
        current[i, targets] = merged[targets]
        current[targets, i] = merged[targets]
        push = heapq.heappush
        for k in np.flatnonzero(targets):
            k = int(k)
            if i < k:
                push(heap, (merged[k], i, k, stamp_i, version[k]))
            else:
                push(heap, (merged[k], k, i, version[k], stamp_i))
        remaining -= 1

    labels = [-1] * n
    next_label = 0
    for i in range(n):
        if active[i]:
            for member in members[i]:
                labels[member] = next_label
            next_label += 1
    return labels


def cluster_xpaths(
    xpath_tokens: Sequence[tuple],
    n_clusters: int,
    max_items: int = 400,
) -> list[int]:
    """Cluster XPath step tuples by Levenshtein distance.

    ``xpath_tokens`` are tuples of steps (see :func:`repro.dom.xpath.parse_xpath`).
    When more than ``max_items`` paths are supplied, clustering runs on the
    distinct paths only (identical paths trivially co-cluster), keeping the
    distance matrix tractable.

    Returns one label per input path.
    """
    n = len(xpath_tokens)
    if n == 0:
        return []
    distinct: dict[tuple, int] = {}
    for path in xpath_tokens:
        if path not in distinct:
            distinct[path] = len(distinct)
    unique_paths = list(distinct.keys())
    if len(unique_paths) > max_items:
        # Deterministic thinning: keep evenly spaced unique paths, assign
        # dropped paths to the cluster of their nearest kept path later.
        stride = len(unique_paths) / max_items
        kept_indices = sorted({int(i * stride) for i in range(max_items)})
        kept_paths = [unique_paths[i] for i in kept_indices]
    else:
        kept_paths = unique_paths

    kept_labels = agglomerative_cluster(levenshtein_matrix(kept_paths), n_clusters)
    label_of_kept = dict(zip(kept_paths, kept_labels))

    def label_for(path: tuple) -> int:
        found = label_of_kept.get(path)
        if found is not None:
            return found
        # Nearest kept path, with the early-exit limit seeded by the best
        # distance so far: a candidate whose true distance exceeds the
        # limit returns *some* value above it, which loses the `<`
        # comparison exactly as the true distance would — so the chosen
        # label matches the unbounded scan's.
        best_label, best_distance = 0, None
        for kept, label in label_of_kept.items():
            d = levenshtein(path, kept, limit=best_distance)
            if best_distance is None or d < best_distance:
                best_distance, best_label = d, label
        return best_label

    return [label_for(path) for path in xpath_tokens]
