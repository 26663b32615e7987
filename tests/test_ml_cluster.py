"""Tests for repro.ml.cluster (agglomerative clustering)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dom.xpath import parse_xpath
from repro.ml.cluster import agglomerative_cluster, cluster_xpaths


def pairwise_distance_matrix(items, distance_fn) -> np.ndarray:
    """Symmetric distance matrix with a zero diagonal."""
    matrix = np.zeros((len(items), len(items)))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            matrix[i, j] = matrix[j, i] = float(distance_fn(items[i], items[j]))
    return matrix


class TestAgglomerativeCluster:
    def test_two_obvious_groups(self):
        # Points on a line: {0, 1, 2} and {10, 11, 12}.
        points = [0, 1, 2, 10, 11, 12]
        matrix = pairwise_distance_matrix(points, lambda a, b: abs(a - b))
        labels = agglomerative_cluster(matrix, 2)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_n_clusters_one(self):
        points = [0, 5, 100]
        matrix = pairwise_distance_matrix(points, lambda a, b: abs(a - b))
        assert len(set(agglomerative_cluster(matrix, 1))) == 1

    def test_n_clusters_equals_n(self):
        points = [0, 5, 100]
        matrix = pairwise_distance_matrix(points, lambda a, b: abs(a - b))
        labels = agglomerative_cluster(matrix, 3)
        assert len(set(labels)) == 3

    def test_n_clusters_clipped(self):
        points = [0, 1]
        matrix = pairwise_distance_matrix(points, lambda a, b: abs(a - b))
        assert len(set(agglomerative_cluster(matrix, 99))) == 2
        assert len(set(agglomerative_cluster(matrix, 0))) == 1

    def test_empty(self):
        assert agglomerative_cluster(np.zeros((0, 0)), 2) == []

    def test_single_item(self):
        assert agglomerative_cluster(np.zeros((1, 1)), 1) == [0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            agglomerative_cluster(np.zeros((2, 3)), 1)

    def test_labels_contiguous(self):
        points = [0, 1, 50, 51, 100, 101]
        matrix = pairwise_distance_matrix(points, lambda a, b: abs(a - b))
        labels = agglomerative_cluster(matrix, 3)
        assert set(labels) == {0, 1, 2}

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=12),
        st.integers(1, 5),
    )
    def test_label_count_property(self, points, k):
        matrix = pairwise_distance_matrix(points, lambda a, b: abs(a - b))
        labels = agglomerative_cluster(matrix, k)
        expected = min(max(k, 1), len(points))
        assert len(set(labels)) == expected
        assert len(labels) == len(points)


class TestClusterXPaths:
    def test_index_drift_co_clusters(self):
        # Cast-list mentions drift in the final index; recommendation
        # mentions live in a structurally different region.
        cast = [
            parse_xpath(f"/html[1]/body[1]/div[1]/ul[1]/li[{i}]/a[1]") for i in (1, 2, 5, 9)
        ]
        recs = [
            parse_xpath(f"/html[1]/body[1]/aside[1]/div[2]/section[1]/p[{i}]/a[1]")
            for i in (1, 2)
        ]
        labels = cluster_xpaths(cast + recs, 2)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_largest_cluster_is_dominant_region(self):
        cast = [parse_xpath(f"/html[1]/div[1]/li[{i}]") for i in range(1, 8)]
        other = [parse_xpath("/html[1]/footer[1]/span[1]")]
        labels = cluster_xpaths(cast + other, 2)
        from collections import Counter

        largest = Counter(labels).most_common(1)[0][0]
        assert labels[0] == largest

    def test_identical_paths_same_label(self):
        path = parse_xpath("/html[1]/div[1]/span[1]")
        labels = cluster_xpaths([path, path, path], 2)
        assert len(set(labels)) == 1

    def test_empty(self):
        assert cluster_xpaths([], 2) == []

    def test_max_items_thinning(self):
        paths = [parse_xpath(f"/html[1]/div[1]/li[{i}]") for i in range(1, 60)]
        paths += [parse_xpath(f"/html[1]/aside[1]/p[{i}]/b[1]/a[1]") for i in range(1, 10)]
        labels = cluster_xpaths(paths, 2, max_items=20)
        assert len(labels) == len(paths)
        assert len(set(labels[:59])) == 1
        assert len(set(labels[59:])) == 1
        assert labels[0] != labels[-1]


class TestDeterminism:
    def test_repeated_runs_identical(self):
        rng = random.Random(11)
        points = [rng.randint(0, 40) for _ in range(30)]
        matrix = pairwise_distance_matrix(points, lambda a, b: abs(a - b))
        first = agglomerative_cluster(matrix, 4)
        for _ in range(3):
            assert agglomerative_cluster(matrix, 4) == first

    def test_shuffled_input_same_partition(self):
        """Well-separated groups cluster to the same partition regardless
        of input order (pins the version-stamped heap's determinism)."""
        rng = random.Random(3)
        points = [0, 1, 2, 3, 100, 101, 102, 200, 201, 202, 203]
        order = list(range(len(points)))
        expected = None
        for _ in range(6):
            rng.shuffle(order)
            shuffled = [points[i] for i in order]
            matrix = pairwise_distance_matrix(shuffled, lambda a, b: abs(a - b))
            labels = agglomerative_cluster(matrix, 3)
            partition = frozenset(
                frozenset(shuffled[i] for i, l in enumerate(labels) if l == label)
                for label in set(labels)
            )
            if expected is None:
                expected = partition
            assert partition == expected

    def test_stale_entries_with_recreated_distances(self):
        """Averaging can recreate a distance a stale heap entry recorded;
        version counters must still merge correctly (the float-identity
        check this replaces could conflate such entries)."""
        # Symmetric configuration engineered so Lance-Williams updates
        # reproduce existing distances several times over.
        import numpy as np

        n = 8
        matrix = np.full((n, n), 4.0)
        np.fill_diagonal(matrix, 0.0)
        for i in range(0, n, 2):
            matrix[i, i + 1] = matrix[i + 1, i] = 2.0
        labels = agglomerative_cluster(matrix, 4)
        assert len(set(labels)) == 4
        for i in range(0, n, 2):
            assert labels[i] == labels[i + 1]
