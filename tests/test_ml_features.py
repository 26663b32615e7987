"""Tests for repro.ml.features (FeatureVectorizer)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml.features import FeatureVectorizer

name_rows = st.lists(
    st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4), max_size=6).map(
        tuple
    ),
    min_size=1,
    max_size=10,
)


class TestFeatureVectorizer:
    def test_fit_transform_shape(self):
        v = FeatureVectorizer()
        X = v.fit_transform_name_rows([("a", "b"), ("b", "c")])
        assert X.shape == (2, 3)

    def test_values_placed_correctly(self):
        v = FeatureVectorizer()
        X = v.fit_transform_name_rows([("a", "b"), ("c",)]).toarray()
        cols = v.vocabulary_
        assert X[0, cols["a"]] == 1.0
        assert X[0, cols["b"]] == 1.0
        assert X[1, cols["c"]] == 1.0
        assert X[1, cols["a"]] == 0.0

    def test_unseen_features_dropped(self):
        v = FeatureVectorizer()
        v.fit_names([("a",)])
        X = v.transform_name_rows([("a", "zz")])
        assert X.shape == (1, 1)
        assert X.toarray()[0, 0] == 1.0

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            FeatureVectorizer().transform_name_rows([("a",)])

    def test_deterministic_vocabulary(self):
        rows = [("z", "a", "m")]
        v1 = FeatureVectorizer().fit_names(rows)
        v2 = FeatureVectorizer().fit_names(rows)
        assert v1.vocabulary_ == v2.vocabulary_
        assert v1.feature_names() == ["a", "m", "z"]

    def test_empty_sample(self):
        v = FeatureVectorizer()
        X = v.fit_transform_name_rows([("a",), ()])
        assert X.shape == (2, 1)
        assert X[1].nnz == 0

    @given(name_rows)
    def test_roundtrip_property(self, rows):
        v = FeatureVectorizer()
        X = v.fit_transform_name_rows(rows)
        assert X.shape[0] == len(rows)
        dense = X.toarray()
        for index, row in enumerate(rows):
            expected = np.zeros(v.n_features)
            expected[[v.vocabulary_[name] for name in row]] = 1.0
            assert dense[index].tolist() == expected.tolist()
            # Canonical CSR: sorted, duplicate-free columns.
            columns = X[index].indices.tolist()
            assert columns == sorted(set(columns))

    @given(name_rows)
    def test_n_features_matches_distinct_names(self, rows):
        v = FeatureVectorizer().fit_names(rows)
        distinct = set()
        for row in rows:
            distinct.update(row)
        assert v.n_features == len(distinct)
