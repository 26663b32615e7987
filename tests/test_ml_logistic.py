"""Tests for repro.ml.logistic (SoftmaxRegression)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.logistic import SoftmaxRegression


def separable_data(n_per_class=30, seed=0):
    rng = np.random.RandomState(seed)
    X0 = rng.randn(n_per_class, 2) + [3, 0]
    X1 = rng.randn(n_per_class, 2) + [-3, 0]
    X2 = rng.randn(n_per_class, 2) + [0, 4]
    X = sp.csr_matrix(np.vstack([X0, X1, X2]))
    y = np.array(["a"] * n_per_class + ["b"] * n_per_class + ["c"] * n_per_class)
    return X, y


class TestSoftmaxRegression:
    def test_fits_separable_data(self):
        X, y = separable_data()
        model = SoftmaxRegression().fit(X, y)
        accuracy = float(np.mean(model.predict(X) == y))
        assert accuracy > 0.95

    def test_probabilities_sum_to_one(self):
        X, y = separable_data()
        model = SoftmaxRegression().fit(X, y)
        probabilities = model.predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert (probabilities >= 0).all()

    def test_classes_sorted(self):
        X, y = separable_data()
        model = SoftmaxRegression().fit(X, y)
        assert list(model.classes_) == ["a", "b", "c"]

    def test_binary(self):
        rng = np.random.RandomState(1)
        X = sp.csr_matrix(np.vstack([rng.randn(20, 3) + 2, rng.randn(20, 3) - 2]))
        y = [1] * 20 + [0] * 20
        model = SoftmaxRegression().fit(X, y)
        assert float(np.mean(model.predict(X) == y)) > 0.9

    def test_single_class_degenerate(self):
        X = sp.csr_matrix(np.ones((5, 2)))
        model = SoftmaxRegression().fit(X, ["only"] * 5)
        assert list(model.predict(X)) == ["only"] * 5
        assert np.allclose(model.predict_proba(X), 1.0)

    def test_regularization_shrinks_weights(self):
        X, y = separable_data()
        strong = SoftmaxRegression(C=0.01).fit(X, y)
        weak = SoftmaxRegression(C=100.0).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_invalid_C(self):
        with pytest.raises(ValueError):
            SoftmaxRegression(C=0)

    def test_unfitted_raises(self):
        model = SoftmaxRegression()
        X = sp.csr_matrix(np.ones((1, 2)))
        with pytest.raises(RuntimeError):
            model.predict(X)
        with pytest.raises(RuntimeError):
            model.predict_proba(X)

    def test_shape_mismatch(self):
        X = sp.csr_matrix(np.ones((3, 2)))
        with pytest.raises(ValueError):
            SoftmaxRegression().fit(X, [0, 1])

    def test_empty_raises(self):
        X = sp.csr_matrix((0, 4))
        with pytest.raises(ValueError):
            SoftmaxRegression().fit(X, [])

    def test_intercept_handles_shifted_classes(self):
        # Classes identical in features except for frequency: intercept
        # should prefer the frequent one.
        X = sp.csr_matrix(np.zeros((10, 1)))
        y = ["common"] * 9 + ["rare"]
        model = SoftmaxRegression().fit(X, y)
        assert model.predict(X[:1])[0] == "common"

    def test_deterministic(self):
        X, y = separable_data()
        m1 = SoftmaxRegression().fit(X, y)
        m2 = SoftmaxRegression().fit(X, y)
        assert np.allclose(m1.coef_, m2.coef_)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 4), st.integers(5, 15), st.integers(0, 5))
    def test_proba_rows_sum_to_one_property(self, n_classes, n_samples, seed):
        rng = np.random.RandomState(seed)
        X = sp.csr_matrix(rng.randn(n_samples * n_classes, 3))
        y = np.repeat(np.arange(n_classes), n_samples)
        model = SoftmaxRegression(max_iter=50).fit(X, y)
        probabilities = model.predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0, atol=1e-8)
