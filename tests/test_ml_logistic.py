"""Tests for repro.ml.logistic (SoftmaxRegression)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


_TESTS = Path(__file__).resolve().parent

#: A small three-class problem and the fit every start-up probe runs.
_FIT = """
import numpy as np
import scipy.sparse as sp
from repro.ml import logistic

rng = np.random.RandomState(0)
X = sp.csr_matrix(rng.randn(60, 4) + np.repeat(np.eye(3, 4) * 3, 20, axis=0))
y = np.repeat(["a", "b", "c"], 20)
fit = logistic.SoftmaxRegression(max_iter=60).fit(X, y)
fit_bytes = fit.coef_.tobytes() + fit.intercept_.tobytes()
"""


def _run_fresh(*parts: str) -> dict:
    """Run the script ``parts`` make up in a fresh interpreter and return
    the JSON object it prints last: this process may already hold
    ``scipy.optimize``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(_TESTS.parent / "src"), str(_TESTS)])
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(textwrap.dedent(part) for part in parts)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartUpPath:
    """A CLI process loads ``_lbfgsb`` without ``scipy.optimize``'s package
    init (~0.2 s and ~25 MiB of imports), and still shares the module with
    a later ``import scipy.optimize``."""

    def test_cli_import_and_fit_leave_scipy_optimize_unloaded(self):
        """Fails when a scipy release moves the extension: the fallback
        then keeps fits identical but brings the package init back."""
        facts = _run_fresh(
            "import json, sys\nimport repro.__main__", _FIT, """
            print(json.dumps({
                "fast": logistic._HAVE_FAST_LBFGSB,
                "optimize": "scipy.optimize" in sys.modules,
            }))
            """
        )
        assert facts == {"fast": True, "optimize": False}

    def test_later_scipy_optimize_import_shares_the_module(self):
        """The ``minimize`` fallback imports ``scipy.optimize`` after the
        direct load; both solves give the same bits."""
        facts = _run_fresh(
            "import json, sys\nimport repro.__main__", _FIT, """
            logistic._HAVE_FAST_LBFGSB = False
            slow = logistic.SoftmaxRegression(max_iter=60).fit(X, y)
            optimize = "scipy.optimize" in sys.modules
            from scipy.optimize import _lbfgsb
            print(json.dumps({
                "optimize": optimize,
                "shared": sys.modules["scipy.optimize._lbfgsb"]
                is logistic._lbfgsb_module,
                "from_import": _lbfgsb is logistic._lbfgsb_module,
                "same_bits": slow.coef_.tobytes() + slow.intercept_.tobytes()
                == fit_bytes,
            }))
            """
        )
        assert facts == {
            "optimize": True, "shared": True, "from_import": True, "same_bits": True,
        }

    def test_failed_direct_load_falls_back_to_scipy_optimize(self):
        """With the extension not found, ``scipy.optimize`` imports it,
        and the fit still equals the reference chain's bit for bit."""
        facts = _run_fresh(
            """
            import importlib.machinery, json, sys
            find_spec = importlib.machinery.PathFinder.find_spec

            def refuse_direct_load(name, path=None, target=None):
                # Until scipy.optimize imports, only the direct load asks.
                if name == "scipy.optimize._lbfgsb" and "scipy.optimize" not in sys.modules:
                    return None
                return find_spec(name, path, target)

            importlib.machinery.PathFinder.find_spec = refuse_direct_load
            import repro.__main__
            optimize = "scipy.optimize" in sys.modules
            """, _FIT, """
            from reference_chain import reference_fit
            reference = reference_fit(X, y, max_iter=60)
            print(json.dumps({
                "fast": logistic._HAVE_FAST_LBFGSB,
                "optimize": optimize,
                "shared": sys.modules["scipy.optimize._lbfgsb"]
                is logistic._lbfgsb_module,
                "same_bits": reference.coef_.tobytes()
                + reference.intercept_.tobytes() == fit_bytes,
            }))
            """
        )
        assert facts == {
            "fast": True, "optimize": True, "shared": True, "same_bits": True,
        }
