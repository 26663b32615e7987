"""Multinomial logistic regression trained with L-BFGS (sklearn substitute).

The paper (Section 4.2, 5.2) models ``Pr(Y = k | X)`` as multinomial
logistic regression trained with scikit-learn's LBFGS solver under L2
regularization with ``C = 1``.  This implementation reproduces that
objective exactly:

    minimize  0.5 * ||W||^2  +  C * sum_i  -log P(y_i | x_i)

(the scikit-learn convention: the regularizer is unscaled and the data
term is multiplied by ``C``), optimized with ``scipy.optimize`` L-BFGS-B
using analytic gradients.  Intercepts are unregularized, as in
scikit-learn.

The solve removes interpreter and allocator overhead without changing a
single float operation, so its coefficients are bit-identical to those
``scipy.optimize.minimize`` finds over the textbook loss and gradient
(the tests compare the two on the installed numpy/scipy):

  - duplicate CSR rows (template sites repeat feature patterns on every
    page) are collapsed for the forward matvec and the softmax chain —
    each distinct row's logits and log-probabilities are computed by the
    same op sequence and broadcast back by row gather, so every value is
    the one the full-matrix pass would produce;
  - ``csr_matvecs`` is invoked directly with preallocated buffers,
    replicating ``scipy.sparse``'s ``_matmul_multivector`` exactly;
  - the elementwise chain reuses ``out=`` buffers, keeping the identical
    sequence of IEEE operations;
  - the L-BFGS-B driver loop calls ``setulb`` directly, replicating
    ``scipy.optimize._minimize_lbfgsb``'s call sequence (same ``factr``,
    ``pgtol``, ``m``, ``maxls``, iteration/termination bookkeeping) while
    skipping the per-evaluation ``ScalarFunction`` wrapper cost.  If the
    private interface is unavailable or mismatched, the solve falls back
    to ``scipy.optimize.minimize`` transparently.

Every CLI process imports this module at start-up (through
``repro.core``), and the solver needs one function of one extension
module, ``scipy.optimize._lbfgsb``.  Importing it as a submodule would
first run ``scipy.optimize``'s package init, which imports linprog and
HiGHS, ``scipy.linalg``, ``scipy.special``, ``scipy.spatial``,
``scipy.fft`` and ``scipy.constants``: ~250 modules, ~0.2 s and ~25 MiB
per process.  So :func:`_load_lbfgsb` finds the extension file in
scipy's ``optimize`` directory and loads it alone, under its canonical
name and registered in ``sys.modules``, so that a later ``import
scipy.optimize`` (the ``minimize`` fallback, or the caller's own)
shares the module instead of loading a second copy.  If the file is not
where the lookup expects it, the module comes from ``from
scipy.optimize import _lbfgsb`` as before: fits stay identical and only
the start-up cost returns, which ``tests/test_ml_logistic.py`` reports
as a failure.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse import _sparsetools

_LBFGSB_NAME = "scipy.optimize._lbfgsb"


def _load_lbfgsb():
    """The ``_lbfgsb`` extension without ``scipy.optimize``'s package
    init (see the module docstring); a module already in ``sys.modules``
    is reused."""
    module = sys.modules.get(_LBFGSB_NAME)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(
            _LBFGSB_NAME, [os.path.join(path, "optimize") for path in scipy.__path__]
        )
        if spec is None:
            raise ImportError(f"{_LBFGSB_NAME} not found in scipy's optimize directory")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_LBFGSB_NAME] = module
    return module


try:  # pragma: no cover - exercised implicitly on import
    try:
        _lbfgsb_module = _load_lbfgsb()
    except Exception:  # the extension moved: let scipy.optimize find it
        from scipy.optimize import _lbfgsb as _lbfgsb_module

    # The driver replicates the scipy >= 1.15 C-translated interface
    # (int32 task codes, trailing ln_task).  Older interfaces fall back.
    _HAVE_FAST_LBFGSB = "ln_task" in (getattr(_lbfgsb_module, "setulb", None).__doc__ or "")
except Exception:  # pragma: no cover - depends on scipy build
    _lbfgsb_module = None
    _HAVE_FAST_LBFGSB = False

__all__ = ["SoftmaxRegression"]

#: scipy.optimize.minimize's L-BFGS-B defaults, replicated by the fast
#: driver: options {maxiter, gtol} leave ftol/maxcor/maxls/maxfun at these.
_LBFGSB_FTOL = 2.2204460492503131e-09
_LBFGSB_MAXCOR = 10
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000

#: Collapse duplicate rows for the forward pass only when they actually
#: repeat; below this ratio the gather costs more than it saves.
_UNIQUE_ROW_RATIO = 0.8


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class SoftmaxRegression:
    """Multinomial logistic regression with L2 regularization.

    Parameters:
        C: inverse regularization strength (paper: 1.0).
        max_iter: L-BFGS iteration budget.
        tol: optimizer convergence tolerance.

    Attributes (after fit):
        classes_: sorted array of class labels.
        coef_: ``(n_classes, n_features)`` weight matrix.
        intercept_: ``(n_classes,)`` bias vector.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 300, tol: float = 1e-6) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.classes_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None

    # -- training ---------------------------------------------------------

    def fit(self, X: sp.spmatrix, y) -> SoftmaxRegression:
        """Fit on sparse features ``X`` and labels ``y`` (any hashables)
        with the deduplicated, preallocated objective through the direct
        ``setulb`` loop."""
        X = sp.csr_matrix(X)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        n_samples, n_features = X.shape
        n_classes = len(self.classes_)
        if n_classes < 2:
            # Degenerate but legal: a single observed class.  Predictions
            # will return that class with probability 1.
            self.coef_ = np.zeros((1, n_features))
            self.intercept_ = np.zeros(1)
            return self

        Y = np.zeros((n_samples, n_classes))
        Y[np.arange(n_samples), y_idx] = 1.0

        flat = _minimize_lbfgsb(
            self._fast_objective(X, Y),
            n_classes * n_features + n_classes,
            maxiter=self.max_iter,
            pgtol=self.tol,
        )
        self.coef_ = flat[: n_classes * n_features].reshape(n_classes, n_features)
        self.intercept_ = flat[n_classes * n_features :]
        return self

    def _fast_objective(self, X: sp.csr_matrix, Y: np.ndarray):
        """Preallocated, row-deduplicated closure.

        Every float is produced by the same operation sequence as the
        textbook closure (``logits = X @ W.T + b``, log-softmax, ``0.5 *
        sum(W * W) + C * -sum(Y * log_prob)``, ``grad_W = (X.T @ G).T +
        W``, ``grad_b = G.sum(0)``): the forward matvec replicates
        ``_matmul_multivector`` (zeroed output + ``csr_matvecs`` on a
        C-contiguous ``W.T``), row-level ops are computed once per
        *distinct* row and gathered back (row-local math is identical),
        and full-matrix reductions (``sum(Y * log_prob)``, ``G.sum(0)``,
        ``Xt @ G``) still run over the expanded matrices in the original
        order.
        """
        n_samples, n_features = X.shape
        n_classes = Y.shape[1]
        C = self.C
        Xt = X.T.tocsr()
        t_indptr, t_indices, t_data = Xt.indptr, Xt.indices, Xt.data

        # -- duplicate-row collapse for the forward pass ------------------
        indptr, indices, data = X.indptr, X.indices, X.data
        row_group = np.empty(n_samples, dtype=np.intp)
        group_of: dict[bytes, int] = {}
        unique_rows: list[int] = []
        for row in range(n_samples):
            start, stop = indptr[row], indptr[row + 1]
            key = indices[start:stop].tobytes() + data[start:stop].tobytes()
            group = group_of.get(key)
            if group is None:
                group = len(group_of)
                group_of[key] = group
                unique_rows.append(row)
            row_group[row] = group
        n_unique = len(unique_rows)
        if n_unique <= _UNIQUE_ROW_RATIO * n_samples:
            forward = sp.csr_matrix(X[np.asarray(unique_rows)])
            expand: np.ndarray | None = row_group
        else:
            forward = X
            expand = None
        f_rows = forward.shape[0]
        f_indptr, f_indices, f_data = forward.indptr, forward.indices, forward.data

        # -- preallocated buffers ----------------------------------------
        logits = np.empty((f_rows, n_classes))
        row_max = np.empty((f_rows, 1))
        shifted = np.empty((f_rows, n_classes))
        exp_buf = np.empty((f_rows, n_classes))
        row_sum = np.empty((f_rows, 1))
        log_prob_rows = np.empty((f_rows, n_classes))
        prob_rows = np.empty((f_rows, n_classes))
        if expand is None:
            log_prob = log_prob_rows
            P = prob_rows
        else:
            log_prob = np.empty((n_samples, n_classes))
            P = np.empty((n_samples, n_classes))
        loss_buf = np.empty((n_samples, n_classes))
        G = np.empty((n_samples, n_classes))
        XtG = np.empty((n_features, n_classes))
        coef_size = n_classes * n_features
        logits_flat = logits.ravel()
        XtG_flat = XtG.ravel()
        XtG_T = XtG.T

        # Local bindings keep the per-evaluation interpreter overhead off
        # the 200+ L-BFGS iterations.
        matvecs = _sparsetools.csr_matvecs
        ascontiguous = np.ascontiguousarray
        add, subtract, multiply = np.add, np.subtract, np.multiply
        nmax, nsum, nexp, nlog, ntake = np.max, np.sum, np.exp, np.log, np.take
        empty = np.empty

        def objective(flat: np.ndarray):
            W = flat[:coef_size].reshape(n_classes, n_features)
            b = flat[coef_size:]
            # logits = X @ W.T + b, exactly as _matmul_multivector does it.
            Wt = ascontiguous(W.T)
            logits.fill(0.0)
            matvecs(
                f_rows, n_features, n_classes,
                f_indptr, f_indices, f_data, Wt.ravel(), logits_flat,
            )
            add(logits, b, out=logits)
            # log-softmax, one pass per distinct row.
            nmax(logits, axis=1, keepdims=True, out=row_max)
            subtract(logits, row_max, out=shifted)
            nexp(shifted, out=exp_buf)
            nsum(exp_buf, axis=1, keepdims=True, out=row_sum)
            nlog(row_sum, out=row_sum)
            subtract(shifted, row_sum, out=log_prob_rows)
            nexp(log_prob_rows, out=prob_rows)
            if expand is not None:
                ntake(log_prob_rows, expand, axis=0, out=log_prob)
                ntake(prob_rows, expand, axis=0, out=P)
            # Loss: full-matrix reductions in the reference order.
            multiply(Y, log_prob, out=loss_buf)
            data_loss = -nsum(loss_buf)
            reg_loss = 0.5 * nsum(W * W)
            loss = reg_loss + (data_loss if C == 1.0 else C * data_loss)
            # Gradient.  C == 1.0 multiplications are exact identities.
            subtract(P, Y, out=G)
            if C != 1.0:
                multiply(C, G, out=G)
            XtG.fill(0.0)
            matvecs(
                n_features, n_samples, n_classes,
                t_indptr, t_indices, t_data, G.ravel(), XtG_flat,
            )
            grad = empty(coef_size + n_classes)
            grad_W = grad[:coef_size].reshape(n_classes, n_features)
            add(XtG_T, W, out=grad_W)
            nsum(G, axis=0, out=grad[coef_size:])
            return loss, grad

        return objective

    # -- inference ----------------------------------------------------------

    def decision_function(self, X: sp.spmatrix) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(X @ self.coef_.T + self.intercept_)

    def predict_proba(self, X: sp.spmatrix) -> np.ndarray:
        """Class probabilities, rows summing to 1."""
        if self.classes_ is not None and len(self.classes_) == 1:
            return np.ones((X.shape[0], 1))
        return np.exp(_log_softmax(self.decision_function(X)))

    def predict(self, X: sp.spmatrix) -> np.ndarray:
        """Most probable class label per row."""
        if self.classes_ is None:
            raise RuntimeError("model is not fitted")
        if len(self.classes_) == 1:
            return np.repeat(self.classes_, X.shape[0])
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]


def _minimize_lbfgsb(objective, n: int, maxiter: int, pgtol: float) -> np.ndarray:
    """Unbounded L-BFGS-B from ``x0 = 0`` via direct ``setulb`` calls.

    Replicates ``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` for the
    exact configuration this module uses (``jac=True``, no bounds, no
    callback, options ``{maxiter, gtol}``): the same workspace layout,
    ``factr``/``pgtol``, task-code handling, and iteration/``maxfun``
    bookkeeping — so the evaluation sequence, and therefore the returned
    ``x``, match ``scipy.optimize.minimize`` bit for bit.  Falls back to
    ``scipy.optimize.minimize`` when the private interface is missing or
    refuses the call.
    """
    if _HAVE_FAST_LBFGSB:
        try:
            return _setulb_loop(objective, n, maxiter, pgtol)
        except TypeError:  # pragma: no cover - future setulb signature drift
            pass
    # Imported here, not at module level: the package init costs every
    # process ~0.2 s and ~25 MiB, and only this fallback needs it.
    import scipy.optimize  # pragma: no cover - fallback path

    result = scipy.optimize.minimize(  # pragma: no cover - fallback path
        objective,
        np.zeros(n),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "gtol": pgtol},
    )
    return result.x


def _setulb_loop(objective, n: int, maxiter: int, pgtol: float) -> np.ndarray:
    m = _LBFGSB_MAXCOR
    factr = _LBFGSB_FTOL / np.finfo(float).eps
    x = np.zeros(n, dtype=np.float64)
    low_bnd = np.zeros(n, dtype=np.float64)
    upper_bnd = np.zeros(n, dtype=np.float64)
    nbd = np.zeros(n, dtype=np.int32)
    f = np.array(0.0, dtype=np.float64)
    g = np.zeros(n, dtype=np.float64)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, dtype=np.float64)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29, dtype=np.float64)
    setulb = _lbfgsb_module.setulb

    n_iterations = 0
    n_evaluations = 0
    while True:
        g = g.astype(np.float64)
        setulb(
            m, x, low_bnd, upper_bnd, nbd, f, g, factr, pgtol, wa, iwa,
            task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == 3:
            # The minimization routine wants f and g at the current x.
            f, g = objective(x)
            n_evaluations += 1
        elif task[0] == 1:
            # New iteration; replicate scipy's stop bookkeeping.
            n_iterations += 1
            if n_iterations >= maxiter:
                task[0] = 5
                task[1] = 504
            elif n_evaluations > _LBFGSB_MAXFUN:
                task[0] = 5
                task[1] = 502
        else:
            break
    return x
