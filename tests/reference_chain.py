"""Reference implementations the equivalence tests compare against.

Training and scoring run through one vectorized path in ``repro``: the
feature-row walker, the name-row vectorizer, the deduplicated L-BFGS
objective under a direct ``setulb`` loop, and ``score_pages``.  The
references here rebuild the textbook chain from public pieces that stay
in ``repro`` (``NodeFeatureExtractor.features``,
``FeatureVectorizer.fit_transform``/``transform``, ``predict_proba``),
plus the textbook loss and gradient under ``scipy.optimize.minimize``.
Both sides run on whatever numpy/scipy is installed, so the tests
compare their floats bit for bit without pinning any to one build.

``tests/test_annotation_hotpath.py``, ``tests/test_scoring_engine.py``
and the two hot-path benchmarks import this module.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from repro.core.extraction.extractor import CeresExtractor, PageCandidates
from repro.core.extraction.features import NodeFeatureExtractor
from repro.core.extraction.trainer import CeresModel
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_objective(X: sp.csr_matrix, Y: np.ndarray, C: float):
    """The textbook multinomial loss ``0.5 ||W||^2 + C * NLL`` and its
    gradient over the flat ``[W.ravel(), b]`` vector."""
    n_features = X.shape[1]
    n_classes = Y.shape[1]
    Xt = X.T.tocsr()

    def objective(flat: np.ndarray):
        W = flat[: n_classes * n_features].reshape(n_classes, n_features)
        b = flat[n_classes * n_features :]
        logits = X @ W.T + b
        log_prob = _log_softmax(logits)
        data_loss = -np.sum(Y * log_prob)
        reg_loss = 0.5 * np.sum(W * W)
        loss = reg_loss + C * data_loss

        P = np.exp(log_prob)
        G = C * (P - Y)  # (n_samples, n_classes)
        grad_W = (Xt @ G).T + W
        grad_b = G.sum(axis=0)
        return loss, np.concatenate([grad_W.ravel(), grad_b])

    return objective


def reference_fit(
    X, y, C: float = 1.0, max_iter: int = 300, tol: float = 1e-6
) -> SoftmaxRegression:
    """A :class:`SoftmaxRegression` whose coefficients come from
    ``scipy.optimize.minimize`` (L-BFGS-B from zero) over
    :func:`reference_objective` — what ``fit`` must reproduce exactly."""
    X = sp.csr_matrix(X)
    model = SoftmaxRegression(C=C, max_iter=max_iter, tol=tol)
    model.classes_, y_idx = np.unique(np.asarray(y), return_inverse=True)
    n_samples, n_features = X.shape
    n_classes = len(model.classes_)
    if n_classes < 2:
        model.coef_ = np.zeros((1, n_features))
        model.intercept_ = np.zeros(1)
        return model
    Y = np.zeros((n_samples, n_classes))
    Y[np.arange(n_samples), y_idx] = 1.0
    flat = scipy.optimize.minimize(
        reference_objective(X, Y, C),
        np.zeros(n_classes * n_features + n_classes),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": tol},
    ).x
    model.coef_ = flat[: n_classes * n_features].reshape(n_classes, n_features)
    model.intercept_ = flat[n_classes * n_features :]
    return model


def reference_train(examples, documents, config) -> CeresModel:
    """``CeresTrainer.train`` through per-node feature dicts, dict
    vectorization and :func:`reference_fit`."""
    extractor = NodeFeatureExtractor(config).fit(documents)
    samples = [
        extractor.features(example.node, documents[example.page_index])
        for example in examples
    ]
    vectorizer = FeatureVectorizer()
    X = vectorizer.fit_transform(samples)
    classifier = reference_fit(
        X,
        [example.label for example in examples],
        C=config.classifier_C,
        max_iter=config.classifier_max_iter,
    )
    return CeresModel(extractor, vectorizer, classifier)


def model_fingerprint(model: CeresModel | None):
    """Everything a fitted model is made of, bytes for the floats."""
    if model is None:
        return None
    return (
        sorted(model.vectorizer.vocabulary_.items()),
        model.classifier.coef_.tobytes(),
        model.classifier.intercept_.tobytes(),
        list(model.classifier.classes_),
        sorted(model.feature_extractor.frequent_strings),
    )


def reference_probabilities(model: CeresModel, nodes, document) -> np.ndarray:
    """Class probabilities per node: feature dicts, ``transform``,
    ``predict_proba``."""
    samples = [model.feature_extractor.features(node, document) for node in nodes]
    return model.classifier.predict_proba(model.vectorizer.transform(samples))


def reference_page_candidates(
    extractor: CeresExtractor, document, page_index: int = 0
) -> PageCandidates:
    """One page's candidates through the per-node chain and the
    extractor's own candidate assembly."""
    nodes = [node for node in document.text_fields() if node.text.strip()]
    if not nodes:
        return PageCandidates(page_index, None, 0.0, [])
    probabilities = reference_probabilities(extractor.model, nodes, document)
    return extractor._page_candidates(nodes, probabilities, page_index)


def reference_pool_candidates(pool, documents) -> list[PageCandidates]:
    """``pool.candidates(documents)`` page by page through the reference
    chain; pages no cluster claims get no candidates."""
    pages = []
    for page_index, document in enumerate(documents):
        extractor = pool.extractor_for(document)
        if extractor is None:
            pages.append(PageCandidates(page_index, None, 0.0, []))
        else:
            pages.append(reference_page_candidates(extractor, document, page_index))
    return pages
