"""Reference implementations the equivalence tests compare against.

Training and scoring run through one vectorized path in ``repro``: the
feature-row walker, the name-row vectorizer, the deduplicated L-BFGS
objective under a direct ``setulb`` loop, and ``score_pages``.  The
references here rebuild the textbook chain: one feature dict per node
(:func:`node_features`, Section 4.2 built node by node), dict
vectorization (:func:`fit_dicts`, :func:`transform_dicts`),
``predict_proba``, and the textbook loss and gradient under
``scipy.optimize.minimize``.  The same chain covers the cross-site
global model (the dicts filtered to ``xfer:`` plus the transfer
families) and CERES-Baseline (subject and object dicts, prefixed).
Both sides run on whatever numpy/scipy is installed, so the tests
compare their floats bit for bit without pinning any to one build.

``tests/test_annotation_hotpath.py``, ``tests/test_scoring_engine.py``,
``tests/test_transfer.py``, ``tests/test_baseline_pairwise.py`` and the
two hot-path benchmarks import this module.
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
from repro.transfer.features import (
    _DEPTH_CAP,
    _LAYOUT_BUCKETS,
    TransferFeatureExtractor,
    predicate_tokens,
    shape_classes,
)
from repro.transfer.model import GlobalCeresModel

# -- per-node feature dicts (Section 4.2) -------------------------------------


def node_features(extractor: NodeFeatureExtractor, node, document) -> dict[str, float]:
    """The feature dict of one text node: Vertex-style structural
    4-tuples over the parent, its ancestors and their sibling windows,
    then the nearby frequent strings of ``extractor``'s lexicon."""
    config = extractor.config
    result: dict[str, float] = {}
    element = node.parent
    level = 0
    while element is not None and level <= config.struct_ancestor_levels:
        _attribute_features(config, element, level, 0, result)
        parent = element.parent
        if parent is not None:
            siblings = parent.element_children()
            position = element.element_index
            # A hand-assembled tree may leave a stale index: no siblings.
            if position < len(siblings) and siblings[position] is element:
                width = config.struct_sibling_width
                for offset in range(-width, width + 1):
                    index = position + offset
                    if offset and 0 <= index < len(siblings):
                        _attribute_features(
                            config, siblings[index], level, offset, result
                        )
        element = parent
        level += 1
    if extractor.frequent_strings:
        registry = extractor.registry_for(document)
        element = node.parent
        ups = 0
        while element is not None and ups <= config.text_feature_height:
            for text, down_path in registry.get(id(element), ()):
                result[f"site:t|{text}|u{ups}|{down_path}"] = 1.0
            element = element.parent
            ups += 1
    return result


def _attribute_features(config, element, level, sibling, result) -> None:
    result[f"xfer:s|tag|{element.tag}|{level}|{sibling}"] = 1.0
    for attribute in config.struct_attributes:
        value = element.attrs.get(attribute)
        if value:
            result[f"site:s|{attribute}|{value}|{level}|{sibling}"] = 1.0


# -- dict vectorization ------------------------------------------------------


def fit_dicts(samples) -> FeatureVectorizer:
    """A vectorizer over every key of ``samples``, sorted."""
    names: set[str] = set()
    for sample in samples:
        names.update(sample)
    vectorizer = FeatureVectorizer()
    vectorizer.vocabulary_ = {name: index for index, name in enumerate(sorted(names))}
    vectorizer._fitted = True
    return vectorizer


def transform_dicts(vectorizer: FeatureVectorizer, samples) -> sp.csr_matrix:
    """One CSR row per feature dict: its known keys' columns, ascending,
    with their nonzero values."""
    vocabulary = vectorizer.vocabulary_
    indices: list[int] = []
    data: list[float] = []
    indptr = [0]
    for sample in samples:
        for column, value in sorted(
            (column, value)
            for name, value in sample.items()
            if value and (column := vocabulary.get(name)) is not None
        ):
            indices.append(column)
            data.append(value)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int32),
        ),
        shape=(len(samples), len(vocabulary)),
    )


# -- the textbook fit --------------------------------------------------------


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


def fit_dict_samples(samples, labels, config):
    """Dict vectorization and :func:`reference_fit`: ``(vectorizer,
    matrix, classifier)``."""
    vectorizer = fit_dicts(samples)
    X = transform_dicts(vectorizer, samples)
    classifier = reference_fit(
        X, labels, C=config.classifier_C, max_iter=config.classifier_max_iter
    )
    return vectorizer, X, classifier


# -- per-site models ---------------------------------------------------------


def reference_train(examples, documents, config) -> CeresModel:
    """``CeresTrainer.train`` through per-node feature dicts, dict
    vectorization and :func:`reference_fit`."""
    extractor = NodeFeatureExtractor(config).fit(documents)
    samples = [
        node_features(extractor, example.node, documents[example.page_index])
        for example in examples
    ]
    labels = [example.label for example in examples]
    vectorizer, _, classifier = fit_dict_samples(samples, labels, config)
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
    """Class probabilities per node: feature dicts, dict vectorization,
    ``predict_proba``."""
    samples = [node_features(model.feature_extractor, node, document) for node in nodes]
    return model.classifier.predict_proba(transform_dicts(model.vectorizer, samples))


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


# -- the cross-site global model ---------------------------------------------


def transfer_features(
    extractor: TransferFeatureExtractor, node, document, position, page_nodes
) -> dict[str, float]:
    """The global model's dict of one node: the per-node dict of an
    unfitted site extractor filtered to ``xfer:``, then depth, layout,
    shape and predicate-overlap names."""
    structural = NodeFeatureExtractor(extractor.config)
    result = {
        name: value
        for name, value in node_features(structural, node, document).items()
        if name.startswith("xfer:")
    }
    result[f"xfer:depth|{min(node.depth, _DEPTH_CAP)}"] = 1.0
    previous_text = ""
    if position is not None and page_nodes:
        n_fields = len(page_nodes)
        result[f"xfer:layout|pos|{(_LAYOUT_BUCKETS * position) // n_fields}"] = 1.0
        if position == 0:
            result["xfer:layout|first"] = 1.0
        if position == n_fields - 1:
            result["xfer:layout|last"] = 1.0
        if position > 0:
            previous_text = page_nodes[position - 1].text
    for shape in shape_classes(node.text):
        result[f"xfer:shape|{shape}"] = 1.0
    for text, context in ((node.text, "self"), (previous_text, "prev")):
        tokens = predicate_tokens(text)
        if not tokens:
            continue
        for predicate in extractor.predicates:
            wanted = predicate_tokens(predicate)
            if wanted and wanted <= tokens:
                result[f"xfer:pred|{predicate}|{context}|full"] = 1.0
            elif wanted & tokens:
                result[f"xfer:pred|{predicate}|{context}|part"] = 1.0
    return result


def transfer_page_features(extractor: TransferFeatureExtractor, document):
    """``(nodes, feature dicts)`` for a page's non-empty text fields."""
    nodes = [node for node in document.text_fields() if node.text.strip()]
    return nodes, [
        transfer_features(extractor, node, document, position, nodes)
        for position, node in enumerate(nodes)
    ]


def reference_train_global(site_examples, predicates, config) -> GlobalCeresModel:
    """``train_global`` through per-node transfer dicts, dict
    vectorization and :func:`reference_fit`."""
    extractor = TransferFeatureExtractor(predicates, config)
    samples, labels = [], []
    for pool in site_examples:
        for example in pool.examples:
            document = pool.documents[example.page_index]
            nodes = [node for node in document.text_fields() if node.text.strip()]
            position = next(
                (index for index, node in enumerate(nodes) if node is example.node),
                None,
            )
            samples.append(
                transfer_features(extractor, example.node, document, position, nodes)
            )
            labels.append(example.label)
    vectorizer, _, classifier = fit_dict_samples(samples, labels, config)
    return GlobalCeresModel(extractor, vectorizer, classifier, config)


def reference_global_probabilities(model: GlobalCeresModel, document) -> np.ndarray:
    """The global model's class probabilities for a page's nodes."""
    _, samples = transfer_page_features(model.feature_extractor, document)
    return model.classifier.predict_proba(transform_dicts(model.vectorizer, samples))


# -- CERES-Baseline ----------------------------------------------------------


def baseline_pair_features(extractor, subject, obj, document) -> dict[str, float]:
    """A node pair's dict: the subject's and the object's per-node
    dicts, keys prefixed ``s:`` and ``o:``."""
    features = {
        f"s:{name}": value
        for name, value in node_features(extractor, subject, document).items()
    }
    for name, value in node_features(extractor, obj, document).items():
        features[f"o:{name}"] = value
    return features
