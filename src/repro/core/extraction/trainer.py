"""Training the extraction classifier — Section 4.2 of the paper.

Bundles the fitted pieces into a :class:`CeresModel`: the node feature
extractor (with the site's frequent-string lexicon), the feature
vectorizer, and the multinomial logistic-regression classifier over
``{predicates} ∪ {name} ∪ {OTHER}``.

Training and scoring walk the DOM through one
:class:`~repro.core.extraction.features.FeatureNameBatcher`: training
vectorizes its name rows, and :meth:`CeresModel.score_pages` resolves
its row ids against the fitted vocabulary.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.annotation.examples import TrainingExample
from repro.core.config import CeresConfig
from repro.core.extraction.features import FeatureNameBatcher, NodeFeatureExtractor
from repro.dom.node import TextNode
from repro.dom.parser import Document
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression

__all__ = ["CeresModel", "CeresTrainer", "PageScores"]

#: Per-page scoring result: the scored text nodes and their class
#: probabilities (rows aligned with the node list).
PageScores = tuple[list[TextNode], np.ndarray]


@dataclass
class CeresModel:
    """A trained per-template extraction model."""

    feature_extractor: NodeFeatureExtractor
    vectorizer: FeatureVectorizer
    classifier: SoftmaxRegression

    def __post_init__(self) -> None:
        # The model's own walker: its row ids, and the column array the
        # scorer resolves for each, persist across score_pages calls.
        self._batcher = FeatureNameBatcher(self.feature_extractor)

    @property
    def labels(self) -> list[str]:
        return list(self.classifier.classes_)

    def score_pages(self, documents: Sequence[Document]) -> list[PageScores]:
        """Score every text field of every page with one matrix multiply.

        Returns one ``(nodes, probabilities)`` pair per document, in
        order; pages without text fields get an empty node list and a
        ``(0, n_classes)`` probability block.  Each row id is resolved
        against the vocabulary once per model: its sorted, duplicate-free
        columns — the canonical layout
        :meth:`FeatureVectorizer.transform_name_rows` emits — so the
        probabilities equal those of vectorizing the rows and calling
        ``predict_proba`` bit for bit.
        """
        # Resolved per call, so a model built before obs.enable() still
        # reports; when off, every record below is a no-op.
        registry = obs.metrics()
        batcher = self._batcher
        vocabulary = self.vectorizer.vocabulary_
        # C-backed growable buffers: row column indices and per-row
        # lengths; turned into the CSR arrays with zero-copy views.
        indices = array("i")
        lengths = array("i")
        page_nodes: list[list[TextNode]] = []
        with registry.timer("scoring.csr_build_seconds"):
            for document in documents:
                # text_fields() already excludes whitespace-only nodes.
                nodes = document.text_fields()
                page_nodes.append(nodes)
                for node in nodes:
                    # A row id is valid until the next row_id call.
                    row = batcher.row_id(node, document)
                    columns = batcher.row_columns[row]
                    if columns is None:
                        found = {
                            column
                            for name in batcher.rows[row]
                            if (column := vocabulary.get(name)) is not None
                        }
                        columns = array("i", sorted(found))
                        batcher.row_columns[row] = columns
                    indices.extend(columns)
                    lengths.append(len(columns))
            indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
            column_indices = np.empty(0, dtype=np.int32)
            if indices:
                np.cumsum(np.frombuffer(lengths, dtype=np.int32), out=indptr[1:])
                column_indices = np.frombuffer(indices, dtype=np.int32)
            matrix = sp.csr_matrix(
                (
                    np.ones(len(column_indices), dtype=np.float64),
                    column_indices,
                    indptr,
                ),
                shape=(len(lengths), len(vocabulary)),
            )
            matrix.has_sorted_indices = True
        with registry.timer("scoring.predict_seconds"):
            probabilities = self.classifier.predict_proba(matrix)
        registry.inc("scoring.batches")
        registry.inc("scoring.pages", len(documents))
        registry.inc("scoring.nodes", len(lengths))
        results: list[PageScores] = []
        offset = 0
        for nodes in page_nodes:
            results.append((nodes, probabilities[offset : offset + len(nodes)]))
            offset += len(nodes)
        return results


class CeresTrainer:
    """Fits a :class:`CeresModel` from training examples."""

    def __init__(self, config: CeresConfig | None = None) -> None:
        self.config = config or CeresConfig()

    def train(
        self,
        examples: list[TrainingExample],
        documents: list[Document],
    ) -> CeresModel:
        """Train on ``examples``; ``documents`` is the full template cluster
        (used to compile the frequent-string lexicon, which must reflect
        the whole site, not only annotated pages).

        This is the vectorized path: feature-name rows come batched from a
        :class:`~repro.core.extraction.features.FeatureNameBatcher`
        (interned template positions, shared row objects), land in the CSR
        matrix through the vectorizer's preallocated name-row path, and
        the classifier fits through the deduplicated fast objective.  The
        resulting model — vocabulary, matrix, and coefficients — is
        byte-identical to the textbook chain's (per-node feature dicts,
        dict vectorization, the textbook objective under
        ``scipy.optimize.minimize``; ``tests/reference_chain.py``).
        """
        if not examples:
            raise ValueError("no training examples — annotation produced nothing")
        extractor = NodeFeatureExtractor(self.config).fit(documents)
        batcher = FeatureNameBatcher(extractor)
        rows = [
            batcher.row_for(example.node, documents[example.page_index])
            for example in examples
        ]
        labels = [example.label for example in examples]
        vectorizer = FeatureVectorizer()
        X = vectorizer.fit_transform_name_rows(rows)
        classifier = SoftmaxRegression(
            C=self.config.classifier_C, max_iter=self.config.classifier_max_iter
        )
        classifier.fit(X, labels)
        return CeresModel(extractor, vectorizer, classifier)
