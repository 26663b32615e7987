"""CERES-Baseline: the original distant-supervision assumption (Section 5.2).

"This baseline operates on the original Distant Supervision Assumption;
that is, annotations are produced for all entity pairs on a page that are
involved in a triple in the seed KB. ... since there is no concept of a
page topic in this setting, our annotation must identify a pair of
subject-object nodes for a relation; to produce features for the pair, we
concatenate the features for each node. ... at extraction time ... we
identify potential entities on the page by string matching against the KB."

The paper reports this baseline running out of memory on the Movie
vertical ("could not complete run due to out-of-memory issue", Table 3).
We reproduce that failure mode with an explicit pair budget: when the
number of candidate annotations or extraction pairs exceeds the budget, a
:class:`MemoryBudgetExceeded` error is raised and the experiment records
``NA``, exactly as in the paper.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.config import CeresConfig
from repro.core.extraction.extractor import Extraction
from repro.core.extraction.features import FeatureNameBatcher, NodeFeatureExtractor
from repro.dom.node import TextNode
from repro.dom.parser import Document
from repro.kb.matcher import PageMatcher
from repro.kb.ontology import OTHER_LABEL
from repro.kb.store import KnowledgeBase
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression

__all__ = ["MemoryBudgetExceeded", "CeresBaseline"]


class MemoryBudgetExceeded(RuntimeError):
    """Raised when the pairwise annotation/extraction space explodes."""


@dataclass
class _PairExample:
    page_index: int
    subject_node: TextNode
    object_node: TextNode
    label: str


class CeresBaseline:
    """Pairwise distantly supervised extractor."""

    def __init__(
        self,
        kb: KnowledgeBase,
        config: CeresConfig | None = None,
        pair_budget: int = 150_000,
    ) -> None:
        self.kb = kb
        self.config = config or CeresConfig()
        #: total candidate pairs the system may *examine* during annotation
        #: and extraction — the memory proxy (each examined pair costs a
        #: concatenated feature vector at paper scale).
        self.pair_budget = pair_budget
        self.matcher = PageMatcher(kb)
        self._relation_index: dict[tuple[str, tuple[str, str]], set[str]] = defaultdict(set)
        for triple in kb.triples:
            self._relation_index[(triple.subject, triple.object.key)].add(
                triple.predicate
            )
        self.feature_extractor: NodeFeatureExtractor | None = None
        self._batcher: FeatureNameBatcher | None = None
        self.vectorizer: FeatureVectorizer | None = None
        self.classifier: SoftmaxRegression | None = None
        self.examined_pairs = 0

    # -- annotation ------------------------------------------------------------

    def _candidate_nodes(
        self, document: Document
    ) -> tuple[list[tuple[TextNode, set[str]]], list[tuple[TextNode, set]]]:
        """(subject candidates, object candidates) for a page.

        Subject candidates are nodes matching KB *entities*; object
        candidates are nodes matching any KB value (entity or literal).
        """
        match = self.matcher.match(document)
        subjects: list[tuple[TextNode, set[str]]] = []
        objects: list[tuple[TextNode, set]] = []
        for node in document.text_fields():
            entities = match.entities_in_field(node)
            if entities:
                subjects.append((node, entities))
            keys = match.value_keys_in_field(node)
            if keys:
                objects.append((node, keys))
        return subjects, objects

    def _charge(self, n_pairs: int, context: str) -> None:
        self.examined_pairs += n_pairs
        if self.examined_pairs > self.pair_budget:
            raise MemoryBudgetExceeded(
                f"examined {self.examined_pairs} candidate pairs (> budget "
                f"{self.pair_budget}) during {context}"
            )

    def annotate(self, documents: list[Document]) -> list[_PairExample]:
        """All node pairs whose candidates share a KB triple.

        This is the original distant supervision assumption: no topic, no
        mention selection — every co-occurring related pair is labeled.
        """
        examples: list[_PairExample] = []
        rng = random.Random(self.config.random_seed)
        for page_index, document in enumerate(documents):
            subjects, objects = self._candidate_nodes(document)
            self._charge(len(subjects) * len(objects), f"annotation of page {page_index}")
            related: set[tuple[TextNode, TextNode]] = set()
            positives_on_page = 0
            for node_s, subject_ids in subjects:
                for node_o, object_keys in objects:
                    if node_s is node_o:
                        continue
                    predicates: set[str] = set()
                    for subject_id in subject_ids:
                        for object_key in object_keys:
                            predicates |= self._relation_index.get(
                                (subject_id, object_key), set()
                            )
                    if predicates:
                        related.add((node_s, node_o))
                    for predicate in sorted(predicates):
                        examples.append(
                            _PairExample(page_index, node_s, node_o, predicate)
                        )
                        positives_on_page += 1
            # Negative pairs: random non-related candidate pairs.
            if positives_on_page and subjects and len(objects) >= 2:
                wanted = self.config.negatives_per_positive * positives_on_page
                for _ in range(wanted):
                    node_s, _ = subjects[rng.randrange(len(subjects))]
                    node_o, _ = objects[rng.randrange(len(objects))]
                    if node_s is node_o or (node_s, node_o) in related:
                        continue
                    examples.append(
                        _PairExample(page_index, node_s, node_o, OTHER_LABEL)
                    )
        return examples

    # -- training -----------------------------------------------------------------

    def _pair_features(
        self, example_subject: TextNode, example_object: TextNode, document: Document
    ) -> tuple[str, ...]:
        """The pair's feature names: the subject's and the object's walker
        rows, prefixed ``s:`` and ``o:``."""
        assert self._batcher is not None
        return tuple(
            f"s:{name}" for name in self._batcher.row_for(example_subject, document)
        ) + tuple(
            f"o:{name}" for name in self._batcher.row_for(example_object, document)
        )

    def fit(self, documents: list[Document]) -> CeresBaseline:
        """Annotate pairs and train the pair classifier."""
        examples = self.annotate(documents)
        if not examples:
            raise ValueError("pairwise annotation produced no examples")
        self.feature_extractor = NodeFeatureExtractor(self.config).fit(documents)
        self._batcher = FeatureNameBatcher(self.feature_extractor)
        samples = [
            self._pair_features(e.subject_node, e.object_node, documents[e.page_index])
            for e in examples
        ]
        labels = [e.label for e in examples]
        self.vectorizer = FeatureVectorizer()
        X = self.vectorizer.fit_transform_name_rows(samples)
        self.classifier = SoftmaxRegression(
            C=self.config.classifier_C, max_iter=self.config.classifier_max_iter
        )
        self.classifier.fit(X, labels)
        return self

    # -- extraction -----------------------------------------------------------------

    def extract_page(
        self,
        document: Document,
        page_index: int = 0,
        threshold: float | None = None,
        max_pairs_per_page: int = 20_000,
    ) -> list[Extraction]:
        """Classify all candidate subject/object node pairs on a page."""
        if self.classifier is None or self.vectorizer is None:
            raise RuntimeError("baseline is not fitted")
        if threshold is None:
            threshold = self.config.confidence_threshold
        subjects, objects = self._candidate_nodes(document)
        if not subjects or not objects:
            return []
        n_pairs = len(subjects) * len(objects)
        if n_pairs > max_pairs_per_page:
            raise MemoryBudgetExceeded(
                f"{n_pairs} candidate pairs on one page exceeds the budget"
            )
        self._charge(n_pairs, f"extraction from page {page_index}")
        pairs = []
        samples = []
        for node_s, _ in subjects:
            for node_o, _ in objects:
                if node_s is node_o:
                    continue
                pairs.append((node_s, node_o))
                samples.append(self._pair_features(node_s, node_o, document))
        if not pairs:
            return []
        X = self.vectorizer.transform_name_rows(samples)
        probabilities = self.classifier.predict_proba(X)
        labels = list(self.classifier.classes_)
        best_columns = np.argmax(probabilities, axis=1)
        extractions: list[Extraction] = []
        for row, (node_s, node_o) in enumerate(pairs):
            column = int(best_columns[row])
            label = labels[column]
            confidence = float(probabilities[row, column])
            if label != OTHER_LABEL and confidence >= threshold:
                extractions.append(
                    Extraction(
                        subject=node_s.text.strip(),
                        predicate=label,
                        object=node_o.text.strip(),
                        confidence=confidence,
                        page_index=page_index,
                        node=node_o,
                    )
                )
        return extractions

    def extract(
        self, documents: list[Document], threshold: float | None = None
    ) -> list[Extraction]:
        results: list[Extraction] = []
        for page_index, document in enumerate(documents):
            results.extend(self.extract_page(document, page_index, threshold))
        return results
