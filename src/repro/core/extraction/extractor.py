"""Applying the trained model to pages — Section 4.3 of the paper.

"In extraction, we apply the logistic regression model we learned to all
DOM nodes on each page of the website.  When we are able to identify the
'name' node on a page, we consider the rest of the extractions from this
webpage as objects and use the text in the topic node as the subject for
those extracted triples."

The extractor exposes two granularities:

* :meth:`extract_page` — thresholded triples for one page;
* :meth:`candidates_for_page` — every (node, predicate, confidence)
  candidate regardless of threshold, which lets the confidence-sweep
  experiments (Figure 6) re-threshold without re-scoring.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clustering.templates import page_signature
from repro.core.config import CeresConfig
from repro.core.extraction.trainer import CeresModel
from repro.dom.node import TextNode
from repro.dom.parser import Document
from repro.kb.ontology import NAME_PREDICATE, OTHER_LABEL
from repro.text.distance import jaccard

__all__ = ["Extraction", "PageCandidates", "CeresExtractor", "ClusterExtractorPool"]


@dataclass
class Extraction:
    """One extracted triple with its provenance and confidence."""

    subject: str
    predicate: str
    object: str
    confidence: float
    page_index: int
    node: TextNode
    #: Which model family produced the triple: ``"site"`` for a per-site
    #: template model, ``"transfer"`` for the cross-site global model
    #: (zero-shot fallback serving, :mod:`repro.transfer`).
    model: str = "site"


@dataclass
class PageCandidates:
    """All scored nodes of one page, before thresholding."""

    page_index: int
    subject: str | None  # text of the identified name node, if any
    name_confidence: float
    #: (node, predicate, confidence) for the argmax non-OTHER class of
    #: every node other than the name node.
    candidates: list[tuple[TextNode, str, float]]

    def extractions(self, threshold: float) -> list[Extraction]:
        """Thresholded triples (empty when no name node was identified)."""
        if self.subject is None or self.name_confidence < threshold:
            return []
        return [
            Extraction(self.subject, predicate, node.text.strip(), confidence,
                       self.page_index, node)
            for node, predicate, confidence in self.candidates
            if confidence >= threshold
        ]


class CeresExtractor:
    """Applies a :class:`CeresModel` to pages.

    Scoring goes through
    :meth:`~repro.core.extraction.trainer.CeresModel.score_pages`: every
    call — single page or batch — builds one CSR matrix over all scored
    nodes and does one matmul.
    """

    def __init__(self, model: CeresModel, config: CeresConfig | None = None) -> None:
        self.model = model
        self.config = config or CeresConfig()
        labels = model.labels
        label_index = {label: i for i, label in enumerate(labels)}
        self._labels = labels
        self._name_column = label_index.get(NAME_PREDICATE)
        self._other_column = label_index.get(OTHER_LABEL)

    def _page_candidates(
        self, nodes: list[TextNode], probabilities: np.ndarray, page_index: int
    ) -> PageCandidates:
        """Candidates of one page from its nodes' class probabilities.

        The name node is the field with the highest ``name`` probability;
        every other field contributes its argmax non-OTHER, non-name class
        as a candidate extraction.
        """
        if not nodes:
            return PageCandidates(page_index, None, 0.0, [])
        labels = self._labels

        subject: str | None = None
        name_confidence = 0.0
        name_position = -1
        name_column = self._name_column
        if name_column is not None:
            name_position = int(np.argmax(probabilities[:, name_column]))
            name_confidence = float(probabilities[name_position, name_column])
            subject = nodes[name_position].text.strip()

        other_column = self._other_column
        # One vectorized argmax for the page; per-row ties break to the
        # lowest column, exactly as the per-row np.argmax did.
        best_columns = probabilities.argmax(axis=1)
        candidates: list[tuple[TextNode, str, float]] = []
        for row, node in enumerate(nodes):
            if row == name_position:
                continue
            best_column = int(best_columns[row])
            if best_column == other_column or best_column == name_column:
                continue
            candidates.append(
                (node, labels[best_column], float(probabilities[row, best_column]))
            )
        return PageCandidates(page_index, subject, name_confidence, candidates)

    def candidates_batch(
        self, documents: Sequence[Document], page_indices: Sequence[int]
    ) -> list[PageCandidates]:
        """Batched scoring of ``documents``, labelled with ``page_indices``
        (callers batching across clusters pass the original positions)."""
        return [
            self._page_candidates(nodes, probabilities, page_index)
            for (nodes, probabilities), page_index in zip(
                self.model.score_pages(documents), page_indices
            )
        ]

    def candidates_for_page(
        self, document: Document, page_index: int = 0
    ) -> PageCandidates:
        """Score every text field of a page."""
        return self.candidates_batch([document], [page_index])[0]

    def extract_page(
        self, document: Document, page_index: int = 0, threshold: float | None = None
    ) -> list[Extraction]:
        """Thresholded extractions for one page."""
        if threshold is None:
            threshold = self.config.confidence_threshold
        return self.candidates_for_page(document, page_index).extractions(threshold)

    def extract(
        self, documents: list[Document], threshold: float | None = None
    ) -> list[Extraction]:
        """Thresholded extractions for a list of pages (one batched score)."""
        if threshold is None:
            threshold = self.config.confidence_threshold
        results: list[Extraction] = []
        for page in self.candidates(documents):
            results.extend(page.extractions(threshold))
        return results

    def candidates(self, documents: list[Document]) -> list[PageCandidates]:
        """Unthresholded candidates for a list of pages (Figure 6 sweeps)."""
        return self.candidates_batch(documents, range(len(documents)))


class ClusterExtractorPool:
    """One :class:`CeresExtractor` per modeled template cluster.

    Extraction assigns each page to the cluster whose leader signature is
    most Jaccard-similar and scores it with that cluster's model.  The
    pool builds every extractor once up front (instead of one per page);
    assignment is a scan over the few cluster leaders, far cheaper than
    parsing the page, and a single-cluster pool skips it.  Both
    :meth:`repro.core.pipeline.CeresPipeline.extract` and the serving
    fast path (``repro.runtime.service.ExtractionService``) share it.
    """

    def __init__(
        self,
        clusters: Sequence[tuple[frozenset[str], CeresModel]],
        config: CeresConfig | None = None,
    ) -> None:
        """``clusters`` pairs each modeled cluster's leader signature with
        its trained model, in pipeline order (assignment tie-breaks keep
        that order, matching the original per-page loop)."""
        self.config = config or CeresConfig()
        self._signatures: list[frozenset[str]] = [sig for sig, _ in clusters]
        self._extractors: list[CeresExtractor] = [
            CeresExtractor(model, self.config) for _, model in clusters
        ]

    def __len__(self) -> int:
        return len(self._extractors)

    def __bool__(self) -> bool:
        return bool(self._extractors)

    def assign(self, signature: frozenset[str]) -> int | None:
        """Index of the most similar cluster, or None if empty."""
        if not self._extractors:
            return None
        return max(
            range(len(self._signatures)),
            key=lambda index: jaccard(signature, self._signatures[index]),
        )

    def extractor_for(self, document: Document) -> CeresExtractor | None:
        """The cached extractor for a page's nearest template cluster."""
        index = self.assign(page_signature(document))
        return None if index is None else self._extractors[index]

    def candidates_for_page(
        self, document: Document, page_index: int = 0
    ) -> PageCandidates:
        """Unthresholded candidates via the page's assigned cluster model."""
        extractor = self.extractor_for(document)
        if extractor is None:
            return PageCandidates(page_index, None, 0.0, [])
        return extractor.candidates_for_page(document, page_index)

    def candidates(self, documents: list[Document]) -> list[PageCandidates]:
        """Unthresholded candidates for a batch of pages.

        Pages are grouped by their assigned cluster and each group is
        scored with one batched call (one CSR matrix + one matmul per
        cluster model), then results are reassembled in input order —
        identical output to the per-page loop, a fraction of the cost.
        """
        if not self._extractors:
            return [
                PageCandidates(page_index, None, 0.0, [])
                for page_index in range(len(documents))
            ]
        if len(self._extractors) == 1:
            # Single modeled cluster: every page assigns to it regardless
            # of similarity — skip the signature traversal entirely.
            return self._extractors[0].candidates_batch(
                documents, range(len(documents))
            )
        groups: dict[int, list[int]] = {}
        for page_index, document in enumerate(documents):
            cluster = self.assign(page_signature(document))
            groups.setdefault(cluster, []).append(page_index)
        results: list[PageCandidates | None] = [None] * len(documents)
        for cluster, page_indices in groups.items():
            batch = self._extractors[cluster].candidates_batch(
                [documents[page_index] for page_index in page_indices],
                page_indices,
            )
            for page_index, page in zip(page_indices, batch):
                results[page_index] = page
        return results

    def extract(
        self, documents: list[Document], threshold: float | None = None
    ) -> list[Extraction]:
        """Thresholded extractions for a batch of pages."""
        if threshold is None:
            threshold = self.config.confidence_threshold
        results: list[Extraction] = []
        for page in self.candidates(documents):
            results.extend(page.extractions(threshold))
        return results
