"""The cross-site global model: zero-shot serving for unseen sites.

:class:`GlobalCeresModel` is the ``xfer:``-namespace counterpart of the
per-site :class:`~repro.core.extraction.trainer.CeresModel`: the same
softmax node classifier over ``{predicates} ∪ {name} ∪ {OTHER}``, but
fed exclusively by :class:`~repro.transfer.features.TransferFeatureExtractor`
and trained across *many* sites of a vertical
(:func:`repro.transfer.trainer.train_global`) — so it can score a site
no per-site artifact exists for.

It deliberately satisfies the model interface
:class:`~repro.core.extraction.extractor.CeresExtractor` consumes
(``labels`` + ``score_pages``), so candidate assembly — name-node
identification, argmax-non-OTHER candidates, thresholding — is the
per-site code path, not a fork of it.  Scoring vectorizes the
extractor's name rows: tag topology comes from a tag-only
:class:`~repro.core.extraction.features.FeatureNameBatcher`, and the
families that do not depend on the parent element alone (depth,
layout, predicate overlap, shape) are added per node.

Extractions are tagged ``model="transfer"`` so downstream consumers
(fusion, output rows, the serving tier's response label) can tell
reduced-precision zero-shot triples from per-site ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import CeresConfig
from repro.core.extraction.extractor import (
    CeresExtractor,
    Extraction,
    PageCandidates,
)
from repro.core.extraction.trainer import PageScores
from repro.dom.parser import Document
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression
from repro.transfer.features import TransferFeatureExtractor

__all__ = ["TRANSFER_MODEL", "GlobalCeresModel"]

#: Value of :attr:`Extraction.model` on triples served zero-shot.
TRANSFER_MODEL = "transfer"


@dataclass
class GlobalCeresModel:
    """A site-agnostic extraction model over the ``xfer:`` namespace."""

    feature_extractor: TransferFeatureExtractor
    vectorizer: FeatureVectorizer
    classifier: SoftmaxRegression
    config: CeresConfig

    def __post_init__(self) -> None:
        self._extractor: CeresExtractor | None = None

    @property
    def labels(self) -> list[str]:
        return list(self.classifier.classes_)

    # -- scoring (the CeresExtractor model interface) ----------------------

    def score_pages(self, documents: Sequence[Document]) -> list[PageScores]:
        """``(nodes, probabilities)`` per page via the name-row path."""
        results: list[PageScores] = []
        n_labels = len(self.classifier.classes_)
        for document in documents:
            nodes, rows = self.feature_extractor.page_features(document)
            if not nodes:
                results.append(([], np.empty((0, n_labels))))
                continue
            X = self.vectorizer.transform_name_rows(rows)
            results.append((nodes, self.classifier.predict_proba(X)))
        return results

    # -- extraction --------------------------------------------------------

    @property
    def extractor(self) -> CeresExtractor:
        """A (lazily built) extractor running candidate assembly over this
        model — :class:`CeresExtractor` only needs ``labels`` and
        ``score_pages``, both of which this class provides."""
        if self._extractor is None:
            self._extractor = CeresExtractor(self, self.config)
        return self._extractor

    def candidates(self, documents: list[Document]) -> list[PageCandidates]:
        """Unthresholded candidates per page."""
        return self.extractor.candidates(documents)

    def extract(
        self, documents: list[Document], threshold: float | None = None
    ) -> list[Extraction]:
        """Thresholded extractions, tagged ``model="transfer"``."""
        extractions = self.extractor.extract(documents, threshold)
        for extraction in extractions:
            extraction.model = TRANSFER_MODEL
        return extractions
