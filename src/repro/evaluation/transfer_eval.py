"""Leave-one-site-out evaluation of the cross-site transfer model.

The per-site CERES model cannot say anything about a site it never
trained on; the global model (:mod:`repro.transfer`) claims it can,
because its ``xfer:`` representation contains nothing site-specific.
This module puts a number on that claim the way ZeroShotCeres does:
**leave-one-site-out** (LOSO) over a multi-site vertical.  For each site
in the dataset, a global model is trained on every *other* site and
evaluated zero-shot on the held-out one, scored node-level against the
generated ground truth (:func:`~repro.evaluation.scoring.
extraction_precision` — the same strict protocol Table 8 uses).

Annotation and featurization are site-local, so each site is annotated
(:func:`~repro.transfer.trainer.collect_site_examples`) and featurized
(:func:`~repro.transfer.trainer.featurize_site`) exactly once, and the N
folds re-pool the cached samples (:func:`~repro.transfer.trainer.
fit_global`) — N models, one annotation pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CeresConfig
from repro.datasets.swde import SWDEDataset
from repro.evaluation.report import format_table
from repro.evaluation.scoring import extraction_precision
from repro.kb.store import KnowledgeBase
from repro.transfer.features import TransferFeatureExtractor
from repro.transfer.trainer import collect_site_examples, featurize_site, fit_global

__all__ = ["TransferFold", "loso_folds", "format_loso_table"]


@dataclass
class TransferFold:
    """One held-out site's zero-shot result."""

    site: str
    n_pages: int
    n_train_sites: int
    n_train_examples: int
    correct: int
    total: int

    @property
    def precision(self) -> float | None:
        """Node-level precision; None when the fold extracted nothing."""
        if self.total == 0:
            return None
        return self.correct / self.total


def loso_folds(
    dataset: SWDEDataset,
    kb: KnowledgeBase,
    config: CeresConfig | None = None,
    threshold: float | None = None,
) -> list[TransferFold]:
    """Run leave-one-site-out transfer over every site of ``dataset``.

    Each fold trains a global model on the other sites' pooled examples
    and extracts zero-shot from the held-out site's pages.
    """
    config = config or CeresConfig()
    extractor = TransferFeatureExtractor(kb.ontology.names(), config)
    featurized = [
        featurize_site(
            collect_site_examples(site.name, kb, site.documents(), config),
            extractor,
        )
        for site in dataset.sites
    ]

    folds: list[TransferFold] = []
    for index, site in enumerate(dataset.sites):
        train_sites = featurized[:index] + featurized[index + 1 :]
        model = fit_global(train_sites, config)
        held_out = site.documents()
        extractions = model.extract(held_out, threshold)
        correct, total = extraction_precision(extractions, list(site.pages))
        folds.append(
            TransferFold(
                site=site.name,
                n_pages=len(held_out),
                n_train_sites=len(train_sites),
                n_train_examples=sum(len(pool.labels) for pool in train_sites),
                correct=correct,
                total=total,
            )
        )
    return folds


def format_loso_table(folds: list[TransferFold]) -> str:
    """Render per-fold rows plus a micro-averaged total."""
    rows = []
    for fold in folds:
        precision = fold.precision
        rows.append(
            [
                fold.site,
                str(fold.n_pages),
                str(fold.n_train_sites),
                str(fold.total),
                "NA" if precision is None else f"{precision:.3f}",
            ]
        )
    correct = sum(fold.correct for fold in folds)
    total = sum(fold.total for fold in folds)
    rows.append(
        [
            "micro-avg",
            str(sum(fold.n_pages for fold in folds)),
            "-",
            str(total),
            "NA" if total == 0 else f"{correct / total:.3f}",
        ]
    )
    return format_table(
        ["held-out site", "pages", "train sites", "extractions", "precision"],
        rows,
        title="Zero-shot transfer: leave-one-site-out (node-level precision)",
    )
