"""Training the cross-site global model.

The global model consumes the *same distant supervision* per-site
training does — topic identification, relation annotation, negative
sampling via :meth:`~repro.core.pipeline.CeresPipeline.cluster_examples`
— but pools the examples of many sites and represents every node with
``xfer:`` features only (:mod:`repro.transfer.features`).  What changes
between sites is exactly what the representation cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro import obs
from repro.core.annotation.examples import TrainingExample
from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.dom.parser import Document
from repro.kb.store import KnowledgeBase
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression
from repro.transfer.features import TransferFeatureExtractor
from repro.transfer.model import GlobalCeresModel

__all__ = [
    "SiteExamples",
    "collect_site_examples",
    "train_global",
    "train_global_from_corpus",
]


@dataclass
class SiteExamples:
    """One site's contribution to global training."""

    site: str
    documents: list[Document]
    examples: list[TrainingExample]


def collect_site_examples(
    site: str,
    kb: KnowledgeBase,
    documents: list[Document],
    config: CeresConfig | None = None,
    annotator=None,
) -> SiteExamples:
    """Annotate one site and flatten its per-cluster training examples.

    Identical annotation path to per-site training (clustering, topics,
    relations, 3:1 negatives) — only the downstream representation
    differs.
    """
    pipeline = CeresPipeline(kb, config, annotator)
    result = pipeline.annotate(documents)
    examples = [
        example
        for _, cluster_examples in pipeline.cluster_examples(result)
        for example in cluster_examples
    ]
    return SiteExamples(site, documents, examples)


def train_global(
    site_examples: Iterable[SiteExamples],
    predicates: Iterable[str],
    config: CeresConfig | None = None,
) -> GlobalCeresModel:
    """Fit one global classifier over the pooled examples of many sites.

    ``predicates`` (the vertical's ontology predicate names) drive the
    predicate-name-overlap features and travel with the model.
    """
    config = config or CeresConfig()
    pools = [pool for pool in site_examples if pool.examples]
    if not pools:
        raise ValueError(
            "no training examples across sites — annotation produced nothing"
        )
    extractor = TransferFeatureExtractor(predicates, config)
    samples = []
    labels = []
    with obs.stage("stage.train_global", sites=len(pools)) as stage:
        for pool in pools:
            for example in pool.examples:
                samples.append(
                    extractor.features(
                        example.node, pool.documents[example.page_index]
                    )
                )
                labels.append(example.label)
        vectorizer = FeatureVectorizer()
        X = vectorizer.fit_transform(samples)
        classifier = SoftmaxRegression(
            C=config.classifier_C, max_iter=config.classifier_max_iter
        )
        classifier.fit(X, labels)
        stage.set(examples=len(samples), features=vectorizer.n_features)
    registry = obs.metrics()
    registry.inc("transfer.train.sites", len(pools))
    registry.inc("transfer.train.examples", len(samples))
    return GlobalCeresModel(extractor, vectorizer, classifier, config)


def train_global_from_corpus(
    corpus: str | Path,
    kb: KnowledgeBase,
    *,
    config: CeresConfig | None = None,
    registry_root: str | Path | None = None,
    exclude: Iterable[str] = (),
    log: Callable[[str], None] | None = None,
) -> tuple[GlobalCeresModel, Path | None]:
    """Train a global model over every site of a corpus.

    ``exclude`` holds out sites (the leave-one-site-out evaluation in
    :mod:`repro.evaluation.transfer_eval` trains N models this way);
    ``registry_root`` persists the model as the registry's global
    artifact.  Returns the model and the artifact path (None when not
    persisted).
    """
    # Lazy import: the runner stack pulls in the serving layer, which
    # imports this package lazily in turn — keep module import acyclic.
    from repro.runtime.runner import discover_corpus, load_site_documents

    config = config or CeresConfig()
    emit = log or (lambda message: None)
    excluded = set(exclude)
    predicates = kb.ontology.names()
    pools: list[SiteExamples] = []
    for spec in discover_corpus(corpus):
        if spec.site in excluded:
            continue
        documents = load_site_documents(spec.pages_dir)
        pool = collect_site_examples(spec.site, kb, documents, config)
        emit(
            f"site={spec.site} pages={len(documents)} "
            f"examples={len(pool.examples)}"
        )
        pools.append(pool)
    model = train_global(pools, predicates, config)
    path: Path | None = None
    if registry_root is not None:
        from repro.runtime.registry import ModelRegistry

        path = ModelRegistry(registry_root).save_global(model)
        emit(f"global model -> {path}")
    return model, path
