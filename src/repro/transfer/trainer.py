"""Training the cross-site global model.

The global model consumes the *same distant supervision* per-site
training does — topic identification, relation annotation, negative
sampling via :meth:`~repro.core.pipeline.CeresPipeline.cluster_examples`
— but pools the examples of many sites and represents every node with
``xfer:`` features only (:mod:`repro.transfer.features`).  What changes
between sites is exactly what the representation cannot see.

Training runs in two steps.  :func:`featurize_site` turns one site's
examples into :class:`SiteSamples` (feature-name rows and labels,
plain data) while the site's parsed pages are at hand; :func:`fit_global`
pools the sites' samples, vectorizes them and fits the classifier.
``run-corpus --train-global`` featurizes each site in the worker that
trained it and fits in the parent; ``train-global`` and the
leave-one-site-out evaluation run both steps in one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro import obs
from repro.core.annotation.examples import TrainingExample
from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline, CeresResult
from repro.dom.parser import Document
from repro.kb.store import KnowledgeBase
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression
from repro.transfer.features import TransferFeatureExtractor
from repro.transfer.model import GlobalCeresModel

__all__ = [
    "SiteExamples",
    "SiteSamples",
    "collect_site_examples",
    "featurize_site",
    "fit_global",
    "train_global",
    "train_global_from_corpus",
]


@dataclass
class SiteExamples:
    """One site's contribution to global training."""

    site: str
    documents: list[Document]
    examples: list[TrainingExample]

    @classmethod
    def from_result(
        cls,
        site: str,
        pipeline: CeresPipeline,
        documents: list[Document],
        result: CeresResult,
    ) -> SiteExamples:
        """Flatten an annotated site's per-cluster training examples: the
        stream per-site training consumes (same negatives, same RNG)."""
        examples = [
            example
            for _, cluster_examples in pipeline.cluster_examples(result)
            for example in cluster_examples
        ]
        return cls(site, documents, examples)


@dataclass
class SiteSamples:
    """One site's featurized contribution to global training: the
    ``xfer:`` feature-name row and the label of each example, in example
    order.  Plain data, so a corpus worker can ship it to its parent."""

    site: str
    #: the predicate names the features were built with (sorted).
    predicates: tuple[str, ...]
    samples: list[tuple[str, ...]]
    labels: list[str]


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
    return SiteExamples.from_result(
        site, pipeline, documents, pipeline.annotate(documents)
    )


def featurize_site(
    pool: SiteExamples, extractor: TransferFeatureExtractor
) -> SiteSamples:
    """The ``xfer:`` features and labels of one site's examples."""
    with obs.stage(
        "stage.global_samples", site=pool.site, examples=len(pool.examples)
    ):
        samples = [
            extractor.features(example.node, pool.documents[example.page_index])
            for example in pool.examples
        ]
    return SiteSamples(
        pool.site,
        extractor.predicates,
        samples,
        [example.label for example in pool.examples],
    )


def fit_global(
    sites: Iterable[SiteSamples], config: CeresConfig | None = None
) -> GlobalCeresModel:
    """Fit one global classifier over the pooled samples of many sites,
    in the order given.

    The sites' predicate names drive the predicate-name-overlap
    features and travel with the model, so every site must have been
    featurized with the same ones.
    """
    config = config or CeresConfig()
    pools = [site for site in sites if site.samples]
    if not pools:
        raise ValueError(
            "no training examples across sites — annotation produced nothing"
        )
    predicates = pools[0].predicates
    for site in pools:
        if site.predicates != predicates:
            raise ValueError(
                f"site {site.site!r} was featurized with predicates "
                f"{list(site.predicates)}, not {list(predicates)}"
            )
    samples = [sample for site in pools for sample in site.samples]
    labels = [label for site in pools for label in site.labels]
    with obs.stage("stage.train_global", sites=len(pools)) as stage:
        vectorizer = FeatureVectorizer()
        X = vectorizer.fit_transform_name_rows(samples)
        classifier = SoftmaxRegression(
            C=config.classifier_C, max_iter=config.classifier_max_iter
        )
        classifier.fit(X, labels)
        stage.set(examples=len(samples), features=vectorizer.n_features)
    registry = obs.metrics()
    registry.inc("transfer.train.sites", len(pools))
    registry.inc("transfer.train.examples", len(samples))
    return GlobalCeresModel(
        TransferFeatureExtractor(predicates, config), vectorizer, classifier, config
    )


def train_global(
    site_examples: Iterable[SiteExamples],
    predicates: Iterable[str],
    config: CeresConfig | None = None,
) -> GlobalCeresModel:
    """Fit one global classifier over the pooled examples of many sites:
    :func:`featurize_site` on each, then :func:`fit_global`.

    ``predicates`` (the vertical's ontology predicate names) drive the
    predicate-name-overlap features and travel with the model.
    """
    config = config or CeresConfig()
    extractor = TransferFeatureExtractor(predicates, config)
    return fit_global(
        [featurize_site(pool, extractor) for pool in site_examples], config
    )


def train_global_from_corpus(
    corpus: str | Path,
    kb: KnowledgeBase | None,
    *,
    config: CeresConfig | None = None,
    registry_root: str | Path | None = None,
    exclude: Iterable[str] = (),
    log: Callable[[str], None] | None = None,
    featurized: Mapping[str, SiteSamples] | None = None,
) -> tuple[GlobalCeresModel, Path | None]:
    """Train a global model over every site of a corpus.

    Sites pool in :func:`~repro.runtime.runner.discover_corpus` order.
    ``featurized`` holds the sites whose samples are already built
    (``run-corpus`` workers featurize each site they train); every other
    site is parsed, annotated and featurized here with ``kb``, which may
    be None when ``featurized`` covers the corpus.  ``exclude`` holds
    out sites; ``registry_root`` persists the model as the registry's
    global artifact.  Returns the model and the artifact path (None when
    not persisted).
    """
    # Lazy import: the runner stack pulls in the serving layer, which
    # imports this package lazily in turn — keep module import acyclic.
    from repro.runtime.runner import discover_corpus, load_site_documents

    config = config or CeresConfig()
    emit = log or (lambda message: None)
    excluded = set(exclude)
    featurized = featurized or {}
    extractor: TransferFeatureExtractor | None = None
    pools: list[SiteSamples] = []
    for spec in discover_corpus(corpus):
        if spec.site in excluded:
            continue
        samples = featurized.get(spec.site)
        if samples is None:
            if extractor is None:
                extractor = TransferFeatureExtractor(kb.ontology.names(), config)
            documents = load_site_documents(spec.pages_dir)
            samples = featurize_site(
                collect_site_examples(spec.site, kb, documents, config),
                extractor,
            )
            emit(
                f"site={spec.site} pages={len(documents)} "
                f"examples={len(samples.labels)}"
            )
            for document in documents:
                document.release()
        pools.append(samples)
    model = fit_global(pools, config)
    path: Path | None = None
    if registry_root is not None:
        from repro.runtime.registry import ModelRegistry

        path = ModelRegistry(registry_root).save_global(model)
        emit(f"global model -> {path}")
    return model, path
