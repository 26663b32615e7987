"""The end-to-end CERES pipeline (Figure 3 of the paper).

For one website:

1. cluster pages into templates (Vertex-style, Section 2.1);
2. per cluster: identify page topics (Algorithm 1), annotate relations
   (Algorithm 2), apply the informativeness filter;
3. build training examples (negatives 3:1 with list exclusion) and train
   the multinomial logistic-regression node classifier;
4. extract from pages by assigning each to its template cluster's model.

The annotator is pluggable: the CERES-Topic baseline swaps in an
all-mentions annotator while reusing every other stage (see
``repro.baselines.ceres_topic``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.clustering.templates import cluster_pages, page_signature
from repro.core.annotation.examples import build_training_examples
from repro.core.annotation.relation import RelationAnnotator
from repro.core.annotation.topic import TopicIdentifier
from repro.core.annotation.types import AnnotatedPage, TopicResult
from repro.core.config import CeresConfig
from repro.core.extraction.extractor import (
    ClusterExtractorPool,
    Extraction,
    PageCandidates,
)
from repro.core.extraction.trainer import CeresModel, CeresTrainer
from repro.dom.parser import Document
from repro.kb.matcher import PageMatcher
from repro.kb.store import KnowledgeBase

__all__ = ["ClusterResult", "CeresResult", "CeresPipeline"]


@dataclass
class ClusterResult:
    """Everything learned from one template cluster."""

    page_indices: list[int]  # indices into the training document list
    signature: frozenset[str]  # leader-page signature (for assignment)
    topics: dict[int, TopicResult]
    annotated_pages: list[AnnotatedPage]
    model: CeresModel | None


@dataclass
class CeresResult:
    """Full pipeline output."""

    cluster_results: list[ClusterResult]
    #: merged topic assignments over all clusters (train page index → topic)
    topics: dict[int, TopicResult] = field(default_factory=dict)
    #: merged annotated pages over all clusters
    annotated_pages: list[AnnotatedPage] = field(default_factory=list)
    #: unthresholded candidates per extraction page
    candidates: list[PageCandidates] = field(default_factory=list)
    #: thresholded extractions (config.confidence_threshold)
    extractions: list[Extraction] = field(default_factory=list)
    #: template clusters dropped for falling below ``min_cluster_size``
    skipped_clusters: int = 0
    #: training-document indices of pages in those dropped clusters —
    #: recorded so small-cluster pages never vanish silently.
    skipped_page_indices: list[int] = field(default_factory=list)

    @property
    def skipped_pages(self) -> int:
        """Number of pages dropped with their undersized clusters."""
        return len(self.skipped_page_indices)

    @property
    def annotation_count(self) -> int:
        """Total relation annotations across annotated pages."""
        return sum(len(page.annotations) for page in self.annotated_pages)

    def extractions_at(self, threshold: float) -> list[Extraction]:
        """Re-threshold the cached candidates (no re-scoring)."""
        results: list[Extraction] = []
        for page in self.candidates:
            results.extend(page.extractions(threshold))
        return results


class CeresPipeline:
    """Annotate → train → extract for one website."""

    def __init__(
        self,
        kb: KnowledgeBase,
        config: CeresConfig | None = None,
        annotator=None,
    ) -> None:
        self.kb = kb
        self.config = config or CeresConfig()
        self.matcher = PageMatcher(kb, cache_size=self.config.page_match_cache_size)
        self.topic_identifier = TopicIdentifier(kb, self.config, self.matcher)
        self.annotator = annotator or RelationAnnotator(kb, self.config, self.matcher)
        self.trainer = CeresTrainer(self.config)

    # -- annotation ----------------------------------------------------------

    def annotate(self, documents: list[Document]) -> CeresResult:
        """Run clustering, topic identification, and relation annotation."""
        with obs.stage("stage.annotate", pages=len(documents)) as annotate_stage:
            result = self._annotate_instrumented(documents)
            annotate_stage.set(
                annotated_pages=len(result.annotated_pages),
                annotations=result.annotation_count,
                skipped_clusters=result.skipped_clusters,
            )
        registry = obs.metrics()
        registry.inc("pipeline.pages", len(documents))
        registry.inc("pipeline.annotated_pages", len(result.annotated_pages))
        registry.inc("pipeline.annotations", result.annotation_count)
        registry.inc("pipeline.skipped_clusters", result.skipped_clusters)
        registry.inc("pipeline.skipped_pages", result.skipped_pages)
        return result

    def _annotate_instrumented(self, documents: list[Document]) -> CeresResult:
        config = self.config
        if config.use_template_clustering:
            with obs.stage("stage.cluster", pages=len(documents)):
                clusters = cluster_pages(
                    documents, config.template_similarity_threshold
                )
        else:
            clusters = None

        cluster_results: list[ClusterResult] = []
        if clusters is None:
            groups = [(list(range(len(documents))), frozenset())]
            if documents:
                groups = [
                    (list(range(len(documents))), page_signature(documents[0]))
                ]
        else:
            groups = [
                (cluster.page_indices, cluster.signature) for cluster in clusters
            ]

        skipped_clusters = 0
        skipped_page_indices: list[int] = []
        for page_indices, signature in groups:
            if len(page_indices) < config.min_cluster_size:
                skipped_clusters += 1
                skipped_page_indices.extend(page_indices)
                continue
            cluster_documents = [documents[i] for i in page_indices]
            local_topics = self.topic_identifier.identify(cluster_documents)
            annotated = self.annotator.annotate(cluster_documents, local_topics)
            # Re-key page indices from cluster-local to global.
            global_topics = {
                page_indices[local]: TopicResult(
                    page_indices[local], topic.entity_id, topic.node, topic.score
                )
                for local, topic in local_topics.items()
            }
            for page in annotated:
                page.page_index = page_indices[page.page_index]
            cluster_results.append(
                ClusterResult(page_indices, signature, global_topics, annotated, None)
            )

        result = CeresResult(
            cluster_results,
            skipped_clusters=skipped_clusters,
            skipped_page_indices=sorted(skipped_page_indices),
        )
        for cluster in cluster_results:
            result.topics.update(cluster.topics)
            result.annotated_pages.extend(cluster.annotated_pages)
        return result

    # -- training --------------------------------------------------------------

    def train(self, documents: list[Document], result: CeresResult) -> CeresResult:
        """Fit one model per cluster with enough annotated pages.

        Example building is batched up front for every cluster (one pass
        over the shared negative-sampling RNG, in cluster order — exactly
        the stream the sequential loop consumed), then the models fit
        through the trainer's vectorized path.
        """
        with obs.stage("stage.train") as train_stage:
            per_cluster = self.cluster_examples(result)
            for cluster, examples in per_cluster:
                cluster.model = self.trainer.train(examples, documents)
            train_stage.set(clusters_trained=len(per_cluster))
        obs.metrics().inc("pipeline.clusters_trained", len(per_cluster))
        return result

    def cluster_examples(self, result: CeresResult):
        """Training examples per trainable cluster, built in one RNG pass.

        Public because the cross-site global trainer
        (:mod:`repro.transfer.trainer`) consumes the exact same example
        stream — same negative sampling, same RNG discipline — that
        per-site training does."""
        rng = random.Random(self.config.random_seed)
        per_cluster = []
        for cluster in result.cluster_results:
            if not cluster.annotated_pages:
                continue
            examples = build_training_examples(
                cluster.annotated_pages, self.config, rng
            )
            if examples:
                per_cluster.append((cluster, examples))
        return per_cluster

    # -- extraction ---------------------------------------------------------------

    def extract(
        self, result: CeresResult, documents: list[Document]
    ) -> CeresResult:
        """Score ``documents`` with their nearest cluster's model.

        Builds one extractor per modeled cluster up front (not one per
        page) via :class:`ClusterExtractorPool` — the same cached path the
        serving layer (``repro.runtime.service``) uses — and scores the
        whole document list in cluster-grouped batches (one CSR matrix and
        one matmul per cluster model, not one per page).
        """
        with obs.stage("stage.extract", pages=len(documents)) as extract_stage:
            pool = self.extractor_pool(result)
            result.candidates = []
            result.extractions = []
            if pool:
                result.candidates = pool.candidates(documents)
                for candidates in result.candidates:
                    result.extractions.extend(
                        candidates.extractions(self.config.confidence_threshold)
                    )
            extract_stage.set(extractions=len(result.extractions))
        obs.metrics().inc("pipeline.extractions", len(result.extractions))
        return result

    def extractor_pool(self, result: CeresResult) -> ClusterExtractorPool:
        """A ready-to-serve extractor pool over the trained clusters."""
        return ClusterExtractorPool(
            [
                (cluster.signature, cluster.model)
                for cluster in result.cluster_results
                if cluster.model is not None
            ],
            self.config,
        )

    # -- convenience ------------------------------------------------------------------

    def run(
        self,
        train_documents: list[Document],
        extract_documents: list[Document] | None = None,
    ) -> CeresResult:
        """Annotate and train on ``train_documents``; extract from
        ``extract_documents`` (default: the training documents, matching
        the paper's full-site extraction)."""
        result = self.annotate(train_documents)
        self.train(train_documents, result)
        targets = (
            extract_documents if extract_documents is not None else train_documents
        )
        return self.extract(result, targets)
