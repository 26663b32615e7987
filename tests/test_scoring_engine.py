"""Equivalence tests: batched scoring vs. the per-node reference chain.

Batched scoring (CeresModel.score_pages over the interned rows of
repro.core.extraction.features.FeatureNameBatcher) must reproduce the
per-node chain of ``tests/reference_chain.py`` (feature dicts →
vectorizer → predict_proba → the extractor's candidate assembly) to
full float precision: same subjects, same predicates, same confidences,
across the SWDE and IMDb fixtures, including pages with zero text
fields, single-class models, and walker resets under cache pressure.
"""

import numpy as np
import pytest

from reference_chain import (
    reference_page_candidates,
    reference_pool_candidates,
    reference_probabilities,
)
from repro.core.annotation.examples import TrainingExample
from repro.core.config import CeresConfig
from repro.core.extraction.extractor import CeresExtractor
from repro.core.extraction.trainer import CeresTrainer
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_imdb, generate_swde, seed_kb_for
from repro.dom.parser import parse_html
from repro.kb.ontology import NAME_PREDICATE, OTHER_LABEL


def assert_pages_identical(batched, reference):
    """Full-precision equality of two PageCandidates lists."""
    assert len(batched) == len(reference)
    for fast, slow in zip(batched, reference):
        assert fast.page_index == slow.page_index
        assert fast.subject == slow.subject
        assert fast.name_confidence == slow.name_confidence  # exact, not approx
        assert len(fast.candidates) == len(slow.candidates)
        for (node_f, pred_f, conf_f), (node_s, pred_s, conf_s) in zip(
            fast.candidates, slow.candidates
        ):
            assert node_f is node_s
            assert pred_f == pred_s
            assert conf_f == conf_s  # exact, not approx


def pool_vs_reference(pool, documents):
    return pool.candidates(documents), reference_pool_candidates(pool, documents)


class TestSWDEEquivalence:
    @pytest.fixture(scope="class")
    def swde_pool_and_docs(self):
        dataset = generate_swde("movie", n_sites=2, pages_per_site=14, seed=5)
        kb = seed_kb_for(dataset, 5)
        site = dataset.sites[0]
        documents = [page.document for page in site.pages]
        pipeline = CeresPipeline(kb, CeresConfig())
        result = pipeline.run(documents, documents)
        assert result.extractions, "fixture must actually extract"
        return pipeline.extractor_pool(result), documents

    def test_pool_candidates_identical(self, swde_pool_and_docs):
        pool, documents = swde_pool_and_docs
        batched, reference = pool_vs_reference(pool, documents)
        assert_pages_identical(batched, reference)

    def test_extractions_identical(self, swde_pool_and_docs):
        pool, documents = swde_pool_and_docs
        threshold = CeresConfig().confidence_threshold
        batched, reference = pool_vs_reference(pool, documents)
        fast_rows = [
            (e.subject, e.predicate, e.object, e.confidence, e.page_index)
            for page in batched
            for e in page.extractions(threshold)
        ]
        slow_rows = [
            (e.subject, e.predicate, e.object, e.confidence, e.page_index)
            for page in reference
            for e in page.extractions(threshold)
        ]
        assert fast_rows == slow_rows
        assert fast_rows  # non-degenerate

    def test_zero_text_field_page_in_batch(self, swde_pool_and_docs):
        pool, documents = swde_pool_and_docs
        empty = parse_html("<html><body><div class='x'></div></body></html>")
        mixed = [documents[0], empty, documents[1]]
        batched, reference = pool_vs_reference(pool, mixed)
        assert_pages_identical(batched, reference)
        assert batched[1].subject is None
        assert batched[1].candidates == []

    def test_unseen_template_pages(self, swde_pool_and_docs):
        """Pages from a different site still route and score identically."""
        pool, _ = swde_pool_and_docs
        other = generate_swde("movie", n_sites=2, pages_per_site=6, seed=9)
        documents = [page.document for page in other.sites[1].pages]
        batched, reference = pool_vs_reference(pool, documents)
        assert_pages_identical(batched, reference)

    def test_scores_survive_walker_resets(self, swde_pool_and_docs, monkeypatch):
        """With a bound of 2 nearly every row resets the walker's intern
        tables and the row columns resolved from them; scores across
        the fixture, unseen templates and the fixture again must still
        match the reference chain."""
        import repro.core.extraction.features as features_module

        resets = []
        reset = features_module.FeatureNameBatcher._reset

        def counting_reset(batcher):
            resets.append(batcher)
            reset(batcher)

        monkeypatch.setattr(features_module, "_BATCHER_CACHE_LIMIT", 2)
        monkeypatch.setattr(
            features_module.FeatureNameBatcher, "_reset", counting_reset
        )
        pool, documents = swde_pool_and_docs
        other = generate_swde("movie", n_sites=2, pages_per_site=6, seed=9)
        unseen = [page.document for page in other.sites[1].pages]
        for batch in (documents, unseen, documents):
            batched, reference = pool_vs_reference(pool, batch)
            assert_pages_identical(batched, reference)
        assert len(resets) > len(documents)


class TestIMDbEquivalence:
    def test_film_pages_identical(self):
        dataset = generate_imdb(seed=3, n_films=14, n_people=8, n_episodes=4)
        documents = [page.document for page in dataset.film_pages]
        pipeline = CeresPipeline(dataset.kb, CeresConfig())
        result = pipeline.run(documents, documents)
        pool = pipeline.extractor_pool(result)
        if not pool:
            pytest.skip("fixture trained no cluster model")
        batched, reference = pool_vs_reference(pool, documents)
        assert_pages_identical(batched, reference)


def tiny_page(i: int) -> str:
    return (
        "<html><body><div class='main'>"
        f"<h1 class='title'>Title {i}</h1>"
        f"<div class='row'><span class='label'>Director:</span>"
        f"<span class='dval'>Director {i}</span></div>"
        f"<p class='blurb'>Blurb {i}</p>"
        "</div></body></html>"
    )


class TestDirectModelEquivalence:
    def test_single_class_model(self):
        """A degenerate one-label model batches identically (probability 1)."""
        docs = [parse_html(tiny_page(i)) for i in range(6)]
        examples = [
            TrainingExample(i, doc.text_fields()[0], OTHER_LABEL)
            for i, doc in enumerate(docs)
        ]
        model = CeresTrainer(CeresConfig()).train(examples, docs)
        assert len(model.labels) == 1
        extractor = CeresExtractor(model, CeresConfig())
        for page_index, doc in enumerate(docs):
            fast = extractor.candidates_for_page(doc, page_index)
            slow = reference_page_candidates(extractor, doc, page_index)
            assert_pages_identical([fast], [slow])

    def test_predict_proba_for_pages_matches_per_node(self):
        docs = [parse_html(tiny_page(i)) for i in range(8)]
        examples = []
        for i, doc in enumerate(docs):
            fields = doc.text_fields()
            examples.append(TrainingExample(i, fields[0], NAME_PREDICATE))
            examples.append(
                TrainingExample(
                    i,
                    next(f for f in fields if f.text.startswith("Director ")),
                    "directed_by",
                )
            )
            examples.append(TrainingExample(i, fields[-1], OTHER_LABEL))
        model = CeresTrainer(CeresConfig()).train(examples, docs)
        batched = model.score_pages(docs)
        for doc, (_, fast) in zip(docs, batched):
            nodes = [n for n in doc.text_fields() if n.text.strip()]
            slow = reference_probabilities(model, nodes, doc)
            assert fast.shape == slow.shape
            assert np.array_equal(fast, slow)  # bitwise, not allclose

    def test_pipe_characters_in_attributes_and_text(self):
        """Attribute values and frequent strings that contain the name
        separator score exactly as on the per-node path."""

        def weird_page(i: int) -> str:
            return (
                "<html><body><div class='a|b|2|0'>"
                f"<h1 class='t|u1|'>Name|{i}</h1>"
                "<div class='row'><span class='l|bl'>Price|label:</span>"
                f"<span class='v'>Value {i}</span></div>"
                "</div></body></html>"
            )

        docs = [parse_html(weird_page(i)) for i in range(8)]
        examples = []
        for i, doc in enumerate(docs):
            fields = doc.text_fields()
            examples.append(TrainingExample(i, fields[0], NAME_PREDICATE))
            examples.append(TrainingExample(i, fields[-1], "price"))
            examples.append(TrainingExample(i, fields[1], OTHER_LABEL))
        config = CeresConfig(frequent_string_min_fraction=0.2)
        model = CeresTrainer(config).train(examples, docs)
        assert model.feature_extractor.frequent_strings  # text features active
        extractor = CeresExtractor(model, config)
        for page_index, doc in enumerate(docs):
            fast = extractor.candidates_for_page(doc, page_index)
            slow = reference_page_candidates(extractor, doc, page_index)
            assert_pages_identical([fast], [slow])

