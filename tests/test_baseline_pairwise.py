"""Tests for repro.baselines.ceres_baseline (pairwise distant supervision)."""

import pytest

from reference_chain import baseline_pair_features, fit_dict_samples
from repro.baselines.ceres_baseline import CeresBaseline, MemoryBudgetExceeded
from repro.core.config import CeresConfig
from repro.datasets import generate_swde, seed_kb_for
from repro.dom.parser import parse_html
from repro.kb.ontology import Ontology, Predicate
from repro.kb.store import KnowledgeBase
from repro.kb.triple import Entity, Value


def build_kb(n: int = 6) -> KnowledgeBase:
    ontology = Ontology([Predicate("directed_by", range_kind="entity")])
    kb = KnowledgeBase(ontology)
    for i in range(n):
        kb.add_entity(Entity(f"f{i}", f"Film Alpha {i} Beta", "film"))
        kb.add_entity(Entity(f"d{i}", f"Director Gamma {i}", "person"))
        kb.add_fact(f"f{i}", "directed_by", Value.entity(f"d{i}"))
    return kb


def film_page(i: int) -> str:
    return (
        "<html><body><div class='main'>"
        f"<h2 class='t'>Film Alpha {i} Beta</h2>"
        f"<div class='d'><span>By</span><span class='dv'>Director Gamma {i}</span></div>"
        "</div></body></html>"
    )


class TestAnnotation:
    def test_pairs_found(self):
        kb = build_kb()
        baseline = CeresBaseline(kb, CeresConfig())
        docs = [parse_html(film_page(i)) for i in range(4)]
        examples = baseline.annotate(docs)
        positives = [e for e in examples if e.label == "directed_by"]
        assert len(positives) == 4
        for example in positives:
            assert "Film Alpha" in example.subject_node.text
            assert "Director Gamma" in example.object_node.text

    def test_negative_pairs_sampled(self):
        kb = build_kb()
        baseline = CeresBaseline(kb, CeresConfig())
        docs = [parse_html(film_page(i)) for i in range(4)]
        examples = baseline.annotate(docs)
        assert any(e.label == "OTHER" for e in examples)

    def test_negatives_never_repeat_a_related_pair(self):
        """An OTHER example on a pair the KB relates would teach the
        classifier that the pair is unrelated."""
        kb = build_kb()
        baseline = CeresBaseline(kb, CeresConfig())
        docs = [parse_html(film_page(i)) for i in range(4)]
        examples = baseline.annotate(docs)
        pairs = {
            label: {(e.subject_node, e.object_node) for e in examples if e.label == label}
            for label in ("directed_by", "OTHER")
        }
        assert pairs["directed_by"] and pairs["OTHER"]
        assert not pairs["directed_by"] & pairs["OTHER"]

    def test_budget_exceeded(self):
        kb = build_kb()
        baseline = CeresBaseline(kb, CeresConfig(), pair_budget=0)
        docs = [parse_html(film_page(0))]
        with pytest.raises(MemoryBudgetExceeded):
            baseline.annotate(docs)


class TestFitExtract:
    def test_fit_and_extract(self):
        kb = build_kb(8)
        baseline = CeresBaseline(kb, CeresConfig())
        train = [parse_html(film_page(i)) for i in range(6)]
        baseline.fit(train)
        evaluation = [parse_html(film_page(i)) for i in (6, 7)]
        extractions = baseline.extract(evaluation)
        assert extractions
        for extraction in extractions:
            assert extraction.predicate == "directed_by"

    def test_unfitted_extract_raises(self):
        kb = build_kb()
        baseline = CeresBaseline(kb, CeresConfig())
        with pytest.raises(RuntimeError):
            baseline.extract_page(parse_html(film_page(0)))

    def test_no_examples_raises(self):
        kb = build_kb()
        baseline = CeresBaseline(kb, CeresConfig())
        docs = [parse_html("<html><body><p>nothing</p></body></html>")]
        with pytest.raises(ValueError):
            baseline.fit(docs)

    def test_extraction_pair_cap(self):
        kb = build_kb(8)
        baseline = CeresBaseline(kb, CeresConfig())
        baseline.fit([parse_html(film_page(i)) for i in range(6)])
        with pytest.raises(MemoryBudgetExceeded):
            baseline.extract_page(
                parse_html(film_page(7)), max_pairs_per_page=1
            )

    def test_page_without_entities(self):
        kb = build_kb(8)
        baseline = CeresBaseline(kb, CeresConfig())
        baseline.fit([parse_html(film_page(i)) for i in range(6)])
        doc = parse_html("<html><body><p>no entities at all</p></body></html>")
        assert baseline.extract_page(doc) == []


class TestReferenceChain:
    def test_pair_matrix_and_coefficients_match_reference(self):
        """Pair rows built from the walker vectorize to the matrix the
        per-node dicts give, and the fit's coefficients match the
        textbook fit's bit for bit."""
        dataset = generate_swde("book", n_sites=1, pages_per_site=8, seed=3)
        kb = seed_kb_for(dataset, 3)
        documents = [page.document for page in dataset.sites[0].pages]
        config = CeresConfig()
        baseline = CeresBaseline(kb, config).fit(documents)
        examples = CeresBaseline(kb, config).annotate(documents)
        pairs = [
            (e.subject_node, e.object_node, documents[e.page_index]) for e in examples
        ]
        X = baseline.vectorizer.transform_name_rows(
            [baseline._pair_features(*pair) for pair in pairs]
        )
        extractor = baseline.feature_extractor
        vectorizer, X_reference, classifier = fit_dict_samples(
            [baseline_pair_features(extractor, *pair) for pair in pairs],
            [e.label for e in examples],
            config,
        )
        assert extractor.frequent_strings
        assert baseline.vectorizer.vocabulary_ == vectorizer.vocabulary_
        assert X.indptr.tolist() == X_reference.indptr.tolist()
        assert X.indices.tolist() == X_reference.indices.tolist()
        assert X.data.tolist() == X_reference.data.tolist()
        assert list(baseline.classifier.classes_) == list(classifier.classes_)
        assert baseline.classifier.coef_.tobytes() == classifier.coef_.tobytes()
        assert (
            baseline.classifier.intercept_.tobytes() == classifier.intercept_.tobytes()
        )
        assert baseline.extract(documents)  # non-degenerate
