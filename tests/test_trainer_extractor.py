"""Tests for repro.core.extraction.{trainer,extractor} (Sections 4.2-4.3)."""

import pytest

from repro.core.annotation.examples import TrainingExample
from repro.core.annotation.types import AnnotatedPage, Annotation
from repro.core.config import CeresConfig
from repro.core.extraction.extractor import CeresExtractor
from repro.core.extraction.trainer import CeresTrainer
from repro.dom.parser import parse_html
from repro.kb.ontology import NAME_PREDICATE, OTHER_LABEL


def site_page(i: int) -> str:
    return (
        "<html><body><div class='main'>"
        f"<h1 class='title'>Title Number {i}</h1>"
        f"<div class='row'><span class='label'>Director:</span>"
        f"<span class='dval'>Director {i}</span></div>"
        f"<div class='row'><span class='label'>Genre:</span>"
        f"<span class='gval'>Genre {i % 3}</span></div>"
        f"<p class='blurb'>Some free text {i}</p>"
        "</div></body></html>"
    )


def build_model(n_pages: int = 8):
    docs = [parse_html(site_page(i)) for i in range(n_pages)]
    examples = []
    for page_index, doc in enumerate(docs):
        fields = doc.text_fields()
        title = fields[0]
        director = next(f for f in fields if f.text.startswith("Director "))
        genre = next(f for f in fields if f.text.startswith("Genre "))
        blurb = next(f for f in fields if f.text.startswith("Some free"))
        label_a = next(f for f in fields if f.text == "Director:")
        examples.extend(
            [
                TrainingExample(page_index, title, NAME_PREDICATE),
                TrainingExample(page_index, director, "directed_by"),
                TrainingExample(page_index, genre, "genre"),
                TrainingExample(page_index, blurb, OTHER_LABEL),
                TrainingExample(page_index, label_a, OTHER_LABEL),
            ]
        )
    model = CeresTrainer(CeresConfig()).train(examples, docs)
    return model, docs


class TestTrainer:
    def test_labels_learned(self):
        model, _ = build_model()
        assert set(model.labels) == {NAME_PREDICATE, "directed_by", "genre", OTHER_LABEL}

    def test_empty_examples_raise(self):
        with pytest.raises(ValueError):
            CeresTrainer(CeresConfig()).train([], [])

    def test_predict_proba_shape(self):
        model, docs = build_model()
        [(nodes, probabilities)] = model.score_pages(docs[:1])
        assert nodes == docs[0].text_fields()
        assert probabilities.shape == (len(nodes), len(model.labels))


class TestExtractor:
    def test_extracts_unseen_page(self):
        model, _ = build_model()
        extractor = CeresExtractor(model, CeresConfig())
        new_doc = parse_html(site_page(99))
        extractions = extractor.extract_page(new_doc)
        by_predicate = {e.predicate: e.object for e in extractions}
        assert by_predicate.get("directed_by") == "Director 99"
        assert by_predicate.get("genre") == "Genre 0"
        for e in extractions:
            assert e.subject == "Title Number 99"

    def test_subject_is_name_node(self):
        model, _ = build_model()
        extractor = CeresExtractor(model, CeresConfig())
        candidates = extractor.candidates_for_page(parse_html(site_page(5)))
        assert candidates.subject == "Title Number 5"
        assert candidates.name_confidence > 0.5

    def test_threshold_filters(self):
        model, _ = build_model()
        extractor = CeresExtractor(model, CeresConfig())
        doc = parse_html(site_page(3))
        low = extractor.extract_page(doc, threshold=0.0)
        high = extractor.extract_page(doc, threshold=0.999999)
        assert len(high) <= len(low)

    def test_no_name_no_extractions(self):
        model, _ = build_model()
        candidates = extractor_candidates_without_name(model)
        assert candidates.extractions(0.5) == []

    def test_extract_multiple_pages(self):
        model, docs = build_model()
        extractor = CeresExtractor(model, CeresConfig())
        extractions = extractor.extract(docs[:3])
        assert {e.page_index for e in extractions} == {0, 1, 2}

    def test_candidates_rethresholding_consistent(self):
        model, docs = build_model()
        extractor = CeresExtractor(model, CeresConfig())
        candidates = extractor.candidates(docs[:4])
        direct = extractor.extract(docs[:4], threshold=0.7)
        via_candidates = [
            e for page in candidates for e in page.extractions(0.7)
        ]
        assert len(direct) == len(via_candidates)

    def test_empty_page(self):
        model, _ = build_model()
        extractor = CeresExtractor(model, CeresConfig())
        doc = parse_html("<html><body></body></html>")
        assert extractor.extract_page(doc) == []


def extractor_candidates_without_name(model):
    """Candidates object built from a page, with the name forced away."""
    from repro.core.extraction.extractor import PageCandidates

    return PageCandidates(page_index=0, subject=None, name_confidence=0.0,
                          candidates=[])
