"""Equivalence tests: vectorized annotation/training hot path vs. legacy.

The vectorized engine (interned-XPath batched Levenshtein, SurfaceIndex
mention gathering, bitset local evidence, batched feature-name rows, the
deduplicated direct-``setulb`` L-BFGS solve) must reproduce the legacy
pure-Python path byte for byte: same annotations, same model vocabulary
and coefficients, same extractions — across the SWDE and IMDb fixtures
and randomized DOMs.
"""

import random

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.annotation.relation import RelationAnnotator
from repro.core.annotation.topic import TopicIdentifier
from repro.core.config import CeresConfig
from repro.core.extraction.features import FeatureNameBatcher, NodeFeatureExtractor
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_imdb, generate_swde, seed_kb_for
from repro.dom.parser import parse_html
from repro.kb.ontology import Ontology, Predicate
from repro.kb.store import KnowledgeBase
from repro.kb.surfaces import SurfaceIndex
from repro.kb.triple import Entity, Value
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression


def annotation_rows(result):
    return [
        (
            page.page_index,
            page.topic_entity_id,
            page.topic_node.xpath,
            annotation.predicate,
            annotation.node.xpath,
            annotation.object_key,
            annotation.object_text,
        )
        for page in result.annotated_pages
        for annotation in page.annotations
    ]


def model_fingerprint(result):
    out = []
    for cluster in result.cluster_results:
        model = cluster.model
        if model is None:
            out.append(None)
            continue
        out.append(
            (
                sorted(model.vectorizer.vocabulary_.items()),
                model.classifier.coef_.tobytes(),
                model.classifier.intercept_.tobytes(),
                list(model.classifier.classes_),
                sorted(model.feature_extractor.frequent_strings),
            )
        )
    return out


def extraction_rows(result):
    return [
        (e.page_index, e.subject, e.predicate, e.object, e.confidence)
        for e in result.extractions
    ]


def run_both(kb, documents, config=None):
    config = config or CeresConfig()
    fast_pipeline = CeresPipeline(kb, config)
    fast = fast_pipeline.annotate(documents)
    fast_pipeline.train(documents, fast)
    fast_pipeline.extract(fast, documents)
    legacy_pipeline = CeresPipeline(kb, config)
    legacy = legacy_pipeline.legacy_annotate(documents)
    legacy_pipeline.legacy_train(documents, legacy)
    legacy_pipeline.extract(legacy, documents)
    return fast, legacy


class TestEndToEndEquivalence:
    def test_swde_byte_identical(self):
        dataset = generate_swde("movie", n_sites=2, pages_per_site=24, seed=11)
        kb = seed_kb_for(dataset, 11)
        documents = [page.document for page in dataset.sites[1].pages]
        fast, legacy = run_both(kb, documents)
        assert annotation_rows(fast) == annotation_rows(legacy)
        assert annotation_rows(fast)  # non-degenerate
        assert model_fingerprint(fast) == model_fingerprint(legacy)
        assert extraction_rows(fast) == extraction_rows(legacy)
        assert extraction_rows(fast)

    def test_imdb_byte_identical(self):
        dataset = generate_imdb(seed=3, n_films=20, n_people=10, n_episodes=4)
        documents = [page.document for page in dataset.film_pages]
        fast, legacy = run_both(dataset.kb, documents)
        assert annotation_rows(fast) == annotation_rows(legacy)
        assert model_fingerprint(fast) == model_fingerprint(legacy)
        assert extraction_rows(fast) == extraction_rows(legacy)


def duplication_kb_and_pages(n_pages=10):
    """Pages with duplicated genre/cast mentions (Examples 3.1-3.2)."""
    ontology = Ontology(
        [
            Predicate("directed_by", range_kind="entity"),
            Predicate("has_cast_member", range_kind="entity", multi_valued=True),
            Predicate("genre", range_kind="string", multi_valued=True),
        ]
    )
    kb = KnowledgeBase(ontology)
    rng = random.Random(4)
    genres = ["Drama", "Comedy", "Action"]
    pages = []
    for i in range(n_pages):
        film = f"f{i}"
        kb.add_entity(Entity(film, f"Feature Film {i} Story", "film"))
        kb.add_entity(Entity(f"d{i}", f"Director Person {i}", "person"))
        kb.add_fact(film, "directed_by", Value.entity(f"d{i}"))
        page_genres = rng.sample(genres, 2)
        for genre in page_genres:
            kb.add_fact(film, "genre", Value.literal(genre))
        for j in range(3):
            kb.add_entity(Entity(f"a{i}_{j}", f"Actor Person {i} {j}", "person"))
            kb.add_fact(film, "has_cast_member", Value.entity(f"a{i}_{j}"))
        cast_items = "".join(
            f"<li class='cast'>Actor Person {i} {j}</li>" for j in range(3)
        )
        genre_spans = "".join(f"<span>{g}</span>" for g in page_genres)
        browse = "".join(f"<li class='bg'>{g}</li>" for g in genres)
        html = (
            f"<html><body><div class='main'>"
            f"<h1>Feature Film {i} Story</h1>"
            f"<div class='credit'><span>Director</span><span>Director Person {i}</span></div>"
            f"<div class='genres'>{genre_spans}</div>"
            f"<ul class='castlist'>{cast_items}</ul></div>"
            f"<aside><ul class='all'>{browse}</ul></aside></body></html>"
        )
        pages.append(parse_html(html))
    return kb, pages


class TestAnnotatorEquivalence:
    def test_duplicated_mentions_identical(self):
        kb, pages = duplication_kb_and_pages()
        config = CeresConfig()
        identifier = TopicIdentifier(kb, config)
        topics = identifier.identify(pages)
        assert topics
        annotator = RelationAnnotator(kb, config, identifier.matcher)
        fast = annotator.annotate(pages, topics)
        legacy = annotator.legacy_annotate(pages, topics)
        fast_rows = [
            (p.page_index, a.predicate, a.node.xpath, a.object_key)
            for p in fast
            for a in p.annotations
        ]
        legacy_rows = [
            (p.page_index, a.predicate, a.node.xpath, a.object_key)
            for p in legacy
            for a in p.annotations
        ]
        assert fast_rows == legacy_rows
        assert fast_rows

    def test_best_local_mentions_matches_legacy_on_random_doms(self):
        rng = random.Random(9)
        kb, pages = duplication_kb_and_pages(4)
        annotator = RelationAnnotator(kb, CeresConfig())
        for document in pages:
            fields = document.text_fields()
            for _ in range(20):
                k = rng.randint(2, min(5, len(fields)))
                mentions = rng.sample(fields, k)
                groups = [
                    rng.sample(fields, rng.randint(1, 3))
                    for _ in range(rng.randint(0, 4))
                ]
                assert annotator.best_local_mentions(
                    mentions, groups
                ) == annotator.legacy_best_local_mentions(mentions, groups)

    def test_single_mention_short_circuit(self):
        kb, pages = duplication_kb_and_pages(2)
        annotator = RelationAnnotator(kb, CeresConfig())
        field = pages[0].text_fields()[0]
        assert annotator.best_local_mentions([field], [[field]]) == [field]


class TestSurfaceIndex:
    def test_entries_match_legacy_expansion(self):
        dataset = generate_swde("movie", n_sites=1, pages_per_site=6, seed=3)
        kb = seed_kb_for(dataset, 3)
        index = SurfaceIndex(kb)
        from repro.text.fuzzy import surface_variants

        for subject in list(kb.subjects())[:20]:
            entries = index.entries_for_subject(subject)
            seen = set()
            expected = []
            for triple in kb.triples_for_subject(subject):
                key = (triple.predicate, triple.object.key)
                if key in seen:
                    continue
                seen.add(key)
                surfaces = kb.object_surfaces(triple)
                variants = set()
                for surface in surfaces:
                    variants |= surface_variants(surface)
                if not variants:
                    continue
                text = (
                    kb.entity(triple.object.value).name
                    if triple.object.is_entity
                    else triple.object.value
                )
                expected.append((triple.predicate, triple.object.key, text, variants))
            assert [
                (e.predicate, e.object_key, e.object_text, set(e.variants))
                for e in entries
            ] == expected

    def test_entries_cached(self):
        dataset = generate_swde("movie", n_sites=1, pages_per_site=4, seed=3)
        kb = seed_kb_for(dataset, 3)
        index = SurfaceIndex(kb)
        subject = next(iter(kb.subjects()))
        assert index.entries_for_subject(subject) is index.entries_for_subject(subject)


class TestBatchedFeatureRows:
    def test_row_sets_match_legacy_feature_dicts(self):
        dataset = generate_imdb(seed=5, n_films=8, n_people=6, n_episodes=2)
        documents = [page.document for page in dataset.film_pages]
        config = CeresConfig()
        extractor = NodeFeatureExtractor(config).fit(documents)
        batcher = FeatureNameBatcher(extractor)
        for document in documents:
            for node in document.text_fields():
                row = batcher.row_for(node, document)
                legacy = extractor.features(node, document)
                assert set(row) == set(legacy), node.xpath

    def test_rows_survive_cache_guard_clears(self, monkeypatch):
        """With a tiny cache limit the walker resets its intern tables
        between nearly every row; rows must still match the oracle (an
        id kept across a reset would name another row's names)."""
        import repro.core.extraction.features as features_module

        monkeypatch.setattr(features_module, "_BATCHER_CACHE_LIMIT", 2)
        dataset = generate_imdb(seed=5, n_films=6, n_people=5, n_episodes=2)
        documents = [page.document for page in dataset.film_pages]
        config = CeresConfig()
        extractor = NodeFeatureExtractor(config).fit(documents)
        batcher = FeatureNameBatcher(extractor)
        for document in documents:
            for node in document.text_fields():
                row = batcher.row_for(node, document)
                assert set(row) == set(extractor.features(node, document))

    def test_vectorizer_name_rows_match_dict_path(self):
        dataset = generate_swde("movie", n_sites=1, pages_per_site=6, seed=7)
        documents = [page.document for page in dataset.sites[0].pages]
        config = CeresConfig()
        extractor = NodeFeatureExtractor(config).fit(documents)
        batcher = FeatureNameBatcher(extractor)
        rows, dicts = [], []
        for document in documents:
            for node in document.text_fields():
                rows.append(batcher.row_for(node, document))
                dicts.append(extractor.features(node, document))
        fast_vectorizer = FeatureVectorizer()
        X_fast = fast_vectorizer.fit_transform_name_rows(rows)
        legacy_vectorizer = FeatureVectorizer()
        X_legacy = legacy_vectorizer.fit_transform(dicts)
        assert fast_vectorizer.vocabulary_ == legacy_vectorizer.vocabulary_
        assert (X_fast != X_legacy).nnz == 0
        assert X_fast.indices.tolist() == X_legacy.indices.tolist()
        assert X_fast.indptr.tolist() == X_legacy.indptr.tolist()


class TestFastFitEquivalence:
    def _random_problem(self, rng, m, n, k, unit_data=True):
        X = sp.random(m, n, density=0.15, format="csr", random_state=rng)
        if unit_data:
            X.data[:] = 1.0
        X.sum_duplicates()
        X.sort_indices()
        dup = X[np.random.RandomState(rng).randint(0, m, m // 2)] if m > 1 else X
        X = sp.vstack([X, dup]).tocsr()
        y = np.random.RandomState(rng + 1).randint(0, k, X.shape[0])
        return X, y

    @pytest.mark.parametrize("c_value", [1.0, 2.5])
    def test_fast_equals_reference(self, c_value):
        for seed, (m, n, k) in enumerate([(40, 12, 3), (150, 30, 5), (9, 4, 2)]):
            X, y = self._random_problem(seed, m, n, k)
            fast = SoftmaxRegression(C=c_value, max_iter=120).fit(X, y)
            reference = SoftmaxRegression(C=c_value, max_iter=120).fit(
                X, y, engine="reference"
            )
            assert np.array_equal(fast.coef_, reference.coef_)
            assert np.array_equal(fast.intercept_, reference.intercept_)

    def test_non_unit_data_values(self):
        """Rows with equal sparsity but different values must not collapse."""
        X, y = self._random_problem(2, 60, 10, 3, unit_data=False)
        fast = SoftmaxRegression(max_iter=80).fit(X, y)
        reference = SoftmaxRegression(max_iter=80).fit(X, y, engine="reference")
        assert np.array_equal(fast.coef_, reference.coef_)

    def test_single_class_degenerate(self):
        X = sp.csr_matrix(np.ones((4, 3)))
        model = SoftmaxRegression().fit(X, ["only"] * 4)
        assert model.predict_proba(X).tolist() == [[1.0]] * 4

    def test_unknown_engine_rejected(self):
        X = sp.csr_matrix(np.ones((4, 3)))
        with pytest.raises(ValueError):
            SoftmaxRegression().fit(X, [0, 1, 0, 1], engine="nope")


class TestMinPredicatePages:
    def _page_mentions_site(self, n_pages):
        """Tiny site where 'genre' objects repeat on every page."""
        kb, pages = duplication_kb_and_pages(n_pages)
        config_default = CeresConfig()
        identifier = TopicIdentifier(kb, config_default)
        topics = identifier.identify(pages)
        return kb, pages, identifier, topics

    def test_default_matches_legacy_hardcoded_floor(self):
        assert CeresConfig().min_predicate_pages == 4

    def test_floor_gates_over_representation(self):
        """An object on 2 of 3 pages is over-represented (>50%) only when
        the predicate clears the page floor — 3 pages is below the default
        floor of 4, so the default config never flags it."""
        from repro.core.annotation.relation import ObjectMentions

        kb, pages, identifier, topics = self._page_mentions_site(3)
        node = pages[0].text_fields()[0]
        page_mentions = {
            page_index: {
                "genre": [
                    ObjectMentions("genre", ("l", "Drama"), "Drama", [node])
                ]
                if page_index < 2
                else [
                    ObjectMentions("genre", ("l", "Action"), "Action", [node])
                ]
            }
            for page_index in range(3)
        }
        default_annotator = RelationAnnotator(kb, CeresConfig(), identifier.matcher)
        _, over_default = default_annotator._compute_global_stats(page_mentions)
        assert over_default == set()
        low_annotator = RelationAnnotator(
            kb, CeresConfig(min_predicate_pages=3), identifier.matcher
        )
        _, over_low = low_annotator._compute_global_stats(page_mentions)
        assert over_low == {("genre", ("l", "Drama"))}

    def test_legacy_and_fast_share_the_floor(self):
        kb, pages, identifier, topics = self._page_mentions_site(5)
        config = CeresConfig(min_predicate_pages=2)
        annotator = RelationAnnotator(kb, config, identifier.matcher)
        fast = annotator.annotate(pages, topics)
        legacy = annotator.legacy_annotate(pages, topics)
        assert [
            (p.page_index, a.predicate, a.node.xpath)
            for p in fast
            for a in p.annotations
        ] == [
            (p.page_index, a.predicate, a.node.xpath)
            for p in legacy
            for a in p.annotations
        ]
