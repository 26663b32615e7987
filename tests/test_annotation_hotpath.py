"""Equivalence tests for the vectorized annotation and training path.

Annotations (interned-XPath batched Levenshtein, SurfaceIndex mention
gathering, bitset local evidence) must match the digests in
``tests/golden/annotation_digests.json``, which the pure-Python
implementations wrote (see ``tests/annotation_goldens.py``).  Models
(batched feature-name rows, the deduplicated direct-``setulb`` L-BFGS
solve) must match the per-node chain of ``tests/reference_chain.py``
bit for bit, on the installed numpy/scipy.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from annotation_goldens import (
    FIXTURES,
    duplication_kb_and_pages,
    goldens,
    imdb_fixture,
    random_mention_sets,
    result_digest,
    swde_fixture,
)
from reference_chain import (
    fit_dicts,
    model_fingerprint,
    node_features,
    reference_fit,
    reference_train,
    transform_dicts,
)
from repro.core.annotation.relation import RelationAnnotator
from repro.core.annotation.topic import TopicIdentifier
from repro.core.config import CeresConfig
from repro.core.extraction.features import FeatureNameBatcher, NodeFeatureExtractor
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_imdb, generate_swde, seed_kb_for
from repro.kb.surfaces import SurfaceIndex
from repro.dom.parser import parse_html
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression


def assert_golden(fixture_id):
    assert FIXTURES[fixture_id](False) == goldens()[fixture_id], fixture_id


def assert_trains_like_reference_chain(kb, documents, config=None):
    """Annotate and train, refit every cluster through the per-node
    reference chain, and return the run."""
    config = config or CeresConfig()
    pipeline = CeresPipeline(kb, config)
    result = pipeline.annotate(documents)
    pipeline.train(documents, result)
    per_cluster = pipeline.cluster_examples(result)
    assert per_cluster  # non-degenerate
    for cluster, examples in per_cluster:
        reference = reference_train(examples, documents, config)
        assert model_fingerprint(cluster.model) == model_fingerprint(reference)
    return result


class TestEndToEndEquivalence:
    def test_swde_byte_identical(self):
        result = assert_trains_like_reference_chain(*swde_fixture())
        assert result.annotated_pages
        assert result_digest(result) == goldens()["swde"]

    def test_imdb_byte_identical(self):
        result = assert_trains_like_reference_chain(*imdb_fixture())
        assert result_digest(result) == goldens()["imdb"]

    @pytest.mark.parametrize("fixture_id", ["scaled-swde-quick", "hazard-quick"])
    def test_benchmark_fixtures_match_goldens(self, fixture_id):
        """The annotation hot-path benchmark's fixtures, at a tenth of its
        scaled SWDE and a quarter of its hazard page counts."""
        assert_golden(fixture_id)

    def test_goldens_cover_every_fixture(self):
        assert sorted(goldens()) == sorted(FIXTURES)


class TestAnnotatorEquivalence:
    def test_duplicated_mentions_identical(self):
        assert_golden("duplicated-mentions")

    def test_best_local_mentions_matches_legacy_on_random_doms(self):
        """Local evidence over seeded random mention sets chooses what the
        frozenset-union implementation chose."""
        assert_golden("random-doms")
        kb, pages = duplication_kb_and_pages(4)
        annotator = RelationAnnotator(kb, CeresConfig())
        chosen = [
            annotator.best_local_mentions(*draw) for draw in random_mention_sets(pages)
        ]
        assert any(len(best) > 1 for best in chosen)  # ties are exercised

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
                reference = node_features(extractor, node, document)
                assert set(row) == set(reference), node.xpath

    def test_rows_survive_cache_guard_clears(self, monkeypatch):
        """With a tiny cache limit the walker resets its intern tables
        between nearly every row; rows must still match the reference (an
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
                assert set(row) == set(node_features(extractor, node, document))

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
                dicts.append(node_features(extractor, node, document))
        fast_vectorizer = FeatureVectorizer()
        X_fast = fast_vectorizer.fit_transform_name_rows(rows)
        dict_vectorizer = fit_dicts(dicts)
        X_dicts = transform_dicts(dict_vectorizer, dicts)
        assert fast_vectorizer.vocabulary_ == dict_vectorizer.vocabulary_
        assert (X_fast != X_dicts).nnz == 0
        assert X_fast.indices.tolist() == X_dicts.indices.tolist()
        assert X_fast.indptr.tolist() == X_dicts.indptr.tolist()
        assert X_fast.data.tolist() == X_dicts.data.tolist()

    def test_site_and_tag_only_walkers_alternate_on_one_page(self):
        """A site model's walker and the global model's tag-only walker
        share each element's scratch slot.  Alternating node by node,
        twice over one page, each returns the rows it returns alone; the
        tag-only rows are the reference dicts' ``xfer:`` names."""
        dataset = generate_swde("movie", n_sites=1, pages_per_site=6, seed=7)
        documents = [page.document for page in dataset.sites[0].pages]
        config = CeresConfig()
        lexicon = NodeFeatureExtractor(config).fit(documents).frequent_strings
        assert lexicon
        html = dataset.sites[0].pages[0].html

        def site_walker():
            extractor = NodeFeatureExtractor(config)
            extractor.frequent_strings = set(lexicon)
            return FeatureNameBatcher(extractor)

        def tag_walker():
            return FeatureNameBatcher(
                NodeFeatureExtractor(config.replace(struct_attributes=()))
            )

        def alone(make_walker):
            document = parse_html(html)
            walker = make_walker()
            return [walker.row_for(node, document) for node in document.text_fields()]

        site_alone, tag_alone = alone(site_walker), alone(tag_walker)
        assert any(name.startswith("site:t|") for row in site_alone for name in row)

        document = parse_html(html)
        unfitted = NodeFeatureExtractor(config)
        for node, row in zip(document.text_fields(), tag_alone):
            expected = {
                name
                for name in node_features(unfitted, node, document)
                if name.startswith("xfer:")
            }
            assert set(row) == expected and len(row) == len(expected)
        site, tag = site_walker(), tag_walker()
        for _ in range(2):
            site_rows, tag_rows = [], []
            for node in document.text_fields():
                site_rows.append(site.row_for(node, document))
                tag_rows.append(tag.row_for(node, document))
            assert site_rows == site_alone
            assert tag_rows == tag_alone


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

    @staticmethod
    def assert_fits_like_reference(X, y, **params):
        fast = SoftmaxRegression(**params).fit(X, y)
        reference = reference_fit(X, y, **params)
        assert np.array_equal(fast.classes_, reference.classes_)
        assert np.array_equal(fast.coef_, reference.coef_)
        assert np.array_equal(fast.intercept_, reference.intercept_)

    @pytest.mark.parametrize("c_value", [1.0, 2.5])
    def test_fast_equals_reference(self, c_value):
        for seed, (m, n, k) in enumerate([(40, 12, 3), (150, 30, 5), (9, 4, 2)]):
            X, y = self._random_problem(seed, m, n, k)
            self.assert_fits_like_reference(X, y, C=c_value, max_iter=120)

    def test_non_unit_data_values(self):
        """Rows with equal sparsity but different values must not collapse."""
        X, y = self._random_problem(2, 60, 10, 3, unit_data=False)
        self.assert_fits_like_reference(X, y, max_iter=80)

    def test_single_class_degenerate(self):
        X = sp.csr_matrix(np.ones((4, 3)))
        self.assert_fits_like_reference(X, ["only"] * 4)
        model = SoftmaxRegression().fit(X, ["only"] * 4)
        assert model.predict_proba(X).tolist() == [[1.0]] * 4


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
        """Annotations under ``min_predicate_pages=2`` match those the
        pure-Python path wrote."""
        assert_golden("min-predicate-pages")
