"""The serving fast path: cached extractors, no retraining, cold parity."""

import pytest

import repro.core.extraction.extractor as extractor_module
from repro.core.config import CeresConfig
from repro.core.extraction.extractor import CeresExtractor, ClusterExtractorPool
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_swde, seed_kb_for
from repro.runtime import (
    ExtractionService,
    ModelRegistry,
    RegistryError,
    SiteModel,
)


@pytest.fixture(scope="module")
def trained_site():
    dataset = generate_swde("movie", n_sites=2, pages_per_site=16, seed=4)
    kb = seed_kb_for(dataset, 4)
    site = dataset.sites[1]
    documents = [page.document for page in site.pages]
    config = CeresConfig()
    pipeline = CeresPipeline(kb, config)
    result = pipeline.run(documents, documents)
    assert result.extractions
    return site.name, config, documents, result


def _rows(extractions):
    return [
        (e.page_index, e.subject, e.predicate, e.object, e.confidence)
        for e in extractions
    ]


class CountingExtractor(CeresExtractor):
    constructed = 0

    def __init__(self, *args, **kwargs):
        type(self).constructed += 1
        super().__init__(*args, **kwargs)


@pytest.fixture()
def count_extractors(monkeypatch):
    CountingExtractor.constructed = 0
    monkeypatch.setattr(extractor_module, "CeresExtractor", CountingExtractor)
    return CountingExtractor


class TestWarmPathParity:
    def test_service_matches_pipeline(self, trained_site):
        site, config, documents, result = trained_site
        service = ExtractionService()
        service.add_site_model(SiteModel.from_result(site, config, result))
        warm = service.extract_pages(site, documents)
        assert _rows(warm) == _rows(result.extractions)

    def test_registry_backed_service_matches(self, trained_site, tmp_path):
        site, config, documents, result = trained_site
        registry = ModelRegistry(tmp_path / "models")
        registry.save(SiteModel.from_result(site, config, result))
        service = ExtractionService(registry)
        warm = service.extract_pages(site, documents)
        assert _rows(warm) == _rows(result.extractions)

    def test_threshold_override(self, trained_site):
        site, config, documents, result = trained_site
        service = ExtractionService()
        service.add_site_model(SiteModel.from_result(site, config, result))
        low = service.extract_pages(site, documents, threshold=0.5)
        high = service.extract_pages(site, documents, threshold=0.95)
        assert len(high) <= len(low)
        assert all(e.confidence >= 0.95 for e in high)

    def test_candidates_rethreshold(self, trained_site):
        site, config, documents, result = trained_site
        service = ExtractionService()
        service.add_site_model(SiteModel.from_result(site, config, result))
        pages = service.candidates(site, documents)
        assert len(pages) == len(documents)
        rethresholded = [e for page in pages for e in page.extractions(0.5)]
        assert _rows(rethresholded) == _rows(
            service.extract_pages(site, documents, threshold=0.5)
        )


class TestExtractorCaching:
    def test_pipeline_builds_one_extractor_per_cluster(
        self, trained_site, count_extractors
    ):
        _, config, documents, result = trained_site
        modeled = [c for c in result.cluster_results if c.model is not None]
        pool = ClusterExtractorPool(
            [(c.signature, c.model) for c in modeled], config
        )
        pool.candidates(documents)
        # One per cluster — not one per page (the old per-page behavior
        # would have constructed len(documents) of them).
        assert count_extractors.constructed == len(modeled)
        assert len(documents) > len(modeled)

    def test_service_reuses_pool_across_batches(self, trained_site, count_extractors):
        site, config, documents, result = trained_site
        service = ExtractionService()
        service.add_site_model(SiteModel.from_result(site, config, result))
        service.extract_pages(site, documents[:4])
        constructed_after_first = count_extractors.constructed
        service.extract_pages(site, documents[4:])
        assert count_extractors.constructed == constructed_after_first

    def test_single_cluster_skips_assignment(self, trained_site, monkeypatch):
        """One modeled cluster: every page must assign to it, so the
        batched path never computes a page signature."""
        site, config, documents, result = trained_site
        service = ExtractionService()
        service.add_site_model(SiteModel.from_result(site, config, result))
        pool = service.pool(site)
        assert len(pool) == 1

        def no_signature(document):
            raise AssertionError("single-cluster pool computed a signature")

        monkeypatch.setattr(extractor_module, "page_signature", no_signature)
        assert service.extract_pages(site, documents)

    def test_two_clusters_assign_to_nearest_leader(self, trained_site):
        """With several modeled clusters each page goes to its
        Jaccard-nearest leader, and the batched path agrees with the
        per-page one."""
        from repro.clustering.templates import page_signature
        from repro.text.distance import jaccard

        _, config, documents, result = trained_site
        # The fixture's other site: a second template with its own model.
        dataset = generate_swde("movie", n_sites=2, pages_per_site=16, seed=4)
        other = [page.document for page in dataset.sites[0].pages]
        other_result = CeresPipeline(seed_kb_for(dataset, 4), config).run(
            other, other
        )
        clusters = [
            (other_result.cluster_results[0].signature,
             other_result.cluster_results[0].model),
            (result.cluster_results[0].signature,
             result.cluster_results[0].model),
        ]
        pool = ClusterExtractorPool(clusters, config)
        batch = [page for pair in zip(other, documents) for page in pair]
        for position, document in enumerate(batch):
            signature = page_signature(document)
            similarity = [jaccard(signature, leader) for leader, _ in clusters]
            assert pool.assign(signature) == similarity.index(max(similarity))
            assert pool.assign(signature) == position % 2  # its own template

        def rows(pages):
            return [
                (page.page_index, page.subject, page.name_confidence,
                 [(id(node), label, score)
                  for node, label, score in page.candidates])
                for page in pages
            ]

        batched = pool.candidates(batch)
        assert rows(batched) == rows(
            pool.candidates_for_page(document, index)
            for index, document in enumerate(batch)
        )
        own = [CeresExtractor(model, config) for _, model in clusters]
        assert rows(batched) == rows(
            own[index % 2].candidates_for_page(document, index)
            for index, document in enumerate(batch)
        )


class TestServiceMisc:
    def test_no_registry_unknown_site(self):
        service = ExtractionService()
        with pytest.raises(RegistryError, match="no registry"):
            service.extract_pages("nowhere", [])

    def test_available_and_loaded_sites(self, trained_site, tmp_path):
        site, config, documents, result = trained_site
        registry = ModelRegistry(tmp_path / "models")
        registry.save(SiteModel.from_result(site, config, result))
        service = ExtractionService(registry)
        assert service.loaded_sites() == []
        assert service.available_sites() == [site]
        service.extract_pages(site, documents[:1])
        assert service.loaded_sites() == [site]

    def test_evict_then_reload(self, trained_site, tmp_path):
        site, config, documents, result = trained_site
        registry = ModelRegistry(tmp_path / "models")
        registry.save(SiteModel.from_result(site, config, result))
        service = ExtractionService(registry)
        first = service.extract_pages(site, documents)
        service.evict(site)
        assert service.loaded_sites() == []
        assert _rows(service.extract_pages(site, documents)) == _rows(first)

    def test_page_caches_bounded_across_batches(self, trained_site):
        """Serving keeps no per-page state: every batch's documents are
        freed once the caller drops them."""
        import gc
        import weakref

        from repro.dom.parser import parse_html
        from repro.dom.serialize import to_html

        site, config, documents, result = trained_site
        service = ExtractionService()
        service.add_site_model(SiteModel.from_result(site, config, result))
        served = []
        for _ in range(3):
            fresh = [parse_html(to_html(document.root)) for document in documents]
            assert service.extract_pages(site, fresh)
            served.extend(weakref.ref(document) for document in fresh)
            del fresh
        gc.collect()
        assert not [ref for ref in served if ref() is not None]

    def test_empty_site_model_extracts_nothing(self):
        service = ExtractionService()
        service.add_site_model(SiteModel("empty", CeresConfig(), []))
        assert service.extract_pages("empty", []) == []


class TestSiteResidency:
    def _site_model(self, name):
        return SiteModel(name, CeresConfig(), [])

    def test_lru_eviction_at_capacity(self):
        service = ExtractionService(max_resident_sites=2)
        for name in ("a", "b", "c"):
            service.add_site_model(self._site_model(name))
        assert service.loaded_sites() == ["b", "c"]
        assert service.cache_stats()["sites"]["evictions"] == 1

    def test_serving_refreshes_recency(self):
        service = ExtractionService(max_resident_sites=2)
        service.add_site_model(self._site_model("a"))
        service.add_site_model(self._site_model("b"))
        service.extract_pages("a", [])  # "a" becomes most recently served
        service.add_site_model(self._site_model("c"))
        assert service.loaded_sites() == ["a", "c"]

    def test_evicted_site_reloads_from_registry(self, trained_site, tmp_path):
        site, config, documents, result = trained_site
        registry = ModelRegistry(tmp_path / "models")
        registry.save(SiteModel.from_result(site, config, result))
        service = ExtractionService(registry, max_resident_sites=1)
        first = service.extract_pages(site, documents)
        service.add_site_model(self._site_model("crowder"))
        service.add_site_model(self._site_model("crowder2"))
        assert site not in service.loaded_sites()
        # Transparent reload: same site key serves identical rows again.
        assert _rows(service.extract_pages(site, documents)) == _rows(first)

    def test_evicted_in_memory_site_without_registry_errors(self):
        service = ExtractionService(max_resident_sites=1)
        service.add_site_model(self._site_model("a"))
        service.add_site_model(self._site_model("b"))
        with pytest.raises(RegistryError, match="no registry"):
            service.extract_pages("a", [])


class TestCacheStats:
    def test_stats_shape_and_counters(self, trained_site):
        site, config, documents, result = trained_site
        service = ExtractionService()
        service.add_site_model(SiteModel.from_result(site, config, result))
        service.extract_pages(site, documents)
        stats = service.cache_stats()
        assert stats["sites"]["size"] == 1
        for name in ("hits", "misses", "evictions", "size", "capacity"):
            assert name in stats["sites"]
        assert stats["per_site"] == {}

    def test_stats_do_not_touch_recency(self):
        service = ExtractionService(max_resident_sites=2)
        service.add_site_model(SiteModel("a", CeresConfig(), []))
        service.add_site_model(SiteModel("b", CeresConfig(), []))
        service.cache_stats()  # reading stats must not refresh "a" or "b"
        hits_before = service.cache_stats()["sites"]["hits"]
        assert service.cache_stats()["sites"]["hits"] == hits_before
