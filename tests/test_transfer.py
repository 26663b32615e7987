"""Cross-site transfer: xfer-only features and zero-shot serving.

The contract under test: the ``xfer:`` namespace contains nothing
site-specific (so a model built from it transfers), and the global model
serves sites the registry has never seen, and sites whose own model the
circuit breaker has routed around (tagged ``model="transfer"``).
"""

import json

import pytest

from annotation_goldens import global_fixture, global_model_digest, goldens
from reference_chain import reference_global_probabilities, reference_train_global
from repro import obs
from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_swde, seed_kb_for
from repro.runtime import ExtractionService, ModelRegistry, RegistryError, SiteModel
from repro.transfer import (
    TransferFeatureExtractor,
    collect_site_examples,
    predicate_tokens,
    shape_classes,
    train_global,
)


@pytest.fixture(scope="module")
def swde():
    dataset = generate_swde("movie", n_sites=4, pages_per_site=12, seed=7)
    return dataset, seed_kb_for(dataset, 7)


@pytest.fixture(scope="module")
def global_setup(swde):
    """A global model over sites 0-2; site 3 is the unseen site."""
    dataset, kb = swde
    config = CeresConfig()
    pools = [
        collect_site_examples(site.name, kb, site.documents(), config)
        for site in dataset.sites[:3]
    ]
    model = train_global(pools, kb.ontology.names(), config)
    return dataset, kb, config, model


def _train_site_model(kb, config, site_name, documents) -> SiteModel:
    pipeline = CeresPipeline(kb, config)
    result = pipeline.run(documents, documents)
    return SiteModel.from_result(site_name, config, result)


class TestTransferFeatures:
    def test_every_feature_is_xfer_namespaced(self, swde):
        dataset, kb = swde
        extractor = TransferFeatureExtractor(kb.ontology.names(), CeresConfig())
        document = dataset.sites[0].pages[0].document
        _, rows = extractor.page_features(document)
        assert rows
        names = {name for row in rows for name in row}
        assert names
        assert all(name.startswith("xfer:") for name in names)

    def test_predicate_tokens(self):
        assert predicate_tokens("directed_by") == frozenset({"directed", "by"})
        assert predicate_tokens("MPAA Rating") == frozenset({"mpaa", "rating"})
        assert predicate_tokens("") == frozenset()

    def test_shape_classes(self):
        assert "year" in shape_classes("1994")
        assert "numeric" in shape_classes("42")
        assert "iso-date" in shape_classes("2018-08-27")
        assert "label-colon" in shape_classes("Director:")
        assert "upper" in shape_classes("PG-13")

    def test_overlap_features_fire_on_predicate_names(self, swde):
        """A label node whose text shares tokens with an ontology
        predicate must produce xfer:pred features — the signal that
        replaces memorized site vocabulary."""
        dataset, kb = swde
        extractor = TransferFeatureExtractor(kb.ontology.names(), CeresConfig())
        names = set()
        for page in dataset.sites[0].pages[:4]:
            _, rows = extractor.page_features(page.document)
            for row in rows:
                names.update(n for n in row if n.startswith("xfer:pred|"))
        assert names  # genre/rating/... labels overlap predicate names

    def test_features_build_one_pages_rows_once(self, swde, monkeypatch):
        dataset, kb = swde
        extractor = TransferFeatureExtractor(kb.ontology.names(), CeresConfig())
        calls = []
        build = extractor._node_features

        def counting(*args):
            calls.append(args[0])
            return build(*args)

        monkeypatch.setattr(extractor, "_node_features", counting)
        document = dataset.sites[0].pages[0].document
        nodes = [node for node in document.text_fields() if node.text.strip()]
        rows = [extractor.features(node, document) for node in nodes]
        assert len(calls) == len(nodes)
        assert rows == extractor.page_features(document)[1]
        assert len(calls) == len(nodes)
        other = dataset.sites[0].pages[1].document
        extractor.page_features(other)
        assert len(calls) > len(nodes)  # a new page builds its own rows


class TestNamespaceSeparation:
    """Satellite: no xfer: feature may embed site-specific vocabulary."""

    @pytest.fixture(scope="class")
    def compiled_vocabulary(self, swde):
        dataset, kb = swde
        site = dataset.sites[1]
        documents = site.documents()
        config = CeresConfig()
        pipeline = CeresPipeline(kb, config)
        result = pipeline.run(documents, documents)
        site_model = SiteModel.from_result(site.name, config, result)
        names: set[str] = set()
        for cluster in site_model.clusters:
            names.update(cluster.model.vectorizer.vocabulary_)
        assert names
        return site, documents, names

    def test_every_compiled_name_is_namespaced(self, compiled_vocabulary):
        _, _, names = compiled_vocabulary
        assert all(name.startswith(("site:", "xfer:")) for name in names)
        # Both namespaces are populated in a trained per-site model.
        assert any(name.startswith("site:") for name in names)
        assert any(name.startswith("xfer:") for name in names)

    def test_xfer_names_embed_no_xpath_step(self, compiled_vocabulary):
        """Raw XPath steps carry positional indices (``div[3]``) and
        separators — neither may leak into the transferable namespace."""
        _, documents, names = compiled_vocabulary
        xfer = [name for name in names if name.startswith("xfer:")]
        assert xfer
        steps = {
            step
            for document in documents[:4]
            for node in document.text_fields()
            for step in node.xpath.strip("/").split("/")
        }
        assert steps
        for name in xfer:
            assert "/" not in name and "[" not in name
            assert not any(step in name for step in steps if "[" in step)

    def test_xfer_names_embed_no_attr_value(self, compiled_vocabulary):
        """Site-specific attribute vocabulary (class names etc.) lives in
        site:s| features only; xfer fields must never equal one."""
        _, _, names = compiled_vocabulary
        site_values = {
            name.split("|")[2]
            for name in names
            if name.startswith("site:s|") and len(name.split("|")) >= 3
        }
        assert site_values  # e.g. "info-row", "cine-title"
        for name in names:
            if not name.startswith("xfer:"):
                continue
            fields = name.split(":", 1)[1].split("|")
            assert not (set(fields) & site_values), name

    def test_xfer_names_embed_no_hostname(self, compiled_vocabulary):
        site, _, names = compiled_vocabulary
        for name in names:
            if name.startswith("xfer:"):
                assert site.name not in name


class TestZeroShotServing:
    def test_unseen_site_served_from_global_model(
        self, global_setup, tmp_path
    ):
        dataset, kb, config, model = global_setup
        registry = ModelRegistry(tmp_path / "models")
        registry.save_global(model)
        service = ExtractionService(registry, transfer_fallback=True)
        unseen = dataset.sites[3]
        with obs.scoped(tracing=False, metrics=True) as (_, metrics):
            extractions = service.extract_pages(unseen.name, unseen.documents())
            snapshot = metrics.snapshot()
        assert extractions
        assert all(e.model == "transfer" for e in extractions)
        counters = snapshot["counters"]
        assert counters["transfer.requests"] == 1
        assert counters["transfer.pages"] == len(unseen.pages)
        assert counters["transfer.extractions"] == len(extractions)

    def test_fallback_off_still_raises(self, global_setup, tmp_path):
        dataset, _, _, model = global_setup
        registry = ModelRegistry(tmp_path / "models")
        registry.save_global(model)
        service = ExtractionService(registry)  # fallback not requested
        unseen = dataset.sites[3]
        with pytest.raises(RegistryError, match="no artifact"):
            service.extract_pages(unseen.name, unseen.documents())

    def test_fallback_without_global_model_raises(self, swde, tmp_path):
        dataset, _ = swde
        service = ExtractionService(
            tmp_path / "models", transfer_fallback=True
        )
        with pytest.raises(RegistryError, match="no artifact"):
            service.extract_pages(
                dataset.sites[3].name, dataset.sites[3].documents()
            )

    def test_fallback_never_masks_a_corrupt_artifact(
        self, global_setup, tmp_path
    ):
        """Absence is servable; damage is not — a torn artifact must
        surface even when the global model could have answered."""
        dataset, kb, config, model = global_setup
        registry = ModelRegistry(tmp_path / "models")
        registry.save_global(model)
        site = dataset.sites[0]
        registry.path_for(site.name).parent.mkdir(parents=True, exist_ok=True)
        registry.path_for(site.name).write_text("{ torn")
        service = ExtractionService(registry, transfer_fallback=True)
        with pytest.raises(RegistryError, match="corrupt"):
            service.extract_pages(site.name, site.documents())

    def test_in_memory_global_model(self, global_setup):
        """A registry-less service can still transfer-serve via
        set_global_model."""
        dataset, _, _, model = global_setup
        service = ExtractionService(transfer_fallback=True)
        service.set_global_model(model)
        unseen = dataset.sites[3]
        extractions = service.extract_pages(unseen.name, unseen.documents())
        assert extractions
        assert all(e.model == "transfer" for e in extractions)

    def test_extraction_rows_tag_transfer_model_only(self, global_setup):
        """Per-site rows stay byte-identical (no 'model' key); transfer
        rows carry model='transfer'."""
        from repro.runtime import extraction_row

        dataset, _, _, model = global_setup
        unseen = dataset.sites[3]
        documents = unseen.documents()
        extractions = model.extract(documents)
        assert extractions
        row = extraction_row(extractions[0], documents[extractions[0].page_index].url)
        assert row["model"] == "transfer"
        site_like = json.loads(json.dumps(row))
        # A per-site extraction (model="site") must not emit the key.
        extractions[0].model = "site"
        try:
            plain = extraction_row(
                extractions[0], documents[extractions[0].page_index].url
            )
        finally:
            extractions[0].model = "transfer"
        assert "model" not in plain
        assert site_like.keys() - plain.keys() == {"model"}


class TestForcedTransfer:
    def test_extract_pages_transfer_ignores_the_site_model(
        self, global_setup
    ):
        """The circuit breaker's route: zero-shot even for a site that
        has its own model, and a named error when no global model is
        installed."""
        dataset, kb, config, model = global_setup
        site = dataset.sites[0]
        documents = site.documents()
        service = ExtractionService()
        service.add_site_model(
            _train_site_model(kb, config, site.name, documents)
        )
        with pytest.raises(RegistryError, match="train-global"):
            service.extract_pages_transfer(site.name, documents)
        service.set_global_model(model)
        assert service.has_site_model(site.name)
        with obs.scoped(tracing=False, metrics=True) as (_, metrics):
            extractions = service.extract_pages_transfer(site.name, documents)
            snapshot = metrics.snapshot()
        assert extractions
        assert all(e.model == "transfer" for e in extractions)
        assert snapshot["counters"]["transfer.requests"] == 1


class TestDeletedArtifact:
    """Satellite: eviction + mid-run artifact deletion must say what
    happened, not claim the site never existed."""

    def test_evicted_then_deleted_site_names_the_cause(self, swde, tmp_path):
        dataset, kb = swde
        config = CeresConfig()
        site = dataset.sites[0]
        documents = site.documents()
        registry = ModelRegistry(tmp_path / "models")
        registry.save(_train_site_model(kb, config, site.name, documents))
        service = ExtractionService(registry, max_resident_sites=1)
        assert service.extract_pages(site.name, documents)
        service.evict(site.name)
        assert registry.delete(site.name)
        with pytest.raises(RegistryError) as excinfo:
            service.extract_pages(site.name, documents)
        message = str(excinfo.value)
        assert "deleted" in message
        assert site.name in message
        assert "transfer fallback" in message or "--transfer-fallback" in message

    def test_never_served_site_keeps_the_plain_error(self, swde, tmp_path):
        dataset, _ = swde
        service = ExtractionService(ModelRegistry(tmp_path / "models"))
        with pytest.raises(RegistryError, match="no artifact"):
            service.extract_pages(
                dataset.sites[0].name, dataset.sites[0].documents()
            )


class TestGlobalTraining:
    def test_global_model_matches_golden(self):
        """The global model's vocabulary, classes and predicates match
        the ``global-model`` annotation golden."""
        pools, predicates, _, config = global_fixture()
        model = train_global(pools, predicates, config)
        assert global_model_digest(model) == goldens()["global-model"]

    def test_global_model_matches_reference_chain(self):
        """Trained through the tag-only walker and name rows, the global
        model equals one trained through per-node dicts (filtered to
        ``xfer:``), dict vectorization and the textbook fit: vocabulary,
        coefficients and zero-shot probabilities, bit for bit."""
        pools, predicates, held_out, config = global_fixture()
        model = train_global(pools, predicates, config)
        reference = reference_train_global(pools, predicates, config)
        assert model.vectorizer.vocabulary_ == reference.vectorizer.vocabulary_
        assert list(model.classifier.classes_) == list(reference.classifier.classes_)
        assert model.classifier.coef_.tobytes() == reference.classifier.coef_.tobytes()
        assert (
            model.classifier.intercept_.tobytes()
            == reference.classifier.intercept_.tobytes()
        )
        for (_, probabilities), document in zip(model.score_pages(held_out), held_out):
            expected = reference_global_probabilities(reference, document)
            assert probabilities.shape == expected.shape
            assert probabilities.tobytes() == expected.tobytes()
        assert model.extract(held_out)  # non-degenerate

    def test_fit_refuses_samples_of_other_predicates(self, swde):
        """Predicate names parameterize the overlap features, so samples
        featurized with different ones cannot share one model."""
        from repro.transfer.trainer import featurize_site, fit_global

        dataset, kb = swde
        config = CeresConfig()
        names = kb.ontology.names()
        pools = [
            collect_site_examples(site.name, kb, site.documents(), config)
            for site in dataset.sites[:2]
        ]
        samples = [
            featurize_site(pools[0], TransferFeatureExtractor(names, config)),
            featurize_site(
                pools[1], TransferFeatureExtractor(names[1:], config)
            ),
        ]
        with pytest.raises(ValueError, match="featurized with predicates"):
            fit_global(samples, config)


class TestLosoEvaluation:
    def test_loso_runs_every_fold(self, swde):
        from repro.evaluation import format_loso_table, loso_folds

        dataset, kb = swde
        folds = loso_folds(dataset, kb, CeresConfig())
        assert [fold.site for fold in folds] == [
            site.name for site in dataset.sites
        ]
        assert all(fold.n_train_sites == len(dataset.sites) - 1 for fold in folds)
        total = sum(fold.total for fold in folds)
        correct = sum(fold.correct for fold in folds)
        assert total > 0
        assert correct / total >= 0.75  # zero-shot stays high-precision
        table = format_loso_table(folds)
        assert "micro-avg" in table
        for fold in folds:
            assert fold.site in table
