"""Registry round-trips: save → load → extract must be exact."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import CONFIG_DOMAINS, CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_swde, seed_kb_for
from repro.runtime import (
    FORMAT_VERSION,
    ModelRegistry,
    RegistryError,
    SiteModel,
    site_model_from_dict,
    site_model_to_dict,
)
from repro.runtime.serialize import config_from_dict, config_to_dict


@pytest.fixture(scope="module")
def trained_site():
    dataset = generate_swde("movie", n_sites=2, pages_per_site=16, seed=2)
    kb = seed_kb_for(dataset, 2)
    site = dataset.sites[1]
    documents = [page.document for page in site.pages]
    config = CeresConfig(confidence_threshold=0.6)
    pipeline = CeresPipeline(kb, config)
    result = pipeline.run(documents, documents)
    assert result.extractions, "fixture produced no extractions"
    return site.name, config, documents, result


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "models")


def _model(data):
    return data["clusters"][0]["model"]


def _classifier(data):
    return _model(data)["classifier"]


def _set_nan(data):
    _classifier(data)["coef"][0][0] = float("nan")


def _repeat_name(data):
    names = _model(data)["vocabulary"]["site"]
    names.append(names[0])


#: Config values outside their field's domain: the first failed every
#: zero-shot request with an IndexError, the other two served 0 rows.
OUT_OF_DOMAIN = {
    "ancestor-levels-negative": lambda data: data["config"].update(
        struct_ancestor_levels=-3
    ),
    "threshold-above-one": lambda data: data["config"].update(
        confidence_threshold=7.0
    ),
    "sibling-width-negative": lambda data: data["config"].update(
        struct_sibling_width=-1
    ),
}


#: Damages to a site artifact, each of which must fail its load.
DAMAGES = {
    "classifier-missing": lambda data: _model(data).pop("classifier"),
    "coef-missing-a-row": lambda data: _classifier(data)["coef"].pop(),
    "intercept-one-short": lambda data: _classifier(data)["intercept"].pop(),
    "coef-null": lambda data: _classifier(data).update(coef=None),
    "vocabulary-extra-name": lambda data: _model(data)["vocabulary"]["site"].append(
        "zz|extra"
    ),
    "classes-one-short": lambda data: _classifier(data)["classes"].pop(),
    "vocabulary-repeated-name": _repeat_name,
    "nan-coefficient": _set_nan,
    "clusters-object": lambda data: data.update(clusters={}),
    "config-list": lambda data: data.update(config=[]),
    "config-bool-field-int": lambda data: data["config"].update(
        use_template_clustering=1
    ),
    "config-int-field-bool": lambda data: data["config"].update(
        min_cluster_size=True
    ),
    # The CLI refuses --min-predicate-pages 0, so the registry does too.
    "min-predicate-pages-zero": lambda data: data["config"].update(
        min_predicate_pages=0
    ),
    **OUT_OF_DOMAIN,
}


#: Ill-typed or out-of-domain fields of a global artifact, each of which
#: must fail its load.
GLOBAL_DAMAGES = {
    "predicates-string": lambda data: data.update(predicates="genre"),
    "predicates-ints": lambda data: data.update(predicates=[1, 2]),
    "int-field-string": lambda data: data["config"].update(
        struct_ancestor_levels="4"
    ),
    "float-field-string": lambda data: data["config"].update(
        confidence_threshold="0.5"
    ),
    "config-list": lambda data: data.update(config=[]),
    "tuple-field-string": lambda data: data["config"].update(
        struct_attributes="class"
    ),
    **OUT_OF_DOMAIN,
}


def _extraction_rows(extractions):
    return [
        (e.page_index, e.subject, e.predicate, e.object, e.confidence)
        for e in extractions
    ]


class TestRoundTrip:
    def test_extractions_byte_identical(self, trained_site, registry):
        site, config, documents, result = trained_site
        site_model = SiteModel.from_result(site, config, result)
        registry.save(site_model)
        loaded = registry.load(site)

        pools = {
            "memory": SiteModel.from_result(site, config, result),
            "disk": loaded,
        }
        serialized = {}
        for label, model in pools.items():
            from repro.core.extraction.extractor import ClusterExtractorPool

            pool = ClusterExtractorPool(
                [(c.signature, c.model) for c in model.clusters], model.config
            )
            rows = _extraction_rows(pool.extract(documents))
            serialized[label] = json.dumps(rows)
        assert serialized["memory"] == serialized["disk"]
        # And both reproduce the pipeline's own extractions byte for byte.
        assert json.dumps(_extraction_rows(result.extractions)) == serialized["disk"]

    def test_components_preserved(self, trained_site, registry):
        site, config, documents, result = trained_site
        site_model = SiteModel.from_result(site, config, result)
        registry.save(site_model)
        loaded = registry.load(site)

        assert loaded.site == site
        assert loaded.config == config  # incl. tuple-typed struct_attributes
        assert len(loaded.clusters) == len(site_model.clusters)
        for original, restored in zip(site_model.clusters, loaded.clusters):
            assert restored.signature == original.signature
            # v2 artifacts don't store the lexicon; it is reconstructed
            # from the site:t| vocabulary names — a subset of the trained
            # lexicon (strings without fitted features drop out, which
            # cannot change scores: their names were unknown anyway).
            assert (
                restored.model.feature_extractor.frequent_strings
                <= original.model.feature_extractor.frequent_strings
            )
            assert (
                restored.model.vectorizer.vocabulary_
                == original.model.vectorizer.vocabulary_
            )
            assert np.array_equal(
                restored.model.classifier.coef_, original.model.classifier.coef_
            )
            assert np.array_equal(
                restored.model.classifier.intercept_,
                original.model.classifier.intercept_,
            )
            assert list(restored.model.classifier.classes_) == list(
                original.model.classifier.classes_
            )

    def test_dict_round_trip_stable(self, trained_site):
        site, config, _, result = trained_site
        site_model = SiteModel.from_result(site, config, result)
        once = site_model_to_dict(site_model)
        twice = site_model_to_dict(site_model_from_dict(once))
        assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)

    def test_artifact_with_retired_config_keys_loads(self, trained_site, registry):
        """Artifacts written before two cache-size knobs were retired
        carry them in their config; they still load and score the same."""
        site, config, documents, result = trained_site
        path = registry.save(SiteModel.from_result(site, config, result))
        artifact = json.loads(path.read_text())
        artifact["config"].update(
            feature_registry_cache_size=512, assignment_cache_size=4096
        )
        path.write_text(json.dumps(artifact))
        loaded = registry.load(site)
        assert loaded.config == config
        from repro.core.extraction.extractor import ClusterExtractorPool

        pool = ClusterExtractorPool(
            [(c.signature, c.model) for c in loaded.clusters], loaded.config
        )
        assert _extraction_rows(pool.extract(documents)) == _extraction_rows(
            result.extractions
        )

    def test_sites_listing_and_has(self, trained_site, registry):
        site, config, _, result = trained_site
        assert registry.sites() == []
        assert not registry.has(site)
        registry.save(SiteModel.from_result(site, config, result))
        assert registry.sites() == [site]
        assert registry.has(site)
        assert registry.delete(site)
        assert registry.sites() == []

    def test_site_key_is_filesystem_safe(self, trained_site, registry):
        _, config, _, result = trained_site
        weird = "https://example.com/a/b?c=1"
        registry.save(SiteModel.from_result(weird, config, result))
        assert registry.sites() == [weird]
        assert "/" not in registry.path_for(weird).name
        assert registry.load(weird).site == weird


class TestFormatV2:
    def test_vocabulary_stored_per_namespace(self, trained_site):
        """v2 artifacts split the vocabulary by namespace with prefixes
        stripped, and no longer store the frequent-string lexicon."""
        site, config, _, result = trained_site
        data = site_model_to_dict(SiteModel.from_result(site, config, result))
        assert data["format_version"] == FORMAT_VERSION
        for entry in data["clusters"]:
            model = entry["model"]
            assert "frequent_strings" not in model
            vocabulary = model["vocabulary"]
            assert set(vocabulary) == {"site", "xfer"}
            joined = [f"site:{n}" for n in vocabulary["site"]] + [
                f"xfer:{n}" for n in vocabulary["xfer"]
            ]
            assert joined == sorted(joined)  # column order reproduced
            for local in vocabulary["site"] + vocabulary["xfer"]:
                assert not local.startswith(("site:", "xfer:"))

    def test_v2_artifact_smaller_than_v1_encoding(self, trained_site):
        """Prefix stripping + lexicon removal shrink the payload vs the
        v1-style encoding of the same model."""
        site, config, _, result = trained_site
        site_model = SiteModel.from_result(site, config, result)
        data = site_model_to_dict(site_model)
        v1_style = json.loads(json.dumps(data))
        for entry, cluster in zip(v1_style["clusters"], site_model.clusters):
            model = entry["model"]
            vocabulary = model["vocabulary"]
            model["vocabulary"] = [f"site:{n}" for n in vocabulary["site"]] + [
                f"xfer:{n}" for n in vocabulary["xfer"]
            ]
            model["frequent_strings"] = sorted(
                cluster.model.feature_extractor.frequent_strings
            )
        v2_size = len(json.dumps(data, sort_keys=True))
        v1_size = len(json.dumps(v1_style, sort_keys=True))
        assert v2_size < v1_size

    def test_flat_vocabulary_fallback(self):
        """Hand-built, un-namespaced vocabularies round-trip as flat lists."""
        from repro.runtime.serialize import (
            _vocabulary_from_jsonable,
            _vocabulary_to_jsonable,
        )
        from repro.ml.features import FeatureVectorizer

        vectorizer = FeatureVectorizer().fit_names([("b", "a")])
        encoded = _vocabulary_to_jsonable(vectorizer)
        assert encoded == ["a", "b"]
        restored = _vocabulary_from_jsonable(encoded)
        assert restored.vocabulary_ == vectorizer.vocabulary_


class TestGlobalArtifact:
    @pytest.fixture(scope="class")
    def global_model(self):
        from repro.core.config import CeresConfig
        from repro.transfer.trainer import collect_site_examples, train_global

        dataset = generate_swde("movie", n_sites=4, pages_per_site=12, seed=7)
        kb = seed_kb_for(dataset, 7)
        config = CeresConfig()
        pools = []
        for site in dataset.sites[:3]:
            documents = [page.document for page in site.pages]
            pools.append(
                collect_site_examples(site.name, kb, documents, config)
            )
        model = train_global(pools, kb.ontology.names(), config)
        held_out = [page.document for page in dataset.sites[3].pages]
        return model, held_out

    def test_round_trip_scores_identical(self, global_model, registry, tmp_path):
        model, held_out = global_model
        path = registry.save_global(model)
        assert path == registry.global_path
        assert registry.has_global()
        assert registry.sites() == []  # the global artifact is not a site
        loaded = registry.load_global()
        original_rows = _extraction_rows(model.extract(held_out))
        loaded_rows = _extraction_rows(loaded.extract(held_out))
        assert json.dumps(original_rows) == json.dumps(loaded_rows)
        assert original_rows  # non-degenerate

    def test_damaged_global_refused(self, global_model, registry):
        """The global artifact's classifier passes the same load checks."""
        model, _ = global_model
        registry.save_global(model)
        data = json.loads(registry.global_path.read_text())
        data["classifier"]["intercept"].pop()
        registry.global_path.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="malformed"):
            registry.load_global()

    def test_xfer_only_vocabulary(self, global_model, registry):
        model, _ = global_model
        registry.save_global(model)
        data = json.loads(registry.global_path.read_text())
        assert data["kind"] == "ceres-global-model"
        assert data["vocabulary"]["site"] == []
        assert data["vocabulary"]["xfer"]

    def test_missing_global(self, registry):
        with pytest.raises(RegistryError, match="train-global"):
            registry.load_global()

    def test_global_version_gate(self, global_model, registry):
        model, _ = global_model
        path = registry.save_global(model)
        data = json.loads(path.read_text())
        data["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="format_version"):
            registry.load_global()
        assert registry.delete_global()
        assert not registry.has_global()

    @pytest.mark.parametrize(
        "damage", list(GLOBAL_DAMAGES), ids=list(GLOBAL_DAMAGES)
    )
    def test_ill_typed_field_refused(self, global_model, registry, damage):
        """A field of the wrong type, or outside its domain, is refused at
        load: it must neither serve a different model (or none) nor fail
        every request later."""
        model, _ = global_model
        registry.save_global(model)
        data = json.loads(registry.global_path.read_text())
        GLOBAL_DAMAGES[damage](data)
        registry.global_path.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="malformed"):
            registry.load_global()

    def test_site_loader_rejects_global_artifact(self, global_model, registry):
        """Feeding the global payload through the site loader fails the
        kind check instead of half-parsing."""
        model, _ = global_model
        registry.save_global(model)
        payload = registry.global_path.read_text()
        site_path = registry.path_for("imposter")
        site_path.parent.mkdir(parents=True, exist_ok=True)
        site_path.write_text(payload)
        with pytest.raises(RegistryError, match="not a site-model"):
            registry.load("imposter")


class TestRegistryErrors:
    def test_missing_site(self, registry):
        with pytest.raises(RegistryError, match="no artifact"):
            registry.load("never-trained")

    def test_missing_site_error_truncates_site_list(
        self, trained_site, registry
    ):
        """A large registry names only the first 10 sites (+N more)."""
        site, config, _, result = trained_site
        for index in range(14):
            registry.save(
                SiteModel.from_result(f"site-{index:02d}", config, result)
            )
        with pytest.raises(RegistryError) as excinfo:
            registry.load("never-trained")
        message = str(excinfo.value)
        assert "(+4 more)" in message
        assert "site-09" in message
        assert "site-10" not in message

    def test_corrupted_artifact(self, trained_site, registry):
        site, config, _, result = trained_site
        registry.save(SiteModel.from_result(site, config, result))
        registry.path_for(site).write_text("{ this is not json")
        with pytest.raises(RegistryError, match="corrupt"):
            registry.load(site)

    def test_version_mismatch(self, trained_site, registry):
        site, config, _, result = trained_site
        path = registry.save(SiteModel.from_result(site, config, result))
        data = json.loads(path.read_text())
        data["format_version"] = FORMAT_VERSION + 99
        path.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="format_version"):
            registry.load(site)

    def test_wrong_kind(self, registry, tmp_path):
        path = registry.path_for("notamodel")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "kb"}))
        with pytest.raises(RegistryError, match="not a site-model"):
            registry.load("notamodel")

    @pytest.mark.parametrize("damage", list(DAMAGES), ids=list(DAMAGES))
    def test_truncated_structure(self, trained_site, registry, damage):
        """A damaged artifact is refused at load, not when it first scores
        (or never, when it scores wrong)."""
        site, config, _, result = trained_site
        path = registry.save(SiteModel.from_result(site, config, result))
        data = json.loads(path.read_text())
        DAMAGES[damage](data)
        path.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="malformed"):
            registry.load(site)

    def test_every_numeric_config_field_has_a_domain(self):
        """A numeric CeresConfig field added later must state its domain,
        and the defaults must lie within theirs."""
        defaults = CeresConfig()
        numeric = {
            field.name
            for field in dataclasses.fields(CeresConfig)
            if type(getattr(defaults, field.name)) in (int, float)
        }
        assert set(CONFIG_DOMAINS) == numeric - {"random_seed"}
        assert config_from_dict(config_to_dict(defaults)) == defaults

    def test_non_object_artifact(self, registry):
        path = registry.path_for("weird")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]")
        with pytest.raises(RegistryError, match="expected a JSON object"):
            registry.load("weird")


class TestDurableWrites:
    """_write_atomic's crash contract: fsync before rename, and a failed
    write leaves neither a temp file nor a torn artifact behind."""

    def test_write_fsyncs_temp_before_replace(
        self, trained_site, registry, monkeypatch
    ):
        import os as os_module

        # The durable-write mechanics live in resilience.atomic_write;
        # patch the os seams it calls through.
        import repro.runtime.resilience as resilience_module

        events = []
        real_fsync, real_replace = os_module.fsync, os_module.replace
        monkeypatch.setattr(
            resilience_module.os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            resilience_module.os, "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        site, config, _, result = trained_site
        registry.save(SiteModel.from_result(site, config, result))
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_temp_file_never_survives_failed_write(
        self, trained_site, registry
    ):
        from repro.testing.faults import FaultError, FaultPlan, FaultSpec, active

        site, config, _, result = trained_site
        model = SiteModel.from_result(site, config, result)
        plan = FaultPlan(
            [FaultSpec("registry.write_temp", action="corrupt-write")]
        )
        with active(plan), pytest.raises(FaultError):
            registry.save(model)
        # Neither the temp file nor a torn artifact is left behind.
        assert list(registry.root.glob("*.tmp*")) == []
        assert not registry.path_for(site).exists()

    def test_failed_overwrite_preserves_old_artifact(
        self, trained_site, registry
    ):
        from repro.testing.faults import FaultError, FaultPlan, FaultSpec, active

        site, config, _, result = trained_site
        model = SiteModel.from_result(site, config, result)
        registry.save(model)
        before = registry.path_for(site).read_bytes()
        plan = FaultPlan(
            [FaultSpec("registry.write_temp", action="corrupt-write")]
        )
        with active(plan), pytest.raises(FaultError):
            registry.save(model)
        assert registry.path_for(site).read_bytes() == before
        assert list(registry.root.glob("*.tmp*")) == []
        registry.load(site)  # still a valid artifact
