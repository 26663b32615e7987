"""Model artifacts: versioned JSON codecs for trained CERES state.

Everything a trained site needs to extract again later — the
:class:`~repro.core.config.CeresConfig`, per-cluster leader signatures,
and each cluster's :class:`~repro.core.extraction.trainer.CeresModel`
(feature vocabulary, classifier weights) — is captured by
:class:`SiteModel` and round-trips through plain JSON-compatible
dictionaries.  The cross-site global model
(:class:`~repro.transfer.model.GlobalCeresModel`) has its own artifact
kind with the same discipline.

Exactness: classifier weights are emitted with ``float.__repr__``
(shortest round-trip) via ``ndarray.tolist()`` + ``json``, so a loaded
model reproduces the in-memory model's extractions *byte for byte*; the
registry tests assert this.

Format version 2 (the namespaced-feature schema):

* vocabularies are stored per namespace with the ``site:`` / ``xfer:``
  prefixes stripped — ``{"site": [...], "xfer": [...]}`` — which both
  shrinks the artifact and makes the namespace split auditable on disk.
  Column order is recovered exactly because ``"site:" < "xfer:"``
  lexicographically and prefix-stripping preserves each namespace's
  internal sort, so *sorted full names = sorted site-locals ++ sorted
  xfer-locals*;
* the per-cluster ``frequent_strings`` list is gone: the lexicon is
  reconstructed from the ``site:t|…`` vocabulary names.  Strings that
  never produced a fitted feature are dropped by reconstruction, and
  dropping them cannot change any score — their feature names were
  unknown to the vectorizer, so they were filtered at transform and
  scoring time anyway.

The codecs are deliberately dumb — no pickling, no code references —
so artifacts are portable across processes, machines, and (with the
``format_version`` gate in :mod:`repro.runtime.registry`) releases.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import CeresConfig
from repro.core.extraction.features import NodeFeatureExtractor
from repro.core.extraction.trainer import CeresModel
from repro.ml.features import (
    NAMESPACE_SEPARATOR,
    SITE_NAMESPACE,
    TRANSFER_NAMESPACE,
    FeatureVectorizer,
)
from repro.ml.logistic import SoftmaxRegression
from repro.transfer.features import TransferFeatureExtractor
from repro.transfer.model import GlobalCeresModel

if TYPE_CHECKING:  # avoid importing the pipeline at runtime (heavy, unneeded)
    from repro.core.pipeline import CeresResult

__all__ = [
    "FORMAT_VERSION",
    "ARTIFACT_KIND",
    "GLOBAL_ARTIFACT_KIND",
    "ClusterModel",
    "SiteModel",
    "config_to_dict",
    "config_from_dict",
    "model_to_dict",
    "model_from_dict",
    "site_model_to_dict",
    "site_model_from_dict",
    "global_model_to_dict",
    "global_model_from_dict",
]

#: Bump on any incompatible change to the artifact schema.  Version 2:
#: namespaced per-namespace vocabularies, no stored frequent-string
#: lexicon, and the global-model artifact kind.
FORMAT_VERSION = 2
#: Sanity tag distinguishing site-model artifacts from other JSON files.
ARTIFACT_KIND = "ceres-site-model"
#: Sanity tag of the cross-site global-model artifact.
GLOBAL_ARTIFACT_KIND = "ceres-global-model"

_SITE_PREFIX = SITE_NAMESPACE + NAMESPACE_SEPARATOR
_XFER_PREFIX = TRANSFER_NAMESPACE + NAMESPACE_SEPARATOR


@dataclass
class ClusterModel:
    """One modeled template cluster: leader signature + trained model."""

    signature: frozenset[str]
    model: CeresModel


@dataclass
class SiteModel:
    """Everything needed to extract from one site without retraining."""

    site: str
    config: CeresConfig
    clusters: list[ClusterModel]

    @classmethod
    def from_result(
        cls, site: str, config: CeresConfig, result: CeresResult
    ) -> SiteModel:
        """Snapshot the modeled clusters of a pipeline result."""
        return cls(
            site,
            config,
            [
                ClusterModel(cluster.signature, cluster.model)
                for cluster in result.cluster_results
                if cluster.model is not None
            ],
        )


# -- config ----------------------------------------------------------------


def config_to_dict(config: CeresConfig) -> dict:
    """Serialize a config (tuples become JSON lists)."""
    return dataclasses.asdict(config)


_UNIT = ("within [0, 1]", lambda value: 0 <= value <= 1)
_NON_NEGATIVE = (">= 0", lambda value: value >= 0)
_AT_LEAST_ONE = (">= 1", lambda value: value >= 1)

#: Each numeric field's domain, from its comment in CeresConfig:
#: fractions, similarity and confidence thresholds lie in [0, 1]; counts,
#: levels, widths, heights and lengths are >= 0; C is positive; the
#: iteration budget and the cache, residency and parse caps are >= 1
#: (``LRUCache`` refuses a capacity of 0).  ``random_seed`` takes any int.
_CONFIG_DOMAINS = {
    "stoplist_fraction": _UNIT,
    "stoplist_min_count": _NON_NEGATIVE,
    "max_pages_per_topic": _NON_NEGATIVE,
    "min_annotations_per_page": _NON_NEGATIVE,
    "over_represented_object_fraction": _UNIT,
    "duplicated_predicate_fraction": _UNIT,
    "min_predicate_pages": _NON_NEGATIVE,
    "max_cluster_items": _NON_NEGATIVE,
    "negatives_per_positive": _NON_NEGATIVE,
    "struct_ancestor_levels": _NON_NEGATIVE,
    "struct_sibling_width": _NON_NEGATIVE,
    "frequent_string_min_fraction": _UNIT,
    "max_frequent_strings": _NON_NEGATIVE,
    "max_frequent_string_length": _NON_NEGATIVE,
    "text_feature_height": _NON_NEGATIVE,
    "classifier_C": ("> 0", lambda value: value > 0),
    "classifier_max_iter": _AT_LEAST_ONE,
    "confidence_threshold": _UNIT,
    "page_match_cache_size": _AT_LEAST_ONE,
    "max_resident_sites": _AT_LEAST_ONE,
    "max_parse_depth": _AT_LEAST_ONE,
    "max_parse_nodes": _AT_LEAST_ONE,
    "template_similarity_threshold": _UNIT,
    "min_cluster_size": _NON_NEGATIVE,
}


def config_from_dict(data: dict) -> CeresConfig:
    """Rebuild a config; unknown keys are ignored, missing keys default.

    Each field given must have its default's type: a bool for bools, an
    int that is not a bool for ints, an int or finite float for floats,
    and a list (or, in process, a tuple) of strings for tuples
    (``struct_attributes``, restored as a tuple so the round-tripped
    config compares equal to the original).  Raises ``TypeError``
    otherwise, and ``ValueError`` for a number outside its field's
    domain (``_CONFIG_DOMAINS``), so a damaged artifact is refused at
    load instead of failing, or silently emptying, every request that
    scores with it.
    """
    if not isinstance(data, dict):
        raise TypeError(f"config must be an object, not {type(data).__name__}")
    defaults = CeresConfig()
    overrides = {}
    for field in dataclasses.fields(CeresConfig):
        if field.name not in data:
            continue
        value = data[field.name]
        default = getattr(defaults, field.name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(default, bool):
            kind, valid = "a bool", isinstance(value, bool)
        elif isinstance(default, int):
            kind, valid = "an int", number and isinstance(value, int)
        elif isinstance(default, float):
            kind, valid = "a finite number", number and math.isfinite(value)
        else:
            kind, valid = "a list of strings", _is_string_list(value)
            value = tuple(value) if valid else value
        if not valid:
            raise TypeError(f"config.{field.name} must be {kind}, not {value!r}")
        if field.name in _CONFIG_DOMAINS:
            domain, within = _CONFIG_DOMAINS[field.name]
            if not within(value):
                raise ValueError(f"config.{field.name} must be {domain}, not {value!r}")
        overrides[field.name] = value
    return CeresConfig(**overrides)


def _is_string_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(item, str) for item in value
    )


# -- model components ------------------------------------------------------


def _classifier_to_dict(classifier: SoftmaxRegression) -> dict:
    if classifier.coef_ is None or classifier.classes_ is None:
        raise ValueError("cannot serialize an unfitted classifier")
    return {
        "C": classifier.C,
        "max_iter": classifier.max_iter,
        "tol": classifier.tol,
        "classes": [str(label) for label in classifier.classes_],
        "coef": classifier.coef_.tolist(),
        "intercept": classifier.intercept_.tolist(),
    }


def _classifier_from_dict(data: dict, n_features: int) -> SoftmaxRegression:
    """Rebuild a fitted classifier over ``n_features`` vocabulary columns.

    Raises ``ValueError`` unless ``coef`` is ``(len(classes),
    n_features)``, ``intercept`` is ``(len(classes),)`` and every
    coefficient is finite: a model that loads must also score.
    """
    classifier = SoftmaxRegression(
        C=data["C"], max_iter=data["max_iter"], tol=data["tol"]
    )
    classes = np.asarray(data["classes"])
    coef = np.asarray(data["coef"], dtype=float)
    intercept = np.asarray(data["intercept"], dtype=float)
    if coef.shape != (len(classes), n_features):
        raise ValueError(
            f"coef has shape {coef.shape}, expected "
            f"({len(classes)}, {n_features}) for {len(classes)} classes "
            f"and {n_features} vocabulary names"
        )
    if intercept.shape != (len(classes),):
        raise ValueError(
            f"intercept has shape {intercept.shape}, expected ({len(classes)},)"
        )
    if not (np.isfinite(coef).all() and np.isfinite(intercept).all()):
        raise ValueError("classifier has a non-finite coefficient")
    classifier.classes_ = classes
    classifier.coef_ = coef
    classifier.intercept_ = intercept
    return classifier


def _vocabulary_to_jsonable(vectorizer: FeatureVectorizer) -> dict | list:
    """Per-namespace, prefix-stripped vocabulary in column order.

    Falls back to the flat name list when any name lies outside the two
    namespaces (hand-built vocabularies); the extraction stack itself
    always produces fully namespaced names.
    """
    names = vectorizer.feature_names()
    site_names: list[str] = []
    xfer_names: list[str] = []
    for name in names:
        if name.startswith(_SITE_PREFIX):
            site_names.append(name[len(_SITE_PREFIX):])
        elif name.startswith(_XFER_PREFIX):
            xfer_names.append(name[len(_XFER_PREFIX):])
        else:
            return names
    return {"site": site_names, "xfer": xfer_names}


def _vocabulary_from_jsonable(data: dict | list) -> FeatureVectorizer:
    """Rebuild a fitted vectorizer from either vocabulary encoding.

    Concatenating re-prefixed site names before xfer names reproduces the
    original column order exactly: ``"site:" < "xfer:"`` and the shared
    prefix preserves each namespace's internal sort.
    """
    if isinstance(data, dict):
        names = [_SITE_PREFIX + local for local in data.get("site", [])]
        names += [_XFER_PREFIX + local for local in data.get("xfer", [])]
    else:
        names = list(data)
    vectorizer = FeatureVectorizer()
    vectorizer.vocabulary_ = {name: index for index, name in enumerate(names)}
    if len(vectorizer.vocabulary_) != len(names):
        raise ValueError("vocabulary repeats a name")
    vectorizer._fitted = True
    return vectorizer


def _frequent_strings_from_vocabulary(names) -> set[str]:
    """Reconstruct the frequent-string lexicon from ``site:t|…`` names.

    Inverse of the text-feature name format.  Only strings that produced
    at least one fitted feature come back — a safe narrowing, because
    features of absent strings would be dropped at transform and scoring
    time regardless.
    """
    text_prefix = _SITE_PREFIX + "t|"
    strings: set[str] = set()
    for name in names:
        if not name.startswith(text_prefix):
            continue
        head, _, _down_path = name.rpartition("|")
        head, separator, ups_token = head.rpartition("|")
        if not separator or len(head) < len(text_prefix):
            continue
        if not ups_token.startswith("u") or not ups_token[1:].isdigit():
            continue
        strings.add(head[len(text_prefix):])
    return strings


def model_to_dict(model: CeresModel) -> dict:
    """Serialize one cluster's trained model (config stored separately).

    The frequent-string lexicon is not stored: it is implied by the
    ``site:t|…`` vocabulary names and reconstructed on load.
    """
    return {
        "vocabulary": _vocabulary_to_jsonable(model.vectorizer),
        "classifier": _classifier_to_dict(model.classifier),
    }


def model_from_dict(data: dict, config: CeresConfig) -> CeresModel:
    """Rebuild a :class:`CeresModel` written by :func:`model_to_dict`."""
    vectorizer = _vocabulary_from_jsonable(data["vocabulary"])
    feature_extractor = NodeFeatureExtractor(config)
    feature_extractor.frequent_strings = _frequent_strings_from_vocabulary(
        vectorizer.vocabulary_
    )
    return CeresModel(
        feature_extractor,
        vectorizer,
        _classifier_from_dict(data["classifier"], len(vectorizer.vocabulary_)),
    )


# -- site artifacts --------------------------------------------------------


def site_model_to_dict(site_model: SiteModel) -> dict:
    """The full versioned artifact for one site."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": ARTIFACT_KIND,
        "site": site_model.site,
        "config": config_to_dict(site_model.config),
        "clusters": [
            {
                "signature": sorted(cluster.signature),
                "model": model_to_dict(cluster.model),
            }
            for cluster in site_model.clusters
        ],
    }


def site_model_from_dict(data: dict) -> SiteModel:
    """Rebuild a :class:`SiteModel`; raises ``KeyError``/``TypeError``/
    ``ValueError`` on malformed input (the registry wraps these into
    ``RegistryError``)."""
    config = config_from_dict(data["config"])
    if not isinstance(data["clusters"], list):
        raise ValueError("clusters must be a list")
    clusters = [
        ClusterModel(
            frozenset(entry["signature"]), model_from_dict(entry["model"], config)
        )
        for entry in data["clusters"]
    ]
    return SiteModel(data["site"], config, clusters)


# -- global (cross-site) artifacts -----------------------------------------


def global_model_to_dict(model: GlobalCeresModel) -> dict:
    """The versioned artifact of the cross-site global model.

    Beyond the usual vocabulary/classifier pair, it carries the ontology
    predicate names — they parameterize the predicate-overlap features
    and belong to the model, not to any site.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": GLOBAL_ARTIFACT_KIND,
        "predicates": list(model.feature_extractor.predicates),
        "config": config_to_dict(model.config),
        "vocabulary": _vocabulary_to_jsonable(model.vectorizer),
        "classifier": _classifier_to_dict(model.classifier),
    }


def global_model_from_dict(data: dict) -> GlobalCeresModel:
    """Rebuild a :class:`GlobalCeresModel`; raises ``KeyError``/
    ``TypeError``/``ValueError`` on malformed input (wrapped by the
    registry)."""
    config = config_from_dict(data["config"])
    if not _is_string_list(data["predicates"]):
        raise TypeError(
            f"predicates must be a list of strings, not {data['predicates']!r}"
        )
    vectorizer = _vocabulary_from_jsonable(data["vocabulary"])
    return GlobalCeresModel(
        TransferFeatureExtractor(data["predicates"], config),
        vectorizer,
        _classifier_from_dict(data["classifier"], len(vectorizer.vocabulary_)),
        config,
    )
