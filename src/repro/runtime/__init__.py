"""Production runtime: model registry, serving fast path, corpus runner.

The pipeline in :mod:`repro.core` learns one site in one process and
forgets everything on exit.  This package makes trained models durable
and reusable:

* :mod:`repro.runtime.cache` — :class:`LRUCache`/:class:`CacheStats`,
  the bounded per-page caching layer (keyed by ``Document.doc_id``);
* :mod:`repro.runtime.serialize` — versioned JSON codecs for trained
  state (:class:`SiteModel` = config + per-cluster signatures + models);
* :mod:`repro.runtime.registry` — :class:`ModelRegistry`, one atomic
  artifact per site on disk, validated on load;
* :mod:`repro.runtime.service` — :class:`ExtractionService`, the warm
  path: load once, cache one extractor per cluster, batch-extract with
  no annotation or training, bounded site residency;
* :mod:`repro.runtime.runner` — :func:`run_corpus`, sharding a
  multi-site corpus over a process pool with per-site failure isolation;
* :mod:`repro.runtime.resilience` — the fault-tolerance layer under the
  runner: :class:`RunJournal` (write-ahead checkpoint/resume journal),
  error classification, deterministic backoff, and per-site deadlines.

Exports resolve lazily (PEP 562): the low layers (``repro.kb.matcher``,
``repro.core.extraction.features``) import :mod:`repro.runtime.cache`
without dragging in the serving stack — which would otherwise be a
circular import, since the serving stack imports those same layers.

The CLI (``python -m repro train | serve | run-corpus | fuse | stats``)
fronts all of it; see the root README for a quickstart.  Cross-site
fusion of the runner's output lives in :mod:`repro.fusion`
(``run_corpus(..., fuse=...)`` streams completed sites into a
:class:`~repro.fusion.store.FactStore`).
"""

from __future__ import annotations

import importlib

#: export name -> defining submodule.
_EXPORTS = {
    "CacheStats": "repro.runtime.cache",
    "LRUCache": "repro.runtime.cache",
    "ModelRegistry": "repro.runtime.registry",
    "RegistryError": "repro.runtime.registry",
    "Deadline": "repro.runtime.resilience",
    "JournalError": "repro.runtime.resilience",
    "OverloadError": "repro.runtime.resilience",
    "RunJournal": "repro.runtime.resilience",
    "SiteTimeoutError": "repro.runtime.resilience",
    "backoff_delay": "repro.runtime.resilience",
    "classify_error": "repro.runtime.resilience",
    "deadline": "repro.runtime.resilience",
    "SiteReport": "repro.runtime.runner",
    "SiteSpec": "repro.runtime.runner",
    "discover_corpus": "repro.runtime.runner",
    "extraction_row": "repro.runtime.runner",
    "load_site_documents": "repro.runtime.runner",
    "run_corpus": "repro.runtime.runner",
    "ARTIFACT_KIND": "repro.runtime.serialize",
    "FORMAT_VERSION": "repro.runtime.serialize",
    "GLOBAL_ARTIFACT_KIND": "repro.runtime.serialize",
    "ClusterModel": "repro.runtime.serialize",
    "SiteModel": "repro.runtime.serialize",
    "config_from_dict": "repro.runtime.serialize",
    "config_to_dict": "repro.runtime.serialize",
    "global_model_from_dict": "repro.runtime.serialize",
    "global_model_to_dict": "repro.runtime.serialize",
    "model_from_dict": "repro.runtime.serialize",
    "model_to_dict": "repro.runtime.serialize",
    "site_model_from_dict": "repro.runtime.serialize",
    "site_model_to_dict": "repro.runtime.serialize",
    "ExtractionService": "repro.runtime.service",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache so subsequent access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
