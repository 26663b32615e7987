"""Cross-site transfer: zero-shot extraction for sites without models.

CERES trains one model per site; ZeroShotCeres (PAPERS.md) shows that
restricting the representation to topology-relative features lets one
model trained across the sites of a vertical extract from a site it has
never seen.  This package is that path:

* :mod:`repro.transfer.features` —
  :class:`~repro.transfer.features.TransferFeatureExtractor`, the
  ``xfer:``-namespace-only node representation (tag topology, depth and
  layout buckets, predicate-name overlap, text shapes);
* :mod:`repro.transfer.model` —
  :class:`~repro.transfer.model.GlobalCeresModel`, serving unseen sites
  through the standard candidate-assembly path with extractions tagged
  ``model="transfer"``;
* :mod:`repro.transfer.trainer` — :func:`~repro.transfer.trainer.train_global`
  over pooled per-site distant supervision, in two steps (per-site
  :func:`~repro.transfer.trainer.featurize_site`, then
  :func:`~repro.transfer.trainer.fit_global`), plus the corpus-level
  entry point behind ``python -m repro train-global`` and
  ``run-corpus --train-global``.

Exports resolve lazily (PEP 562), mirroring :mod:`repro.runtime`: the
serving layer imports pieces of this package without dragging in the
training stack, and vice versa.
"""

from __future__ import annotations

import importlib

#: export name -> defining submodule.
_EXPORTS = {
    "TransferFeatureExtractor": "repro.transfer.features",
    "predicate_tokens": "repro.transfer.features",
    "shape_classes": "repro.transfer.features",
    "GlobalCeresModel": "repro.transfer.model",
    "TRANSFER_MODEL": "repro.transfer.model",
    "SiteExamples": "repro.transfer.trainer",
    "collect_site_examples": "repro.transfer.trainer",
    "train_global": "repro.transfer.trainer",
    "train_global_from_corpus": "repro.transfer.trainer",
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
