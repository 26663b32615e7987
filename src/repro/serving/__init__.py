"""Resilient online serving tier (``python -m repro serve-http``).

A stdlib-only threaded HTTP/JSON front for
:class:`~repro.runtime.service.ExtractionService`, built around the
failure modes a long-lived server actually meets: overload (bounded
admission + 429 shedding), slow requests (cooperative deadlines → 504),
broken site models (per-site circuit breakers degrading to the
zero-shot transfer model), and shutdown (SIGTERM drains accepted work,
then exits 0).  See :mod:`repro.serving.server` for the full design
notes and the README's "Online serving" section for the runbook.
"""

from __future__ import annotations

import importlib

#: export name -> defining submodule.  Exports resolve lazily (PEP 562),
#: as in :mod:`repro.runtime`: the CLI reads :class:`ServingConfig` to
#: build its parser, and every other command must not pay for importing
#: the HTTP server.
_EXPORTS = {
    "AdmissionQueue": "repro.serving.batching",
    "OFFER_ACCEPTED": "repro.serving.batching",
    "OFFER_CLOSED": "repro.serving.batching",
    "OFFER_FULL": "repro.serving.batching",
    "PendingRequest": "repro.serving.batching",
    "BreakerBoard": "repro.serving.breaker",
    "CLOSED": "repro.serving.breaker",
    "CircuitBreaker": "repro.serving.breaker",
    "HALF_OPEN": "repro.serving.breaker",
    "OPEN": "repro.serving.breaker",
    "ServingConfig": "repro.serving.config",
    "ServingServer": "repro.serving.server",
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
