"""The serving fast path: extraction without annotation or training.

:class:`ExtractionService` fronts a :class:`~repro.runtime.registry.ModelRegistry`
for read traffic.  Per site it loads the artifact once, builds one
:class:`~repro.core.extraction.extractor.CeresExtractor` per modeled
cluster (via the shared :class:`ClusterExtractorPool`) — so a warm
``extract_pages()`` call groups the batch by cluster and scores it once
per cluster model (one CSR matrix over every node of every page, one
matmul; see :meth:`repro.core.extraction.trainer.CeresModel.score_pages`).
The cold pipeline re-runs clustering, topic identification, annotation,
and L-BFGS training on every call.

Memory is bounded on both axes of a long-lived server:

* **per page** — page-scoped state is keyed by ``Document.doc_id`` and
  bounded (each model's interned feature rows converge per template
  position; a feature extractor keeps one page's rows at most), so
  nothing accumulates across batches and a recycled object id can never
  resurface another page's state;
* **per site** — at most ``max_resident_sites`` site models (and their
  extractor pools) stay loaded; the least recently *served* site is
  evicted and transparently reloaded from the registry on next use.

Zero-shot fallback (``transfer_fallback=True``): a request for a site
with no registry artifact is served immediately from the cross-site
global model (:mod:`repro.transfer`) at reduced precision — extractions
come back tagged ``model="transfer"``.  Site residency is guarded by a
lock, because ``serve-http`` request threads share one service.

:meth:`ExtractionService.cache_stats` exposes the site-residency
counters; the CLI (``python -m repro stats``) reads it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro import obs
from repro.core.config import CeresConfig
from repro.core.extraction.extractor import (
    ClusterExtractorPool,
    Extraction,
    PageCandidates,
)
from repro.dom.parser import Document
from repro.runtime.cache import LRUCache
from repro.runtime.registry import ModelRegistry, RegistryError
from repro.runtime.serialize import SiteModel

if TYPE_CHECKING:
    from repro.transfer.model import GlobalCeresModel

__all__ = ["ExtractionService"]


@dataclass
class _ResidentSite:
    """One site's in-memory serving state: the model + its lazy pool."""

    model: SiteModel
    pool: ClusterExtractorPool | None = None


class ExtractionService:
    """Serves extractions from registry artifacts, caching per site."""

    def __init__(
        self,
        registry: ModelRegistry | str | Path | None = None,
        *,
        max_resident_sites: int | None = None,
        transfer_fallback: bool = False,
    ) -> None:
        """``registry`` may be a :class:`ModelRegistry`, a root path, or
        None for a purely in-memory service fed via :meth:`add_site_model`.

        ``max_resident_sites`` caps how many site models stay loaded at
        once (default: :attr:`CeresConfig.max_resident_sites`); the least
        recently served site is evicted, to be reloaded from the registry
        if asked for again.

        ``transfer_fallback`` serves sites *without* an artifact from the
        registry's global model (or one installed via
        :meth:`set_global_model`) instead of raising — zero-shot, tagged
        ``model="transfer"``.  Corrupt or version-incompatible artifacts
        still raise: the fallback covers absence, never masks damage.
        """
        if registry is None or isinstance(registry, ModelRegistry):
            self.registry = registry
        else:
            self.registry = ModelRegistry(registry)
        if max_resident_sites is None:
            max_resident_sites = CeresConfig().max_resident_sites
        self._sites: LRUCache[str, _ResidentSite] = LRUCache(
            max_resident_sites, name="resident_sites"
        )
        #: Guards the residency LRU and the served-site history — the
        #: serving tier's request threads share them, and LRU mutation is
        #: not atomic.
        self._residency_lock = threading.RLock()
        #: Sites this process has ever had resident — lets a reload-after-
        #: eviction failure distinguish "deleted mid-run" from "never
        #: existed" and say so.
        self._ever_resident: set[str] = set()
        self._transfer_fallback = transfer_fallback
        self._global: GlobalCeresModel | None = None

    # -- loading -----------------------------------------------------------

    def add_site_model(self, site_model: SiteModel) -> None:
        """Register an in-memory model (e.g. fresh from training).

        Thread-safe: the next request for the site scores through the new
        model.
        """
        with self._residency_lock:
            self._sites.put(site_model.site, _ResidentSite(site_model))
            self._ever_resident.add(site_model.site)

    def _resident(self, site: str) -> _ResidentSite:
        with self._residency_lock:
            cached = self._sites.get(site)
            was_resident = site in self._ever_resident
        if cached is not None:
            return cached
        if self.registry is None:
            raise RegistryError(
                f"site {site!r} is not loaded and the service has no registry"
            )
        try:
            model = self.registry.load(site)
        except RegistryError as exc:
            if was_resident and not self.registry.has(site):
                raise RegistryError(
                    f"site {site!r} was served by this process but its "
                    f"artifact has since been deleted from "
                    f"{self.registry.root}; retrain the site "
                    f"(`python -m repro train` / `run-corpus`) or serve it "
                    f"zero-shot via the transfer fallback "
                    f"(`serve --transfer-fallback`)"
                ) from exc
            raise
        resident = _ResidentSite(model)
        with self._residency_lock:
            self._sites.put(site, resident)
            self._ever_resident.add(site)
        return resident

    def pool(self, site: str) -> ClusterExtractorPool:
        """The site's extractor pool (one extractor per cluster, cached)."""
        resident = self._resident(site)
        if resident.pool is None:
            site_model = resident.model
            resident.pool = ClusterExtractorPool(
                [(c.signature, c.model) for c in site_model.clusters],
                site_model.config,
            )
        return resident.pool

    def loaded_sites(self) -> list[str]:
        """Sites currently resident in memory."""
        with self._residency_lock:
            return sorted(self._sites.keys())

    def available_sites(self) -> list[str]:
        """Sites loadable right now: resident ∪ registry artifacts."""
        with self._residency_lock:
            names = set(self._sites.keys())
        if self.registry is not None:
            names.update(self.registry.sites())
        return sorted(names)

    def evict(self, site: str) -> None:
        """Drop a site's cached model and extractors (e.g. after retrain)."""
        with self._residency_lock:
            self._sites.pop(site)

    # -- the cross-site global model ---------------------------------------

    def set_global_model(self, model: GlobalCeresModel) -> None:
        """Install an in-memory global model (e.g. fresh from
        :func:`repro.transfer.trainer.train_global`)."""
        self._global = model

    def global_model(self) -> GlobalCeresModel | None:
        """The global model, loading the registry artifact on first use.

        Re-probes the registry while unset, so a ``train-global`` run
        that lands mid-serve is picked up without restarting.
        """
        if (
            self._global is None
            and self.registry is not None
            and self.registry.has_global()
        ):
            self._global = self.registry.load_global()
        return self._global

    def has_site_model(self, site: str) -> bool:
        """True if ``site`` would be served by its *own* model — resident
        or with a registry artifact — rather than zero-shot.  Never
        loads anything; never raises."""
        with self._residency_lock:
            if site in self._sites:
                return True
        return self.registry is not None and self.registry.has(site)

    # -- observability -----------------------------------------------------

    def cache_stats(self) -> dict:
        """Site-residency counters, JSON-friendly.

        ``sites`` is the site-residency LRU.  ``per_site`` is always
        empty — no per-site cache is left to report — and stays for
        readers that index it.  Reading stats does not touch recency.
        """
        with self._residency_lock:
            site_stats = self._sites.stats().to_dict()
        return {"sites": site_stats, "per_site": {}}

    def publish_metrics(self, registry=None) -> None:
        """Fold :meth:`cache_stats` into a metrics registry (default: the
        active :func:`repro.obs.metrics` one) as ``cache.resident_sites.*``.

        Cache counters are cumulative: publish once per service lifetime,
        at report time.
        """
        registry = obs.metrics() if registry is None else registry
        registry.record_cache(self.cache_stats()["sites"])

    # -- serving -----------------------------------------------------------

    def extract_pages(
        self,
        site: str,
        documents: list[Document],
        threshold: float | None = None,
    ) -> list[Extraction]:
        """Batched, thresholded extraction using cached extractors only.

        The whole document list is scored in cluster-grouped batches,
        one matrix per cluster model — not page by page.  ``threshold``
        defaults to the trained config's ``confidence_threshold``.  No
        annotation or training happens here, and no per-batch cleanup is
        needed: per-page state is bounded and keyed by ``doc_id``.

        With ``transfer_fallback`` on, a site with no artifact is served
        zero-shot from the global model instead, through
        :meth:`extract_pages_transfer`.
        """
        try:
            pool = self.pool(site)
        except RegistryError:
            if not self._transfer_fallback or (
                self.registry is not None and self.registry.has(site)
            ):
                # Fallback disabled, or the artifact exists but failed to
                # load (corrupt / wrong version) — absence is servable,
                # damage is not.
                raise
            if self.global_model() is None:
                raise
            return self.extract_pages_transfer(site, documents, threshold)
        with obs.span(
            "service.extract_pages", site=site, pages=len(documents)
        ) as request_span:
            extractions = pool.extract(documents, threshold)
            request_span.set(extractions=len(extractions))
        registry = obs.metrics()
        registry.inc("service.requests")
        registry.inc("service.pages", len(documents))
        registry.inc("service.extractions", len(extractions))
        return extractions

    def extract_pages_transfer(
        self,
        site: str,
        documents: list[Document],
        threshold: float | None = None,
    ) -> list[Extraction]:
        """Serve one request zero-shot through the global model,
        *regardless* of whether a per-site artifact exists.

        Two routes lead here: the absence fallback in
        :meth:`extract_pages`, and the serving tier's graceful-degradation
        path — a site whose per-site model keeps failing (circuit breaker
        open) is served from the cross-site transfer model instead of
        500ing.  Rows come back tagged ``model="transfer"``.

        Raises :class:`RegistryError` when no global model is available.
        """
        global_model = self.global_model()
        if global_model is None:
            raise RegistryError(
                f"cannot serve {site!r} zero-shot: no cross-site global "
                f"model is installed (train one with "
                f"`python -m repro train-global`)"
            )
        with obs.span(
            "service.transfer_extract", site=site, pages=len(documents)
        ) as request_span:
            extractions = global_model.extract(documents, threshold)
            request_span.set(extractions=len(extractions))
        registry = obs.metrics()
        registry.inc("service.requests")
        registry.inc("transfer.requests")
        registry.inc("transfer.pages", len(documents))
        registry.inc("transfer.extractions", len(extractions))
        return extractions

    def candidates(
        self, site: str, documents: list[Document]
    ) -> list[PageCandidates]:
        """Unthresholded candidates per page (for sweeps / re-thresholding)."""
        return self.pool(site).candidates(documents)
