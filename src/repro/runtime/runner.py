"""The parallel corpus runner: annotate/train/extract over many sites.

CERES was run over 439,000 CommonCrawl sites; per-site work is
embarrassingly parallel (each site has its own templates, lexicon, and
model).  The runner shards a corpus across a ``concurrent.futures``
process pool, writes each trained site's artifact into the
:class:`~repro.runtime.registry.ModelRegistry`, and streams extraction
rows to JSONL as sites finish.

Corpus formats (:func:`discover_corpus`):

* **directory-of-directories** — every immediate subdirectory containing
  at least one HTML page (``.html``/``.htm``, any case) is one site
  (named after the subdirectory);
* **JSONL manifest** — one object per line:
  ``{"site": "name", "pages": "path/to/html/dir"}``, relative paths
  resolved against the manifest's directory (the pages directory must
  exist — a missing one is a manifest error at discovery time, not a
  worker-side surprise).

Failure isolation and resilience (:mod:`repro.runtime.resilience`):

* each site runs inside its own try/except (in its own worker process
  under ``max_workers > 1``); a site that raises produces a failed
  :class:`SiteReport` carrying the error and traceback while every other
  site proceeds — one bad site never kills the run;
* site work honors a wall-clock ``site_timeout`` and transient failures
  are retried up to ``max_attempts`` times with exponential backoff and
  deterministic jitter (``runner.retries`` counts them, each attempt is
  a ``site.attempt`` span);
* a site whose full-batch run fails is retried once in **degraded
  page-isolation mode**: pages are loaded one at a time, poison pages
  are quarantined (``SiteReport.n_quarantined_pages``,
  ``runner.quarantined``) and the site completes on the survivors
  instead of being lost;
* with ``run_dir`` set, a write-ahead :class:`~repro.runtime.resilience.
  RunJournal` records per-site state (running/done/failed/quarantined,
  keyed by a content fingerprint of the site's pages plus the config
  hash), per-site rows land in ``run_dir/rows/`` via atomic rename, and
  the final output JSONL is assembled in sorted-site order — so a run
  killed at any point and restarted with ``resume=True`` skips
  hash-unchanged completed sites and produces byte-identical final
  extraction and fused output.
"""

from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TextIO

if TYPE_CHECKING:
    from repro.fusion.store import FactStore
    from repro.kb.store import KnowledgeBase
    from repro.transfer.trainer import SiteSamples

from repro import obs
from repro.core.config import CeresConfig
from repro.dom.parser import Document, parse_html
from repro.runtime import resilience
from repro.runtime.registry import ModelRegistry
from repro.runtime.serialize import (
    SiteModel,
    config_from_dict,
    config_to_dict,
)
from repro.runtime.service import ExtractionService
from repro.testing.faults import fault_point

__all__ = [
    "SiteSpec",
    "SiteReport",
    "discover_corpus",
    "extraction_row",
    "load_site_documents",
    "run_corpus",
]


@dataclass(frozen=True)
class SiteSpec:
    """One site's unit of work: a name and a directory of HTML pages."""

    site: str
    pages_dir: str


@dataclass
class SiteReport:
    """Outcome of processing one site."""

    site: str
    ok: bool
    error: str | None = None
    traceback: str | None = None
    n_pages: int = 0
    n_clusters: int = 0
    n_extractions: int = 0
    #: template clusters (and the pages inside them) dropped during
    #: annotation for falling below ``min_cluster_size`` — surfaced so
    #: unmodeled pages never disappear silently.
    n_skipped_clusters: int = 0
    n_skipped_pages: int = 0
    #: seed-KB adjudication of this site's extractions: how many the KB
    #: could check (it knows the subject and predicate) and how many of
    #: those agreed — the inputs to fusion's site-reliability weight.
    kb_checked: int = 0
    kb_agreed: int = 0
    artifact_path: str | None = None
    seconds: float = 0.0
    #: full-batch attempts made (1 = first try succeeded); the degraded
    #: page-isolation pass, when taken, is on top of these.
    attempts: int = 1
    #: the site completed in degraded page-isolation mode.
    degraded: bool = False
    #: poison pages quarantined by the degraded pass (file names).
    n_quarantined_pages: int = 0
    quarantined_pages: list = field(default_factory=list)
    #: a resumed run skipped this site (journal said done, fingerprint
    #: unchanged) and replayed its persisted rows instead of re-running.
    resumed: bool = False
    #: the worker's :class:`~repro.obs.metrics.MetricsRegistry` snapshot
    #: (stage timings, cache counters, scoring/fusion counters).  Always
    #: present on reports produced by :func:`_run_site`; the parent
    #: merges it so per-site telemetry no longer dies with the worker.
    metrics: dict | None = None
    #: the worker's finished spans (only when the parent had tracing
    #: enabled — spans are bulkier than the metrics snapshot).
    spans: list | None = None

    def summary(self) -> str:
        """One progress line for logs."""
        if self.resumed:
            return (
                f"site={self.site} resumed (unchanged: "
                f"pages={self.n_pages} extractions={self.n_extractions})"
            )
        if not self.ok:
            attempts = (
                f", {self.attempts} attempts" if self.attempts > 1 else ""
            )
            return (
                f"site={self.site} FAILED "
                f"({self.seconds:.1f}s{attempts}): {self.error}"
            )
        skipped = ""
        if self.n_skipped_pages:
            skipped = (
                f" skipped={self.n_skipped_pages}p/"
                f"{self.n_skipped_clusters}c"
            )
        kb_note = ""
        if self.kb_checked:
            kb_note = f" kb={self.kb_agreed}/{self.kb_checked}"
        resilience_note = ""
        if self.attempts > 1:
            resilience_note += f" attempts={self.attempts}"
        if self.degraded:
            resilience_note += " degraded"
        if self.n_quarantined_pages:
            resilience_note += f" quarantined={self.n_quarantined_pages}p"
        return (
            f"site={self.site} ok pages={self.n_pages} "
            f"clusters={self.n_clusters} extractions={self.n_extractions}"
            f"{skipped}{kb_note}{resilience_note} ({self.seconds:.1f}s)"
        )


def _journal_view(report: SiteReport) -> dict:
    """The report fields worth persisting in the journal: everything
    except the bulky telemetry payloads and the resume marker."""
    data = dict(report.__dict__)
    for transient in ("metrics", "spans", "resumed"):
        data.pop(transient, None)
    return data


#: Page file suffixes accepted by discovery and loading, matched
#: case-insensitively: real crawls mix ``.html``, ``.htm``, and
#: uppercase-suffixed pages freely.
PAGE_SUFFIXES = frozenset({".html", ".htm"})


def _page_files(pages_dir: Path) -> list[Path]:
    """HTML page files of one site directory, sorted by file name."""
    return sorted(
        child
        for child in pages_dir.iterdir()
        if child.is_file() and child.suffix.lower() in PAGE_SUFFIXES
    )


def discover_corpus(corpus: str | Path) -> list[SiteSpec]:
    """Resolve a corpus path into per-site work units (sorted by name)."""
    path = Path(corpus)
    if path.is_dir():
        specs = [
            SiteSpec(child.name, str(child))
            for child in sorted(path.iterdir())
            if child.is_dir() and _page_files(child)
        ]
        if not specs:
            raise ValueError(
                f"no site subdirectories with .html/.htm files under {path}"
            )
        return specs
    if path.is_file():
        specs = []
        base = path.parent
        #: site name -> manifest line that first claimed it.  Duplicates
        #: would race last-writer-wins on one registry artifact and
        #: interleave output rows under a single site label.
        first_claim: dict[str, int] = {}
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = json.loads(line)
                site, pages = entry["site"], entry["pages"]
                if not isinstance(site, str) or not isinstance(pages, str):
                    raise TypeError("site and pages must be strings")
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                raise ValueError(
                    f"{path}:{line_no}: bad manifest line "
                    f'(need {{"site": ..., "pages": ...}}): {exc}'
                ) from exc
            claimed = first_claim.setdefault(site, line_no)
            if claimed != line_no:
                raise ValueError(
                    f"{path}:{line_no}: duplicate site {site!r} "
                    f"(first defined on line {claimed}); each site may "
                    f"appear only once per manifest"
                )
            pages_path = Path(pages)
            if not pages_path.is_absolute():
                pages_path = base / pages_path
            specs.append((line_no, SiteSpec(str(site), str(pages_path))))
        if not specs:
            raise ValueError(f"manifest {path} lists no sites")
        # Second pass, so structural manifest errors (bad JSON, duplicate
        # sites) surface before filesystem ones.  Validating existence at
        # discovery time — with the manifest line in hand — beats the
        # confusing FileNotFoundError it used to become deep inside a
        # pool worker.
        for line_no, spec in specs:
            if not Path(spec.pages_dir).is_dir():
                raise ValueError(
                    f"{path}:{line_no}: pages directory does not exist "
                    f"for site {spec.site!r}: {spec.pages_dir}"
                )
        specs = [spec for _, spec in specs]
        return sorted(specs, key=lambda spec: spec.site)
    raise FileNotFoundError(f"corpus path does not exist: {path}")


def load_site_documents(
    pages_dir: str | Path,
    site: str | None = None,
    *,
    quarantined: list[str] | None = None,
    page_timeout: float | None = None,
) -> list[Document]:
    """Parse every HTML page of one site (``.html``/``.htm``, any case),
    sorted by file name, inside one ``stage.parse`` region.

    The runner's site attempt names its ``site``, which arms the
    ``page.parse`` fault point for each page.  Its degraded retry also
    passes a ``quarantined`` list, which turns on **isolation**: each
    page loads inside its own try/except and its own ``page_timeout``
    budget, and a page that raises is appended to the list by name
    instead of sinking the whole site.
    """
    paths = _page_files(Path(pages_dir))
    if not paths:
        raise FileNotFoundError(f"no .html/.htm files found in {pages_dir!r}")
    isolate = quarantined is not None
    # The files' bytes are only summed when a tracer records them.
    n_bytes = (
        sum(path.stat().st_size for path in paths) if obs.tracing_enabled() else None
    )
    documents: list[Document] = []
    with obs.stage("stage.parse", pages=len(paths), bytes=n_bytes):
        for path in paths:
            try:
                with resilience.deadline(page_timeout if isolate else None):
                    if site is not None:
                        fault_point("page.parse", site=site, page=path.name)
                    documents.append(
                        parse_html(
                            path.read_text(encoding="utf-8", errors="replace"),
                            url=path.name,
                        )
                    )
            except Exception:  # noqa: BLE001 — quarantine is the contract
                if not isolate:
                    raise
                quarantined.append(path.name)
    if isolate and not documents:
        raise RuntimeError(
            f"all {len(paths)} page(s) of {pages_dir!r} were quarantined"
        )
    return documents


def extraction_row(extraction, page_url: str, site: str | None = None) -> dict:
    """The canonical JSONL row — shared by extract, serve, and run-corpus
    so the three streams never drift apart.

    ``confidence`` is emitted at full precision: JSON floats round-trip
    exactly, so fusing from rows on disk is bit-identical to fusing the
    in-memory extractions.  Rounding belongs in human-facing summaries
    only — a rounded row made the two paths diverge.

    Rows carry a ``model`` key only for non-default provenance
    (``"transfer"`` for zero-shot serving) — per-site rows stay
    byte-identical to what they were before the tag existed.
    """
    row: dict = {"site": site} if site is not None else {}
    row.update(
        {
            "page": page_url,
            "subject": extraction.subject,
            "predicate": extraction.predicate,
            "object": extraction.object,
            "confidence": extraction.confidence,
        }
    )
    model = getattr(extraction, "model", "site")
    if model != "site":
        row["model"] = model
    return row


# -- worker ----------------------------------------------------------------

#: This process's seed KB for the sites it runs or annotates for the
#: global model: ``(sha256 of the KB file's bytes, KB)``.  Parsing the
#: KB costs more than most long-tail sites' page work, so a process
#: parses it once, not once per site; the content key re-reads a
#: rewritten file.  Private to the runner —
#: :func:`~repro.kb.io.load_kb` still hands every other caller a fresh
#: KB — and cleared when :func:`run_corpus` returns.
_kb_memo: "tuple[str, KnowledgeBase] | None" = None


def _kb_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _memoized_kb(kb_path: str) -> "KnowledgeBase":
    """The seed KB at ``kb_path``, parsed at most once per content.

    A fresh KB is frozen out of the garbage collector's reach
    (``gc.freeze``): it lives as long as the process's sites do, and
    every collection would otherwise walk its tracked objects (~43K for
    a 1.5 MB KB).
    """
    from repro.kb import io as kb_io

    global _kb_memo
    data = Path(kb_path).read_bytes()
    digest = _kb_sha256(data)
    memo = _kb_memo
    if memo is None or memo[0] != digest:
        memo = _kb_memo = None  # release the old KB before parsing its successor
        memo = _kb_memo = (
            digest, kb_io.kb_from_dict(json.loads(data.decode("utf-8")))
        )
        gc.freeze()
    return memo[1]


def _clear_kb_memo() -> None:
    """Drop the memoized KB and hand what froze with it back to the
    collector."""
    global _kb_memo
    if _kb_memo is not None:
        _kb_memo = None
        gc.unfreeze()


def _attempt_site(
    report: SiteReport,
    site: str,
    pages_dir: str,
    kb_path: str,
    registry_root: str | None,
    config_data: dict,
    threshold: float | None,
    site_metrics,
    *,
    global_samples: bool = False,
    isolate_pages: bool = False,
    site_timeout: float | None = None,
) -> tuple[list[dict], SiteSamples | None]:
    """One attempt at a site, end to end; raises on failure.

    Returns the site's extraction rows and, with ``global_samples``, its
    featurized training examples for the global model
    (:func:`~repro.transfer.trainer.featurize_site`), built while the
    parsed pages are at hand so the parent never re-parses the site.
    The attempt owns the pages it parsed and releases them
    (:meth:`~repro.dom.parser.Document.release`) once both are built.

    In the normal (full-batch) mode the caller wraps the whole call in a
    single :func:`~repro.runtime.resilience.deadline`.  In degraded
    ``isolate_pages`` mode this function budgets itself instead: each
    page load gets the site budget (so one hung page is quarantined, not
    fatal), and the pipeline over the surviving pages gets it again.
    """
    from repro.core.pipeline import CeresPipeline

    fault_point("site.run", site=site)
    config = config_from_dict(config_data)
    kb = _memoized_kb(kb_path)
    report.n_quarantined_pages = 0
    report.quarantined_pages = []
    quarantined: list[str] = []
    documents = load_site_documents(
        pages_dir, site,
        quarantined=quarantined if isolate_pages else None,
        page_timeout=site_timeout,
    )
    report.quarantined_pages = quarantined
    report.n_quarantined_pages = len(quarantined)
    report.n_pages = len(documents)

    with resilience.deadline(site_timeout if isolate_pages else None):
        pipeline = CeresPipeline(kb, config)
        result = pipeline.annotate(documents)
        report.n_skipped_clusters = result.skipped_clusters
        report.n_skipped_pages = result.skipped_pages
        pipeline.train(documents, result)
        samples = None
        if global_samples:
            from repro.transfer.features import TransferFeatureExtractor
            from repro.transfer.trainer import SiteExamples, featurize_site

            samples = featurize_site(
                SiteExamples.from_result(site, pipeline, documents, result),
                TransferFeatureExtractor(kb.ontology.names(), config),
            )
        site_model = SiteModel.from_result(site, config, result)
        report.n_clusters = len(site_model.clusters)

        if registry_root is not None:
            artifact = ModelRegistry(registry_root).save(site_model)
            report.artifact_path = str(artifact)

        service = ExtractionService()
        service.add_site_model(site_model)
        # Batched serving path: one CSR matrix + matmul per cluster model
        # over the whole site, same engine the long-lived service runs.
        # Wrapped as the canonical extract stage — in corpus mode this
        # call *is* the site's extraction stage (CeresPipeline.extract
        # never runs here).
        fault_point("site.extract", site=site)
        with obs.stage(
            "stage.extract", pages=len(documents)
        ) as extract_stage:
            extractions = service.extract_pages(site, documents, threshold)
            extract_stage.set(extractions=len(extractions))
        report.n_extractions = len(extractions)

        # Seed-KB agreement for fusion's reliability weights — computed
        # here, where the KB is already resident, so the coordinator
        # never has to load it.
        from repro.fusion.reliability import extraction_agreement

        report.kb_checked, report.kb_agreed = extraction_agreement(
            kb, extractions
        )
        rows = [
            extraction_row(
                extraction, documents[extraction.page_index].url, site
            )
            for extraction in extractions
        ]
        # Cache counters, published once at end of site (they are
        # cumulative per instance).
        service.publish_metrics(site_metrics)
        site_metrics.record_cache(pipeline.matcher.cache_stats())
    # The rows and samples are plain data: the trees free by refcount.
    for document in documents:
        document.release()
    return rows, samples


def _run_site(
    site: str,
    pages_dir: str,
    kb_path: str,
    registry_root: str | None,
    config_data: dict,
    threshold: float | None,
    trace: bool = False,
    site_timeout: float | None = None,
    max_attempts: int = 1,
    retry_backoff: float = 0.5,
    global_samples: bool = False,
) -> dict:
    """Process one site with retries and quarantine; never raises.

    Runs in a pool worker, so every argument and the return value are
    plain picklable data.  The KB travels as a path, not a pickle (which
    would ship the whole KB with every task): each process parses it
    once and keeps it for its later sites (:func:`_memoized_kb`), which
    works under every pool start method, unlike a KB inherited through
    fork.

    Attempt schedule: up to ``max_attempts`` full-batch attempts, each
    under ``site_timeout`` wall-clock, retrying **transient** and
    **overload** failures (``classify_error`` — busy is worth waiting
    out just like flaky; only *permanent* aborts the schedule) after a
    deterministic-jitter exponential backoff.  If the full batch never succeeds (permanent error, or
    retries exhausted), one final **degraded** attempt isolates pages:
    poison pages are quarantined by name and the site completes on the
    survivors — a bad page costs a page, not a site.

    With ``global_samples``, a site that completes in full-batch mode
    also returns its global-model samples (``"global_samples"``); a
    degraded site returns none, since its quarantined pages are missing
    from them.

    Telemetry: the site runs under a scoped metrics registry (plus a
    scoped tracer when ``trace`` is set), and the snapshot/spans ride
    home inside the report — each attempt is a ``site.attempt`` span,
    retries count into ``runner.retries`` and quarantined pages into
    ``runner.quarantined``.
    """
    report = SiteReport(site=site, ok=False)
    rows: list[dict] = []
    samples = None
    max_attempts = max(1, max_attempts)
    with obs.scoped(tracing=trace, metrics=True) as (site_tracer, site_metrics):
        timing = site_metrics.timer("runner.site_seconds")
        with timing, obs.span("site.run", site=site):
            for attempt in range(1, max_attempts + 1):
                report.attempts = attempt
                try:
                    with obs.span("site.attempt", site=site, attempt=attempt):
                        with resilience.deadline(site_timeout):
                            rows, samples = _attempt_site(
                                report, site, pages_dir, kb_path,
                                registry_root, config_data, threshold,
                                site_metrics, global_samples=global_samples,
                            )
                    report.ok = True
                    report.error = None
                    report.traceback = None
                    break
                except Exception as exc:  # noqa: BLE001 — isolation is the contract
                    report.error = f"{type(exc).__name__}: {exc}"
                    report.traceback = traceback.format_exc()
                    rows = []
                    if resilience.classify_error(exc) == "permanent":
                        break
                    if attempt < max_attempts:
                        site_metrics.inc("runner.retries")
                        resilience.sleep_backoff(
                            attempt, base=retry_backoff, key=site
                        )
            if not report.ok:
                # Degraded page-isolation pass: the last line of defense
                # between a poison page and a lost site.
                try:
                    with obs.span(
                        "site.attempt", site=site,
                        attempt=report.attempts + 1, degraded=True,
                    ):
                        rows, _ = _attempt_site(
                            report, site, pages_dir, kb_path,
                            registry_root, config_data, threshold,
                            site_metrics,
                            isolate_pages=True, site_timeout=site_timeout,
                        )
                    report.ok = True
                    report.degraded = True
                    report.error = None
                    report.traceback = None
                # repro: allow[exception-taxonomy] last-ditch degraded pass — the error was already classified permanent upstream; record it on the report and keep the corpus running
                except Exception as exc:  # noqa: BLE001
                    report.error = f"{type(exc).__name__}: {exc}"
                    report.traceback = traceback.format_exc()
                    rows = []
            if report.ok and report.n_quarantined_pages:
                site_metrics.inc(
                    "runner.quarantined", report.n_quarantined_pages
                )
        report.seconds = timing.elapsed
        site_metrics.inc("runner.sites_ok" if report.ok else "runner.sites_failed")
        report.metrics = site_metrics.snapshot()
        if trace:
            report.spans = site_tracer.export()
    return {"report": report.__dict__, "rows": rows, "global_samples": samples}


# -- coordinator -----------------------------------------------------------


def run_corpus(
    corpus: str | Path,
    kb_path: str | Path,
    registry_root: str | Path | None,
    *,
    config: CeresConfig | None = None,
    threshold: float | None = None,
    max_workers: int | None = None,
    output: TextIO | None = None,
    fuse: "FactStore | None" = None,
    train_global: bool = False,
    log: Callable[[str], None] | None = None,
    run_dir: str | Path | None = None,
    resume: bool = False,
    site_timeout: float | None = None,
    max_attempts: int = 3,
    retry_backoff: float = 0.5,
) -> list[SiteReport]:
    """Train and extract every site of ``corpus``; returns per-site reports.

    Args:
        corpus: directory-of-directories or JSONL manifest
            (see :func:`discover_corpus`).
        kb_path: seed KB JSON, parsed once by each worker process.
        registry_root: where artifacts land (None to skip persisting).
        config: pipeline config applied to every site.
        threshold: extraction confidence override (default: config's).
        max_workers: process count; ``None`` lets the executor pick,
            ``<= 1`` runs inline (no subprocesses — simplest to debug).
        output: writable text stream receiving extraction JSONL rows.
            Without ``run_dir`` they stream per site in completion order;
            with ``run_dir`` they are assembled at the end in sorted-site
            order from the journal's rows files, so the bytes are
            deterministic and resume-invariant.
        fuse: a :class:`~repro.fusion.store.FactStore` that ingests each
            site's rows (and seed-KB agreement counts) as the site
            completes; the caller finalizes it.  The fused output is
            bit-identical regardless of worker completion order.
        train_global: additionally train the cross-site global model
            over the corpus and persist it as the registry's global
            artifact (requires ``registry_root``) — future unseen sites
            can then be served zero-shot via ``serve --transfer-fallback``.
            Each worker featurizes the training examples of the site it
            trained; once every site completes, this process pools them
            in corpus order and fits.  Sites without worker samples
            (resumed, failed, or degraded) are parsed, annotated and
            featurized here, so the model does not depend on which sites
            ran.
        log: per-site progress callback (e.g. ``print`` to stderr).
        run_dir: per-run directory for the crash-safe journal and
            per-site rows (see :class:`~repro.runtime.resilience.
            RunJournal`).  Required for ``resume``.
        resume: continue a journaled run: sites whose journal state is
            done/quarantined *and* whose page-content fingerprint is
            unchanged are skipped (their persisted rows are replayed into
            ``output``/``fuse``); everything else re-runs.  The final
            extraction and fused JSONL are byte-identical to an
            uninterrupted run.
        site_timeout: per-site wall-clock budget in seconds (None = no
            limit); enforced per attempt.
        max_attempts: full-batch attempts per site (transient failures
            retry with backoff; permanent ones don't).
        retry_backoff: base of the exponential backoff window, seconds
            (>= 0).

    Reports come back with resumed sites first (sorted by name), then
    executed sites in completion order; failed sites carry their error
    and traceback instead of aborting the run.
    """
    specs = discover_corpus(corpus)
    config_data = config_to_dict(config or CeresConfig())
    registry = str(registry_root) if registry_root is not None else None
    emit = log or (lambda message: None)
    if train_global and registry is None:
        raise ValueError(
            "train_global requires registry_root (the global artifact "
            "needs somewhere to live)"
        )
    if resume and run_dir is None:
        raise ValueError("resume=True requires run_dir")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be >= 0")
    # Workers always collect metrics (the snapshot is small and carries
    # cache/skip telemetry to the parent); spans only when the parent
    # actually traces — they are bulkier to pickle.
    trace = obs.tracing_enabled()

    journal: resilience.RunJournal | None = None
    fingerprints: dict[str, str] = {}
    skipped: list[SiteReport] = []
    to_run = specs
    if run_dir is not None:
        journal = resilience.RunJournal(run_dir)
        states = journal.open(
            config_hash=resilience.config_fingerprint(
                config_data, threshold,
                kb_sha256=_kb_sha256(Path(kb_path).read_bytes()),
            ),
            resume=resume,
            report_fields=SiteReport.__dataclass_fields__,
        )
        for spec in specs:
            fingerprints[spec.site] = resilience.site_fingerprint(
                _page_files(Path(spec.pages_dir))
            )
        to_run = []
        for spec in specs:
            record = states.get(spec.site)
            if (
                resume
                and record is not None
                and record.get("state")
                in (resilience.STATE_DONE, resilience.STATE_QUARANTINED)
                and record.get("fingerprint") == fingerprints[spec.site]
                and journal.rows_path(spec.site).is_file()
            ):
                report = SiteReport(**(record.get("report") or {}))
                report.resumed = True
                skipped.append(report)
            else:
                to_run.append(spec)
        # Replay skipped sites into the fusion store up front — the
        # FactStore's fused output is ingestion-order-invariant, so
        # "replayed rows + fresh rows" fuses byte-identically to an
        # uninterrupted run.
        for report in skipped:
            if fuse is not None and report.ok:
                fuse.ingest_rows(journal.read_rows(report.site))
                fuse.observe_agreement(
                    report.site, report.kb_checked, report.kb_agreed
                )
            emit(report.summary())

    def mark_running(spec: SiteSpec) -> None:
        """Write-ahead: the journal learns about a site before any work
        happens, so a crash mid-site re-runs it on resume."""
        if journal is not None:
            journal.record_site(
                spec.site, resilience.STATE_RUNNING,
                fingerprint=fingerprints[spec.site],
            )

    #: site -> its worker's global-model samples (``train_global`` only).
    featurized: dict[str, SiteSamples] = {}

    def handle(payload: dict) -> SiteReport:
        report = SiteReport(**payload["report"])
        if payload["global_samples"] is not None:
            featurized[report.site] = payload["global_samples"]
        # Fold the worker's telemetry into the parent's instruments —
        # both are no-ops when the parent runs with obs disabled.
        if report.metrics:
            obs.metrics().merge_snapshot(report.metrics)
        if report.spans:
            obs.tracer().absorb(report.spans)
        if journal is None:
            if output is not None:
                for row in payload["rows"]:
                    output.write(json.dumps(row, ensure_ascii=False) + "\n")
                output.flush()
        else:
            if report.ok:
                journal.write_rows(report.site, payload["rows"])
            if not report.ok:
                state = resilience.STATE_FAILED
            elif report.n_quarantined_pages:
                state = resilience.STATE_QUARANTINED
            else:
                state = resilience.STATE_DONE
            journal.record_site(
                report.site, state,
                fingerprint=fingerprints[report.site],
                report=_journal_view(report),
            )
        if fuse is not None and report.ok:
            fuse.ingest_rows(payload["rows"])
            fuse.observe_agreement(
                report.site, report.kb_checked, report.kb_agreed
            )
        emit(report.summary())
        # Chaos hook for resume tests: "crash" the coordinator right
        # after this site is fully committed.
        fault_point("runner.site_committed", site=report.site)
        return report

    def finish(reports: list[SiteReport]) -> list[SiteReport]:
        if journal is not None and output is not None:
            # Deterministic assembly: every ok site's persisted rows, in
            # sorted-site order — identical bytes whether the run was
            # uninterrupted, killed-and-resumed, or differently sharded.
            for report in sorted(
                (r for r in reports if r.ok), key=lambda r: r.site
            ):
                output.write(journal.read_rows_text(report.site))
            output.flush()
        if train_global:
            # The workers shipped the samples of the sites they trained;
            # only the other sites are annotated here, and only they need
            # the KB (already memoized when the sites ran inline).
            from repro.transfer.trainer import train_global_from_corpus

            annotate_here = any(spec.site not in featurized for spec in specs)
            train_global_from_corpus(
                corpus,
                _memoized_kb(str(kb_path)) if annotate_here else None,
                config=config_from_dict(config_data),
                registry_root=registry,
                log=log,
                featurized=featurized,
            )
        return reports

    worker_args = dict(
        site_timeout=site_timeout,
        max_attempts=max_attempts,
        retry_backoff=retry_backoff,
        global_samples=train_global,
    )
    reports: list[SiteReport] = list(skipped)
    try:
        if max_workers is not None and max_workers <= 1:
            for spec in to_run:
                mark_running(spec)
                reports.append(
                    handle(
                        _run_site(
                            spec.site, spec.pages_dir, str(kb_path),
                            registry, config_data, threshold, trace,
                            **worker_args,
                        )
                    )
                )
            return finish(reports)

        # Workers inherit the parent's sys.path under every start method
        # (fork directly; spawn/forkserver via multiprocessing's preparation
        # data), so `import repro` resolves in children exactly as it did
        # here.
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers
        ) as pool:
            futures = {}
            for spec in to_run:
                mark_running(spec)
                futures[
                    pool.submit(
                        _run_site,
                        spec.site, spec.pages_dir, str(kb_path),
                        registry, config_data, threshold, trace,
                        **worker_args,
                    )
                ] = spec
            for future in concurrent.futures.as_completed(futures):
                spec = futures[future]
                try:
                    payload = future.result()
                # repro: allow[exception-taxonomy] worker crashed outside _run_site's own taxonomy (e.g. BrokenProcessPool); fold it into a failed SiteReport so one site can't sink the run
                except Exception as exc:  # worker crashed outside _run_site
                    payload = {
                        "report": SiteReport(
                            site=spec.site,
                            ok=False,
                            error=(
                                f"worker crashed: "
                                f"{type(exc).__name__}: {exc}"
                            ),
                            # The parent-side traceback is all that's
                            # left of a dead worker — record it rather
                            # than nothing.
                            traceback="".join(traceback.format_exception(exc)),
                            # A metrics snapshot a crashed worker never
                            # got to produce: the failure still counts in
                            # the parent's merged registry.
                            metrics={
                                "counters": {"runner.sites_failed": 1},
                                "histograms": {},
                            },
                        ).__dict__,
                        "rows": [],
                        "global_samples": None,
                    }
                reports.append(handle(payload))
        return finish(reports)
    finally:
        _clear_kb_memo()
        if journal is not None:
            journal.close()
