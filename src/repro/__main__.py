"""Command-line interface: ``python -m repro``.

One-shot mode (the original flow — annotate, train, and extract in a
single process)::

    python -m repro extract --kb seed_kb.json --pages ./site_html \
        --threshold 0.75 --output triples.jsonl

Train/serve split (the production flow — train once, persist the model
to a registry, serve extractions from the artifact without retraining)::

    python -m repro train --kb seed_kb.json --pages ./site_html --registry ./models
    python -m repro serve --registry ./models --pages ./site_html \
        --output triples.jsonl

Cross-site transfer (train one site-agnostic global model over a corpus,
then serve sites that have no per-site artifact zero-shot from it)::

    python -m repro train-global --kb seed_kb.json --corpus ./sites \
        --registry ./models
    python -m repro serve --registry ./models --pages ./new_site_html \
        --transfer-fallback --output triples.jsonl

Corpus mode (many sites, a process pool, per-site failure isolation)::

    python -m repro run-corpus --kb seed_kb.json --corpus ./sites \
        --registry ./models --output triples.jsonl --workers 4

Fault-tolerant corpus mode (crash-safe journal in ``--run-dir``; a
killed run resumed with ``--resume`` skips unchanged completed sites and
reproduces byte-identical output; ``--site-timeout``/``--max-attempts``
bound hung and flaky sites, and a failing site is retried once in
degraded page-isolation mode that quarantines poison pages)::

    python -m repro run-corpus --kb seed_kb.json --corpus ./sites \
        --registry ./models --output triples.jsonl --workers 4 \
        --run-dir ./run1 --site-timeout 300 --max-attempts 3
    # ... SIGKILL mid-run, then:
    python -m repro run-corpus --kb seed_kb.json --corpus ./sites \
        --registry ./models --output triples.jsonl --workers 4 \
        --run-dir ./run1 --resume

``--corpus`` accepts a directory of per-site subdirectories or a JSONL
manifest of ``{"site": ..., "pages": ...}`` lines; see
:mod:`repro.runtime.runner`.  Adding ``--fuse-output facts.jsonl``
streams every completed site into a :class:`~repro.fusion.store.FactStore`
and writes reliability-weighted fused facts when the corpus finishes.

Standalone fusion (the same fused output, from extraction JSONL already
on disk)::

    python -m repro fuse --input triples.jsonl --kb seed_kb.json \
        --output facts.jsonl --min-sites 2

Cache observability (hit/miss/eviction counters of the site-residency LRU)::

    python -m repro stats --registry ./models --pages ./site_html

Tracing and metrics (``repro.obs``): every processing command accepts
``--trace-output spans.jsonl`` (nested wall-clock spans, one JSON object
per line) and ``--metrics-output metrics.json`` (a mergeable
counter/histogram snapshot — for ``run-corpus`` it already includes
every worker's telemetry, merged)::

    python -m repro run-corpus --kb seed_kb.json --corpus ./sites \
        --registry ./models --output triples.jsonl --workers 4 \
        --trace-output spans.jsonl --metrics-output metrics.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The program's parallelism is run-corpus's process pool and serve-http's
# threads; a BLAS thread pool per process on top of them only
# oversubscribes the cores.  BLAS reads these once, when numpy loads, so
# they are set before the first import below that loads it; a value the
# user exported still wins.
for _blas_threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_blas_threads, "1")

from repro import obs
from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.kb.io import load_kb

__all__ = ["main"]


def _add_min_predicate_pages(parser: argparse.ArgumentParser) -> None:
    """Annotation knob shared by the commands that run Algorithm 2."""
    parser.add_argument(
        "--min-predicate-pages", type=int, default=None, metavar="N",
        help="judge object over-representation only for predicates seen on "
        "at least N pages (default: CeresConfig.min_predicate_pages)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Tracing/metrics outputs, shared by every processing command."""
    parser.add_argument(
        "--trace-output", default=None, metavar="PATH",
        help="write nested wall-clock spans as JSONL here (enables tracing)",
    )
    parser.add_argument(
        "--metrics-output", default=None, metavar="PATH",
        help="write a counter/histogram snapshot as JSON here "
        "(enables metrics)",
    )


def _setup_obs(args) -> None:
    """Enable the requested observability modes before dispatch.

    Must run before the command constructs any instrumented object that
    captures its instruments at construction time (e.g.
    :class:`~repro.fusion.store.FactStore`).
    """
    obs.enable(
        tracing=getattr(args, "trace_output", None) is not None,
        metrics=getattr(args, "metrics_output", None) is not None,
    )


def _write_obs(args) -> None:
    """Write whatever the enabled instruments collected (even on a failed
    run — partial telemetry is exactly what you want when diagnosing one)."""
    trace_path = getattr(args, "trace_output", None)
    if trace_path is not None:
        from repro.obs.tracer import write_spans_jsonl

        with open(trace_path, "w", encoding="utf-8") as sink:
            n_spans = write_spans_jsonl(obs.tracer().export(), sink)
        print(f"[repro] {n_spans} span(s) -> {trace_path}", file=sys.stderr)
    metrics_path = getattr(args, "metrics_output", None)
    if metrics_path is not None:
        with open(metrics_path, "w", encoding="utf-8") as sink:
            json.dump(obs.metrics().snapshot(), sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"[repro] metrics snapshot -> {metrics_path}", file=sys.stderr)


def _annotation_overrides(args) -> dict:
    """CeresConfig overrides from annotation-stage CLI flags."""
    overrides = {}
    min_pages = getattr(args, "min_predicate_pages", None)
    if min_pages is not None:
        if min_pages < 1:
            raise SystemExit("--min-predicate-pages must be >= 1")
        overrides["min_predicate_pages"] = min_pages
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CERES: distantly supervised extraction from semi-structured websites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="annotate, train, and extract from a site")
    extract.add_argument("--kb", required=True, help="seed KB JSON file")
    extract.add_argument(
        "--pages", required=True, help="directory of .html files (one site)"
    )
    extract.add_argument(
        "--threshold", type=float, default=0.5, help="confidence threshold (default 0.5)"
    )
    extract.add_argument(
        "--output", default="-", help="output JSONL path (default: stdout)"
    )
    extract.add_argument(
        "--no-template-clustering", action="store_true",
        help="treat all pages as one template",
    )
    _add_min_predicate_pages(extract)
    _add_obs_flags(extract)

    annotate = sub.add_parser(
        "annotate", help="run annotation only and print the labels"
    )
    annotate.add_argument("--kb", required=True)
    annotate.add_argument("--pages", required=True)
    _add_min_predicate_pages(annotate)

    train = sub.add_parser(
        "train", help="annotate + train a site and persist the model to a registry"
    )
    train.add_argument("--kb", required=True, help="seed KB JSON file")
    train.add_argument(
        "--pages", required=True, help="directory of .html files (one site)"
    )
    train.add_argument(
        "--registry", required=True, help="model registry directory"
    )
    train.add_argument(
        "--site", default=None,
        help="site name the artifact is keyed by (default: pages directory name)",
    )
    train.add_argument(
        "--threshold", type=float, default=0.5,
        help="default confidence threshold stored with the model (default 0.5)",
    )
    train.add_argument(
        "--no-template-clustering", action="store_true",
        help="treat all pages as one template",
    )
    _add_min_predicate_pages(train)
    _add_obs_flags(train)

    serve = sub.add_parser(
        "serve",
        help="extract using a registry artifact — no annotation, no training",
    )
    serve.add_argument("--registry", required=True, help="model registry directory")
    serve.add_argument(
        "--pages", required=True, help="directory of .html files to extract from"
    )
    serve.add_argument(
        "--site", default=None,
        help="registry site key (default: pages directory name)",
    )
    serve.add_argument(
        "--threshold", type=float, default=None,
        help="confidence threshold (default: the trained model's)",
    )
    serve.add_argument(
        "--output", default="-", help="output JSONL path (default: stdout)"
    )
    serve.add_argument(
        "--transfer-fallback", action="store_true",
        help="serve sites with no artifact zero-shot from the registry's "
        "cross-site global model (see `train-global`)",
    )
    _add_obs_flags(serve)

    serve_http = sub.add_parser(
        "serve-http",
        help="run the resilient HTTP/JSON serving tier in front of a "
        "registry (bounded queue, deadlines, per-site circuit breakers, "
        "graceful SIGTERM drain)",
    )
    serve_http.add_argument(
        "--registry", required=True, help="model registry directory"
    )
    serve_http.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_http.add_argument(
        "--port", type=int, default=8080,
        help="TCP port; 0 binds an ephemeral port (default 8080)",
    )
    serve_http.add_argument(
        "--threads", type=int, default=2,
        help="batch worker threads (default 2)",
    )
    serve_http.add_argument(
        "--max-queue-depth", type=int, default=64,
        help="admission queue bound; beyond it requests are shed with "
        "429 + Retry-After (default 64)",
    )
    serve_http.add_argument(
        "--request-deadline", type=float, default=30.0, metavar="SECONDS",
        help="per-request wall-clock budget, enqueue to response "
        "(default 30; expired requests get 504)",
    )
    serve_http.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint on shed/draining responses (default 1)",
    )
    serve_http.add_argument(
        "--batch-max-pages", type=int, default=64,
        help="page cap per merged cross-request batch (default 64)",
    )
    serve_http.add_argument(
        "--batch-linger", type=float, default=0.0, metavar="SECONDS",
        help="wait up to this long for same-site requests to co-batch "
        "(default 0: score immediately)",
    )
    serve_http.add_argument(
        "--breaker-failures", type=int, default=3,
        help="consecutive permanent failures that open a site's circuit "
        "breaker (default 3)",
    )
    serve_http.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe (default 30)",
    )
    serve_http.add_argument(
        "--breaker-probes", type=int, default=1,
        help="successful probes required to close a half-open breaker "
        "(default 1)",
    )
    serve_http.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="SIGTERM drain budget before queued work is force-answered "
        "503 (default 30)",
    )
    serve_http.add_argument(
        "--max-body-bytes", type=int, default=16 << 20,
        help="largest accepted request body (default 16 MiB)",
    )
    serve_http.add_argument(
        "--max-resident-sites", type=int, default=None,
        help="site residency cap (default: CeresConfig.max_resident_sites)",
    )
    serve_http.add_argument(
        "--transfer-fallback", action="store_true",
        help="serve sites with no artifact zero-shot from the registry's "
        "cross-site global model (breaker-open degradation always tries "
        "the global model regardless of this flag)",
    )
    serve_http.add_argument(
        "--max-parse-depth", type=int, default=None,
        help="element nesting cap for untrusted HTML "
        "(default: CeresConfig.max_parse_depth)",
    )
    serve_http.add_argument(
        "--max-parse-nodes", type=int, default=None,
        help="parsed-node cap for untrusted HTML "
        "(default: CeresConfig.max_parse_nodes)",
    )
    _add_obs_flags(serve_http)

    train_global = sub.add_parser(
        "train-global",
        help="train the cross-site global (transfer) model over a corpus "
        "and persist it to the registry",
    )
    train_global.add_argument("--kb", required=True, help="seed KB JSON file")
    train_global.add_argument(
        "--corpus", required=True,
        help="directory of per-site subdirectories, or a JSONL manifest",
    )
    train_global.add_argument(
        "--registry", required=True,
        help="model registry directory the global artifact is written to",
    )
    train_global.add_argument(
        "--exclude", action="append", default=[], metavar="SITE",
        help="leave this site out of training (repeatable; e.g. the site "
        "you plan to evaluate zero-shot)",
    )
    _add_min_predicate_pages(train_global)
    _add_obs_flags(train_global)

    corpus = sub.add_parser(
        "run-corpus",
        help="train + extract every site of a multi-site corpus in parallel",
    )
    corpus.add_argument("--kb", required=True, help="seed KB JSON file")
    corpus.add_argument(
        "--corpus", required=True,
        help="directory of per-site subdirectories, or a JSONL manifest",
    )
    corpus.add_argument(
        "--registry", required=True, help="model registry directory for artifacts"
    )
    corpus.add_argument(
        "--output", default="-", help="extraction JSONL path (default: stdout)"
    )
    corpus.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: one per core; 1 = run inline)",
    )
    corpus.add_argument(
        "--threshold", type=float, default=0.5,
        help="confidence threshold (default 0.5)",
    )
    corpus.add_argument(
        "--no-template-clustering", action="store_true",
        help="treat each site's pages as one template",
    )
    _add_min_predicate_pages(corpus)
    corpus.add_argument(
        "--train-global", action="store_true", dest="train_global",
        help="after the corpus finishes, pool every site's training "
        "examples into a cross-site global model (see `train-global`)",
    )
    corpus.add_argument(
        "--fuse-output", default=None,
        help="also fuse all sites' extractions and write fused-fact JSONL here",
    )
    corpus.add_argument(
        "--fuse-min-sites", type=int, default=1,
        help="fused facts need support from this many sites (default 1)",
    )
    corpus.add_argument(
        "--fuse-min-score", type=float, default=0.0,
        help="drop fused facts scoring below this (default 0)",
    )
    corpus.add_argument(
        "--no-fuse-reliability", action="store_true",
        help="plain noisy-OR: skip seed-KB site-reliability weighting",
    )
    corpus.add_argument(
        "--run-dir", default=None,
        help="per-run directory for the crash-safe journal and per-site "
        "rows; a killed run restarted with --resume skips unchanged "
        "completed sites and reproduces byte-identical output",
    )
    corpus.add_argument(
        "--resume", action="store_true",
        help="continue the journaled run in --run-dir (requires --run-dir)",
    )
    corpus.add_argument(
        "--site-timeout", type=float, default=None, metavar="SECONDS",
        help="per-site wall-clock budget per attempt (default: none)",
    )
    corpus.add_argument(
        "--max-attempts", type=int, default=3,
        help="full-batch attempts per site; transient failures retry "
        "with exponential backoff (default 3)",
    )
    corpus.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential retry-backoff window (default 0.5)",
    )
    _add_obs_flags(corpus)

    fuse = sub.add_parser(
        "fuse",
        help="fuse extraction JSONL (run-corpus output) into scored facts",
    )
    fuse.add_argument(
        "--input", required=True,
        help="extraction JSONL with per-row 'site' labels ('-' for stdin)",
    )
    fuse.add_argument(
        "--output", default="-", help="fused-fact JSONL path (default: stdout)"
    )
    fuse.add_argument(
        "--kb", default=None,
        help="seed KB JSON; enables site-reliability weighting",
    )
    fuse.add_argument(
        "--site", default=None,
        help="site label for rows that carry no 'site' field (extract/serve output)",
    )
    fuse.add_argument(
        "--min-sites", type=int, default=1,
        help="fused facts need support from this many sites (default 1)",
    )
    fuse.add_argument(
        "--min-score", type=float, default=0.0,
        help="drop fused facts scoring below this (default 0)",
    )
    fuse.add_argument(
        "--shards", type=int, default=8,
        help="predicate-keyed shard count (default 8; output-invariant)",
    )
    fuse.add_argument(
        "--max-resident-facts", type=int, default=None,
        help="spill partial aggregates to disk beyond this many facts",
    )
    fuse.add_argument(
        "--spill-dir", default=None,
        help="spill directory (default: a self-cleaning temp dir)",
    )
    _add_obs_flags(fuse)

    stats = sub.add_parser(
        "stats",
        help="report serving cache statistics (optionally after a warm batch)",
    )
    stats.add_argument("--registry", required=True, help="model registry directory")
    stats.add_argument(
        "--pages", default=None,
        help="optional .html directory to serve first, so counters are warm",
    )
    stats.add_argument(
        "--site", default=None,
        help="registry site key (default: pages directory name)",
    )
    stats.add_argument(
        "--max-resident-sites", type=int, default=None,
        help="site residency cap (default: CeresConfig.max_resident_sites)",
    )

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the AST-based repo invariant checker",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        dest="lint_format",
        help="finding output format (default: text)",
    )
    lint.add_argument(
        "--rule", action="append", default=[], metavar="RULE_ID",
        help="run only this rule id (repeatable)",
    )
    lint.add_argument(
        "--exclude", action="append", default=[], metavar="RULE_ID",
        help="skip this rule id (repeatable)",
    )
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="also report findings silenced by `# repro: allow[...]`",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _load_documents(pages_dir: str) -> list:
    from repro.runtime.runner import load_site_documents

    try:
        return load_site_documents(pages_dir)
    except FileNotFoundError as error:
        raise SystemExit(str(error))


def _open_sink(output: str):
    return sys.stdout if output == "-" else open(output, "w", encoding="utf-8")


def _write_extractions(extractions, documents, sink) -> None:
    """The shared JSONL row format of extract/serve."""
    from repro.runtime.runner import extraction_row

    for extraction in extractions:
        sink.write(
            json.dumps(
                extraction_row(extraction, documents[extraction.page_index].url),
                ensure_ascii=False,
            )
            + "\n"
        )


def _cmd_annotate(args) -> int:
    kb = load_kb(args.kb)
    documents = _load_documents(args.pages)
    pipeline = CeresPipeline(kb, CeresConfig(**_annotation_overrides(args)))
    result = pipeline.annotate(documents)
    for page in result.annotated_pages:
        topic = kb.entity(page.topic_entity_id).name
        for annotation in page.annotations:
            print(
                json.dumps(
                    {
                        "page": documents[page.page_index].url,
                        "topic": topic,
                        "predicate": annotation.predicate,
                        "text": annotation.node.text.strip(),
                        "xpath": annotation.node.xpath,
                    },
                    ensure_ascii=False,
                )
            )
    return 0


def _cmd_extract(args) -> int:
    kb = load_kb(args.kb)
    documents = _load_documents(args.pages)
    config = CeresConfig(
        confidence_threshold=args.threshold,
        use_template_clustering=not args.no_template_clustering,
        **_annotation_overrides(args),
    )
    pipeline = CeresPipeline(kb, config)
    result = pipeline.run(documents, documents)
    obs.metrics().record_cache(pipeline.matcher.cache_stats())
    sink = _open_sink(args.output)
    try:
        _write_extractions(result.extractions, documents, sink)
    finally:
        if sink is not sys.stdout:
            sink.close()
    print(
        f"[repro] {len(result.annotated_pages)} pages annotated, "
        f"{len(result.extractions)} triples extracted"
        + _skipped_note(result),
        file=sys.stderr,
    )
    return 0


def _skipped_note(result) -> str:
    """Stderr suffix naming pages dropped with undersized clusters."""
    if not result.skipped_clusters:
        return ""
    return (
        f" ({result.skipped_pages} page(s) in {result.skipped_clusters} "
        f"cluster(s) below min_cluster_size skipped)"
    )


def _cmd_train(args) -> int:
    from repro.runtime import ModelRegistry, SiteModel

    kb = load_kb(args.kb)
    documents = _load_documents(args.pages)
    site = args.site or Path(args.pages).name
    config = CeresConfig(
        confidence_threshold=args.threshold,
        use_template_clustering=not args.no_template_clustering,
        **_annotation_overrides(args),
    )
    pipeline = CeresPipeline(kb, config)
    result = pipeline.annotate(documents)
    pipeline.train(documents, result)
    obs.metrics().record_cache(pipeline.matcher.cache_stats())
    site_model = SiteModel.from_result(site, config, result)
    path = ModelRegistry(args.registry).save(site_model)
    print(
        f"[repro] site={site}: {len(result.annotated_pages)} pages annotated, "
        f"{len(site_model.clusters)} cluster model(s) trained → {path}"
        + _skipped_note(result),
        file=sys.stderr,
    )
    if not site_model.clusters:
        print(
            "[repro] warning: no cluster reached a trainable model; "
            "serve will extract nothing for this site",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args) -> int:
    from repro.runtime import ExtractionService, RegistryError

    documents = _load_documents(args.pages)
    site = args.site or Path(args.pages).name
    service = ExtractionService(
        args.registry, transfer_fallback=args.transfer_fallback
    )
    try:
        extractions = service.extract_pages(site, documents, args.threshold)
    except RegistryError as error:
        raise SystemExit(f"registry error: {error}")
    service.publish_metrics()
    sink = _open_sink(args.output)
    try:
        _write_extractions(extractions, documents, sink)
    finally:
        if sink is not sys.stdout:
            sink.close()
    zero_shot = any(
        getattr(extraction, "model", "site") != "site"
        for extraction in extractions
    )
    print(
        f"[repro] site={site}: {len(documents)} pages served, "
        f"{len(extractions)} triples extracted "
        + ("(zero-shot, global model)" if zero_shot else "(no retraining)"),
        file=sys.stderr,
    )
    return 0


def _cmd_serve_http(args) -> int:
    import signal

    from repro.runtime import ExtractionService
    from repro.serving import ServingConfig, ServingServer

    if args.max_resident_sites is not None and args.max_resident_sites < 1:
        raise SystemExit("--max-resident-sites must be >= 1")
    try:
        serving_config = ServingConfig(
            host=args.host,
            port=args.port,
            workers=args.threads,
            max_queue_depth=args.max_queue_depth,
            request_deadline=args.request_deadline,
            retry_after=args.retry_after,
            batch_max_pages=args.batch_max_pages,
            batch_linger=args.batch_linger,
            breaker_failures=args.breaker_failures,
            breaker_cooldown=args.breaker_cooldown,
            breaker_probes=args.breaker_probes,
            drain_timeout=args.drain_timeout,
            max_body_bytes=args.max_body_bytes,
            max_parse_depth=args.max_parse_depth,
            max_parse_nodes=args.max_parse_nodes,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    service = ExtractionService(
        args.registry,
        transfer_fallback=args.transfer_fallback,
        max_resident_sites=args.max_resident_sites,
    )
    # Metrics power /stats and the shed/breaker counters — always on
    # here, but never clobbering a registry --metrics-output installed.
    if not obs.metrics_enabled():
        obs.enable(tracing=False, metrics=True)
    server = ServingServer(service, serving_config)
    server.start()

    def _terminate(signum, frame):  # noqa: ARG001 — signal handler signature
        print(
            f"[repro] signal {signum}: draining (in-flight work flushes, "
            f"new work gets 503)",
            file=sys.stderr,
            flush=True,
        )
        server.initiate_drain()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    # The port line is a contract: harnesses parse it to find an
    # ephemeral (--port 0) server.
    print(
        f"[repro] serving on http://{serving_config.host}:{server.port} "
        f"(workers={serving_config.workers}, "
        f"queue={serving_config.max_queue_depth})",
        file=sys.stderr,
        flush=True,
    )
    server.wait_stopped()
    print("[repro] drained, exiting", file=sys.stderr, flush=True)
    return 0


def _cmd_train_global(args) -> int:
    from repro.runtime import RegistryError, discover_corpus
    from repro.transfer import train_global_from_corpus

    try:
        discover_corpus(args.corpus)
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(str(error))
    config = CeresConfig(**_annotation_overrides(args))
    try:
        model, path = train_global_from_corpus(
            args.corpus,
            args.kb,
            config=config,
            registry_root=args.registry,
            exclude=tuple(args.exclude),
            log=lambda line: print(f"[repro] {line}", file=sys.stderr),
        )
    except (FileNotFoundError, RegistryError, ValueError) as error:
        raise SystemExit(str(error))
    print(
        f"[repro] global model: {len(model.labels)} label(s), "
        f"{model.vectorizer.n_features} transferable feature(s) "
        f"→ {path}",
        file=sys.stderr,
    )
    return 0


def _cmd_fuse(args) -> int:
    from repro.fusion import (
        AgreementTally,
        FactStore,
        estimate_reliability,
        write_fused_jsonl,
    )

    if args.min_sites < 1:
        raise SystemExit("--min-sites must be >= 1")
    try:
        store = FactStore(
            n_shards=args.shards,
            max_resident_facts=args.max_resident_facts,
            spill_dir=args.spill_dir,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    tally = None
    if args.kb is not None:
        tally = AgreementTally(load_kb(args.kb))
    try:
        source = sys.stdin if args.input == "-" else open(
            args.input, "r", encoding="utf-8"
        )
    except FileNotFoundError as error:
        raise SystemExit(str(error))
    seen_sites: set[str] = set()
    # The with-block guarantees spill files are removed even when a bad
    # row aborts the run before finalize().
    with store:
        try:
            for line_no, line in enumerate(source, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise TypeError(f"row is {type(row).__name__}, not an object")
                    # --site is a fallback for label-less extract/serve
                    # rows; a row's own site label always wins.
                    site = row.get("site") or args.site
                    if not site:
                        raise KeyError("site")
                    store.add_row(row, site)
                except (json.JSONDecodeError, AttributeError, KeyError,
                        TypeError, ValueError) as exc:
                    raise SystemExit(
                        f"{args.input}:{line_no}: bad extraction row "
                        f"(need site/subject/predicate/object/confidence; "
                        f"--site supplies a missing site label): {exc}"
                    )
                seen_sites.add(site)
                if tally is not None:
                    tally.observe(
                        site, row["subject"], row["predicate"], row["object"]
                    )
        finally:
            if source is not sys.stdin:
                source.close()

        if tally is not None:
            # Every site gets a weight — an unadjudicated site (no
            # checkable extraction) falls to the prior, exactly as in
            # run-corpus fusion.
            for site in sorted(seen_sites):
                store.site_reliability[site] = estimate_reliability(
                    *tally.counts(site)
                )
        facts = store.finalize(
            min_score=args.min_score, min_sites=args.min_sites
        )
    sink = _open_sink(args.output)
    try:
        n_facts = write_fused_jsonl(facts, sink)
    finally:
        if sink is not sys.stdout:
            sink.close()
    stats = store.stats()
    print(
        f"[repro] fused {stats['rows']} extraction row(s) into "
        f"{n_facts} fact(s) ({stats['spills']} spill(s)"
        + (
            f", reliability over {stats['reliability_sites']} site(s)"
            if tally is not None
            else ""
        )
        + ")",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args) -> int:
    from repro.runtime import ExtractionService, RegistryError

    if args.max_resident_sites is not None and args.max_resident_sites < 1:
        raise SystemExit("--max-resident-sites must be >= 1")
    service = ExtractionService(
        args.registry, max_resident_sites=args.max_resident_sites
    )
    # Metrics are always on for stats — rendering a registry snapshot is
    # the command's whole point.  scoped() keeps it local and restores
    # whatever state the caller had.
    with obs.scoped(tracing=False, metrics=True) as (_, registry):
        served = None
        if args.pages is not None:
            documents = _load_documents(args.pages)
            site = args.site or Path(args.pages).name
            try:
                extractions = service.extract_pages(site, documents)
            except RegistryError as error:
                raise SystemExit(f"registry error: {error}")
            served = {
                "site": site,
                "pages": len(documents),
                "extractions": len(extractions),
            }
        service.publish_metrics(registry)
        payload = {
            "available_sites": service.available_sites(),
            "loaded_sites": service.loaded_sites(),
            "cache_stats": service.cache_stats(),
            "metrics": registry.snapshot(),
        }
    if served is not None:
        payload["served"] = served
    print(json.dumps(payload, indent=2, ensure_ascii=False))
    return 0


def _cmd_run_corpus(args) -> int:
    from repro.runtime import discover_corpus, run_corpus

    config = CeresConfig(
        confidence_threshold=args.threshold,
        use_template_clustering=not args.no_template_clustering,
        **_annotation_overrides(args),
    )
    if args.resume and args.run_dir is None:
        raise SystemExit("--resume requires --run-dir")
    if args.max_attempts < 1:
        raise SystemExit("--max-attempts must be >= 1")
    if args.retry_backoff < 0:
        raise SystemExit("--retry-backoff must be >= 0 seconds")
    if args.site_timeout is not None and args.site_timeout <= 0:
        raise SystemExit("--site-timeout must be > 0 seconds")
    # Validate the corpus before _open_sink truncates a prior output file.
    try:
        discover_corpus(args.corpus)
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(str(error))
    store = None
    if args.fuse_output is not None:
        from repro.fusion import FactStore

        store = FactStore(use_reliability=not args.no_fuse_reliability)
    sink = _open_sink(args.output)
    fused_note = ""
    try:
        try:
            reports = run_corpus(
                args.corpus,
                args.kb,
                args.registry,
                config=config,
                threshold=args.threshold,
                max_workers=args.workers,
                output=sink,
                fuse=store,
                train_global=args.train_global,
                log=lambda line: print(f"[repro] {line}", file=sys.stderr),
                run_dir=args.run_dir,
                resume=args.resume,
                site_timeout=args.site_timeout,
                max_attempts=args.max_attempts,
                retry_backoff=args.retry_backoff,
            )
        except (FileNotFoundError, ValueError) as error:
            raise SystemExit(str(error))
        finally:
            if sink is not sys.stdout:
                sink.close()
        if store is not None:
            from repro.fusion import write_fused_jsonl

            facts = store.finalize(
                min_score=args.fuse_min_score, min_sites=args.fuse_min_sites
            )
            fused_sink = _open_sink(args.fuse_output)
            try:
                n_facts = write_fused_jsonl(facts, fused_sink)
            finally:
                if fused_sink is not sys.stdout:
                    fused_sink.close()
            fused_note = f", {n_facts} fused fact(s) → {args.fuse_output}"
    finally:
        if store is not None:
            store.close()  # no-op after finalize; reclaims spills on abort
    succeeded = sum(1 for report in reports if report.ok)
    failed = len(reports) - succeeded
    resumed = sum(1 for report in reports if report.resumed)
    quarantined = sum(report.n_quarantined_pages for report in reports)
    resilience_note = ""
    if resumed:
        resilience_note += f", {resumed} resumed unchanged"
    if quarantined:
        resilience_note += f", {quarantined} page(s) quarantined"
    print(
        f"[repro] corpus done: {succeeded} site(s) ok, {failed} failed"
        f"{resilience_note}, "
        f"{sum(r.n_extractions for r in reports)} triples extracted"
        f"{fused_note}",
        file=sys.stderr,
    )
    return 0 if succeeded else 1


def _cmd_lint(args) -> int:
    from repro import analysis

    if args.list_rules:
        for rule in analysis.ALL_RULES:
            print(f"{rule.id:24s} {rule.summary}")
        return 0
    try:
        findings = analysis.lint_paths(
            args.paths,
            include=tuple(args.rule),
            exclude=tuple(args.exclude),
        )
    except analysis.UnknownRuleError as error:
        print(str(error), file=sys.stderr)
        return 2
    active = analysis.active_findings(findings)
    shown = findings if args.show_suppressed else active
    rendered = analysis.FORMATTERS[args.lint_format](shown)
    if rendered:
        print(rendered)
    if args.lint_format == "text":
        suppressed = len(findings) - len(active)
        tail = f" ({suppressed} suppressed)" if suppressed else ""
        print(f"reprolint: {len(active)} finding(s){tail}", file=sys.stderr)
    # Exit code carries the finding count; cap below 126 so large counts
    # can't wrap modulo 256 into a clean exit.
    return min(len(active), 125)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "annotate": _cmd_annotate,
        "extract": _cmd_extract,
        "train": _cmd_train,
        "train-global": _cmd_train_global,
        "serve": _cmd_serve,
        "serve-http": _cmd_serve_http,
        "run-corpus": _cmd_run_corpus,
        "fuse": _cmd_fuse,
        "stats": _cmd_stats,
        "lint": _cmd_lint,
    }
    # Observability is enabled before dispatch (instrumented objects may
    # capture their instruments at construction) and written out even when
    # the command fails — partial telemetry is diagnostic gold.  disable()
    # restores the null singletons so repeated main() calls (tests) never
    # leak instruments into each other.
    _setup_obs(args)
    try:
        return handlers[args.command](args)
    finally:
        try:
            _write_obs(args)
        finally:
            obs.disable()


if __name__ == "__main__":
    raise SystemExit(main())
