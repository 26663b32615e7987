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
import contextlib
import dataclasses
import json
import os
import sys
import typing
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

#: Flags several commands share, each declared once; :func:`_add_shared`
#: attaches them to a command.
_SHARED_FLAGS: dict[str, dict] = {
    "--kb": dict(required=True, help="seed KB JSON file"),
    "--pages": dict(required=True, help="directory of .html files (one site)"),
    "--corpus": dict(
        required=True, help="directory of per-site subdirectories, or a JSONL manifest"
    ),
    "--registry": dict(required=True, help="model registry directory"),
    "--site": dict(help="registry site key (default: pages directory name)"),
    "--threshold": dict(
        type=float, default=0.5, help="confidence threshold (default %(default)s)"
    ),
    "--output": dict(default="-", help="output JSONL path (default: stdout)"),
    "--no-template-clustering": dict(
        action="store_true", help="treat each site's pages as one template"
    ),
    "--min-predicate-pages": dict(
        type=int, metavar="N",
        help="judge object over-representation only for predicates seen on "
        "at least N pages (default: CeresConfig.min_predicate_pages)",
    ),
    "--transfer-fallback": dict(
        action="store_true",
        help="serve sites with no artifact zero-shot from the registry's "
        "cross-site global model (see `train-global`)",
    ),
    "--max-resident-sites": dict(
        type=int,
        help="site residency cap (default: CeresConfig.max_resident_sites)",
    ),
    "--trace-output": dict(
        metavar="PATH",
        help="write nested wall-clock spans as JSONL here (enables tracing)",
    ),
    "--metrics-output": dict(
        metavar="PATH",
        help="write a counter/histogram snapshot as JSON here "
        "(enables metrics)",
    ),
}
#: Tracing/metrics outputs, accepted by every processing command.
_OBS_FLAGS = ("trace_output", "metrics_output")
#: Flags naming a file the command writes ("-" is stdout).
_OUTPUT_FLAGS = ("output", "fuse_output", *_OBS_FLAGS)

#: Help for serve-http's tuning flags, one per ServingConfig field; each
#: flag's type and default are read from the dataclass.
_SERVING_HELP = {
    "host": "bind address",
    "port": "TCP port; 0 binds an ephemeral port",
    "max_body_bytes": "largest accepted request body, in bytes",
    "workers": "batch worker threads; each claims one site's batch, and one batch computes at a time",
    "max_queue_depth": "admission queue bound; a full queue sheds with 429 + Retry-After",
    "retry_after": "Retry-After hint on shed (429) and draining (503) responses",
    "request_deadline": "per-request budget, enqueue to response (504); also reading the body (408)",
    "batch_max_pages": "page cap per merged cross-request batch",
    "batch_linger": "wait this long for same-site requests to co-batch; 0 scores at once",
    "breaker_failures": "consecutive permanent failures that open a site's breaker",
    "breaker_cooldown": "open-breaker cooldown before a half-open probe",
    "breaker_probes": "successful probes that close a half-open breaker",
    "drain_timeout": "SIGTERM drain budget before queued work is answered 503",
    "max_parse_depth": "element nesting cap for untrusted HTML (None: CeresConfig's)",
    "max_parse_nodes": "parsed-node cap for untrusted HTML (None: CeresConfig's)",
}


def _add_shared(parser, *dests: str, **overrides: dict) -> None:
    """Attach the shared flags named by their dests (``kb`` for ``--kb``);
    ``overrides`` maps a dest to the keywords that differ on this command."""
    for dest in dests:
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, **_SHARED_FLAGS[flag] | overrides.get(dest, {}))


def _add_serving_flags(parser) -> None:
    """One flag per :class:`~repro.serving.config.ServingConfig` field,
    stored under the field's name."""
    from repro.serving.config import ServingConfig

    hints = typing.get_type_hints(ServingConfig)
    for field in dataclasses.fields(ServingConfig):
        # An optional field (``int | None``) parses as its non-None type.
        kind = next(
            (t for t in typing.get_args(hints[field.name]) if t is not type(None)),
            hints[field.name],
        )
        # The one flag named apart from its field: --threads predates it.
        name = "threads" if field.name == "workers" else field.name
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=field.name, type=kind,
            default=field.default,
            metavar="SECONDS" if kind is float else name.upper(),
            help=_SERVING_HELP[field.name] + " (default: %(default)s)",
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


def _check_outputs(args) -> None:
    """Refuse an output path no file can be written at — one whose
    directory is missing, or a directory itself — before the command
    does any work.  Otherwise run-corpus would truncate ``--output`` and
    run every site only to fail writing the fused facts or the trace."""
    for dest in _OUTPUT_FLAGS:
        output = getattr(args, dest, None)
        if output is None or output == "-":
            continue
        path = Path(output)
        if path.is_dir():
            raise SystemExit(f"cannot write {output}: it is a directory")
        if not path.parent.is_dir():
            raise SystemExit(f"cannot write {output}: no directory {path.parent}")


def _write_obs(args) -> None:
    """Write whatever the enabled instruments collected (even on a failed
    run — partial telemetry is exactly what you want when diagnosing one)."""
    trace_path = getattr(args, "trace_output", None)
    if trace_path is not None:
        from repro.obs.tracer import write_spans_jsonl

        with _open_sink(trace_path) as sink:
            n_spans = write_spans_jsonl(obs.tracer().export(), sink)
        print(f"[repro] {n_spans} span(s) -> {trace_path}", file=sys.stderr)
    metrics_path = getattr(args, "metrics_output", None)
    if metrics_path is not None:
        with _open_sink(metrics_path) as sink:
            json.dump(obs.metrics().snapshot(), sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"[repro] metrics snapshot -> {metrics_path}", file=sys.stderr)


def _config(args) -> CeresConfig:
    """The CeresConfig a command's flags select; a flag the command lacks
    or leaves unset keeps the dataclass default."""
    overrides = {}
    for dest in ("min_predicate_pages", "max_resident_sites"):
        value = getattr(args, dest, None)
        if value is not None:
            if value < 1:
                raise SystemExit(f"--{dest.replace('_', '-')} must be >= 1")
            overrides[dest] = value
    threshold = getattr(args, "threshold", None)
    if threshold is not None:
        # The registry refuses a model whose threshold lies outside [0, 1].
        if not 0 <= threshold <= 1:
            raise SystemExit("--threshold must be within [0, 1]")
        overrides["confidence_threshold"] = threshold
    if getattr(args, "no_template_clustering", False):
        overrides["use_template_clustering"] = False
    return CeresConfig(**overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CERES: distantly supervised extraction from semi-structured websites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="annotate, train, and extract from a site")
    _add_shared(
        extract, "kb", "pages", "threshold", "output",
        "no_template_clustering", "min_predicate_pages", *_OBS_FLAGS,
    )

    annotate = sub.add_parser(
        "annotate", help="run annotation only and print the labels"
    )
    _add_shared(annotate, "kb", "pages", "min_predicate_pages")

    train = sub.add_parser(
        "train", help="annotate + train a site and persist the model to a registry"
    )
    _add_shared(
        train, "kb", "pages", "registry", "site", "threshold",
        "no_template_clustering", "min_predicate_pages", *_OBS_FLAGS,
    )

    serve = sub.add_parser(
        "serve",
        help="extract using a registry artifact — no annotation, no training",
    )
    _add_shared(
        serve, "registry", "pages", "site", "threshold", "output",
        "transfer_fallback", *_OBS_FLAGS,
        threshold=dict(
            default=None,
            help="confidence threshold (default: the trained model's)",
        ),
    )

    serve_http = sub.add_parser(
        "serve-http",
        help="run the resilient HTTP/JSON serving tier in front of a "
        "registry (bounded queue, deadlines, per-site circuit breakers "
        "degrading to the global model, graceful SIGTERM drain)",
    )
    _add_shared(
        serve_http, "registry", "max_resident_sites", "transfer_fallback", *_OBS_FLAGS
    )
    _add_serving_flags(serve_http)

    train_global = sub.add_parser(
        "train-global",
        help="train the cross-site global (transfer) model over a corpus "
        "and persist it to the registry",
    )
    _add_shared(
        train_global, "kb", "corpus", "registry", "min_predicate_pages", *_OBS_FLAGS
    )
    train_global.add_argument(
        "--exclude", action="append", default=[], metavar="SITE",
        help="leave this site out of training (repeatable; e.g. the site "
        "you plan to evaluate zero-shot)",
    )

    corpus = sub.add_parser(
        "run-corpus",
        help="train + extract every site of a multi-site corpus in parallel",
    )
    _add_shared(
        corpus, "kb", "corpus", "registry", "output", "threshold",
        "no_template_clustering", "min_predicate_pages", *_OBS_FLAGS,
    )
    corpus.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: one per core; 1 = run inline)",
    )
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

    fuse = sub.add_parser(
        "fuse",
        help="fuse extraction JSONL (run-corpus output) into scored facts",
    )
    fuse.add_argument(
        "--input", required=True,
        help="extraction JSONL with per-row 'site' labels ('-' for stdin)",
    )
    _add_shared(
        fuse, "output", "kb", "site", *_OBS_FLAGS,
        kb=dict(
            required=False,
            help="seed KB JSON; enables site-reliability weighting",
        ),
        site=dict(
            help="site label for rows that carry no 'site' field "
            "(extract/serve output)",
        ),
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

    stats = sub.add_parser(
        "stats",
        help="report serving cache statistics (optionally after a warm batch)",
    )
    _add_shared(
        stats, "registry", "pages", "site", "max_resident_sites",
        pages=dict(
            required=False,
            help="optional .html directory to serve first, so counters are warm",
        ),
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


def _load_kb(path: str):
    """The seed KB at ``path``; a file that cannot be read or parsed as a
    KB is a usage error naming it."""
    try:
        return load_kb(path)
    except (OSError, ValueError, KeyError) as error:
        raise SystemExit(
            f"cannot load seed KB {path}: {type(error).__name__}: {error}"
        )


def _load_documents(pages_dir: str) -> list:
    from repro.runtime.runner import load_site_documents

    try:
        return load_site_documents(pages_dir)
    except FileNotFoundError as error:
        raise SystemExit(str(error))


def _open_sink(output: str):
    """``output`` opened for writing, as a context manager; '-' is stdout,
    which it leaves open.  A path that cannot be opened is a usage error
    naming it."""
    if output == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(output, "w", encoding="utf-8")
    except OSError as error:
        raise SystemExit(f"cannot write {output}: {error.strerror or error}")


def _service(args):
    """The ExtractionService that a serving command fronts."""
    from repro.runtime import ExtractionService

    return ExtractionService(
        args.registry,
        transfer_fallback=getattr(args, "transfer_fallback", False),
        max_resident_sites=_config(args).max_resident_sites,
    )


def _write_extractions(extractions, documents, output: str) -> None:
    """Write extract/serve's shared JSONL row format to ``output``."""
    from repro.runtime.runner import extraction_row

    with _open_sink(output) as sink:
        for extraction in extractions:
            row = extraction_row(extraction, documents[extraction.page_index].url)
            sink.write(json.dumps(row, ensure_ascii=False) + "\n")


def _cmd_annotate(args) -> int:
    kb = _load_kb(args.kb)
    documents = _load_documents(args.pages)
    result = CeresPipeline(kb, _config(args)).annotate(documents)
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
    kb = _load_kb(args.kb)
    documents = _load_documents(args.pages)
    pipeline = CeresPipeline(kb, _config(args))
    result = pipeline.run(documents, documents)
    obs.metrics().record_cache(pipeline.matcher.cache_stats())
    _write_extractions(result.extractions, documents, args.output)
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

    kb = _load_kb(args.kb)
    documents = _load_documents(args.pages)
    site = args.site or Path(args.pages).name
    config = _config(args)
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
    from repro.runtime import RegistryError

    documents = _load_documents(args.pages)
    site = args.site or Path(args.pages).name
    service = _service(args)
    try:
        extractions = service.extract_pages(site, documents, args.threshold)
    except RegistryError as error:
        raise SystemExit(f"registry error: {error}")
    service.publish_metrics()
    _write_extractions(extractions, documents, args.output)
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
    import gc
    import signal

    from repro.serving import ServingConfig, ServingServer

    fields = dataclasses.fields(ServingConfig)
    try:
        serving_config = ServingConfig(**{f.name: getattr(args, f.name) for f in fields})
    except ValueError as error:
        raise SystemExit(str(error))
    service = _service(args)
    # Metrics power /stats and the shed/breaker counters — always on
    # here, but never clobbering a registry --metrics-output installed.
    if not obs.metrics_enabled():
        obs.enable(tracing=False, metrics=True)
    server = ServingServer(service, serving_config)
    # What is alive now (imported modules, the service) lives as long as
    # the process: freeze it out of the collector's walk, so a full
    # collection visits only what came later.  Site models load on
    # demand and stay collectable, so residency eviction frees them.
    gc.freeze()
    try:
        server.start()
    except OSError as error:
        # A failed bind closes the listening socket and starts no thread.
        raise SystemExit(
            f"cannot serve on {serving_config.host}:{serving_config.port}: "
            f"{error}"
        )

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
    kb = _load_kb(args.kb)
    try:
        model, path = train_global_from_corpus(
            args.corpus,
            kb,
            config=_config(args),
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
    tally = None if args.kb is None else AgreementTally(_load_kb(args.kb))
    try:
        store = FactStore(
            n_shards=args.shards,
            max_resident_facts=args.max_resident_facts,
            spill_dir=args.spill_dir,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    try:
        source = (
            contextlib.nullcontext(sys.stdin) if args.input == "-"
            else open(args.input, encoding="utf-8")
        )
    except OSError as error:
        raise SystemExit(str(error))
    seen_sites: set[str] = set()
    # The with-block guarantees spill files are removed even when a bad
    # row aborts the run before finalize().
    with store, source as lines:
        for line_no, line in enumerate(lines, start=1):
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
    with _open_sink(args.output) as sink:
        n_facts = write_fused_jsonl(facts, sink)
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
    from repro.runtime import RegistryError

    service = _service(args)
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

    config = _config(args)
    if args.resume and args.run_dir is None:
        raise SystemExit("--resume requires --run-dir")
    if args.max_attempts < 1:
        raise SystemExit("--max-attempts must be >= 1")
    if args.retry_backoff < 0:
        raise SystemExit("--retry-backoff must be >= 0 seconds")
    if args.site_timeout is not None and args.site_timeout <= 0:
        raise SystemExit("--site-timeout must be > 0 seconds")
    # Validate the corpus and the KB before _open_sink truncates a prior
    # output file; the KB is only opened, since the site runs parse it.
    try:
        discover_corpus(args.corpus)
        open(args.kb, "rb").close()
    except (OSError, ValueError) as error:
        raise SystemExit(str(error))
    store = None
    if args.fuse_output is not None:
        from repro.fusion import FactStore

        store = FactStore(use_reliability=not args.no_fuse_reliability)
    fused_note = ""
    try:
        with _open_sink(args.output) as sink:
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
        if store is not None:
            from repro.fusion import write_fused_jsonl

            facts = store.finalize(
                min_score=args.fuse_min_score, min_sites=args.fuse_min_sites
            )
            with _open_sink(args.fuse_output) as fused_sink:
                n_facts = write_fused_jsonl(facts, fused_sink)
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
    _check_outputs(args)
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
