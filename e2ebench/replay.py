"""In-process replays of a run's inputs through the program's public API.

The serving replay is the output check: every request the server
answered is re-extracted here with ``ExtractionService`` from the same
bytes, and the rows must match.  Run under :func:`traced`, the same
replays put a ``repro.obs`` span around each call into a layer — the
spans record name, start, duration and parent, carry a ``site`` or
``request`` id, stay in memory and are exported at the end — so each
layer's *self* time (its spans minus the time their child spans cover)
can be read off for layers the program does not span itself.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

from repro import obs
from repro.obs import MetricsRegistry
from repro.clustering.templates import cluster_pages
from repro.core.config import CeresConfig
from repro.core.extraction.trainer import CeresTrainer
from repro.core.pipeline import CeresPipeline
from repro.dom.parser import parse_html
from repro.fusion import FactStore
from repro.fusion.reliability import extraction_agreement
from repro.kb.io import load_kb
from repro.runtime import ExtractionService, ModelRegistry
from repro.runtime.runner import extraction_row
from repro.runtime.serialize import SiteModel

#: span name -> layer whose self time it counts toward.  Program spans
#: nested inside a benchmark span (``stage.annotate`` inside
#: ``bench.annotate``) count toward the same layer, so a layer's time is
#: the same whichever of the two the program happens to open.
SPAN_LAYERS = {
    "bench.dom.parse": "dom.parse_s",
    "bench.kb.load": "kb.load_s",
    "bench.clustering": "clustering.cluster_s",
    "bench.annotate": "annotation.annotate_s",
    "stage.annotate": "annotation.annotate_s",
    "bench.train": "train.train_s",
    "stage.train": "train.train_s",
    "bench.registry.save": "registry.save_s",
    "bench.registry.load": "registry.load_s",
    "bench.service.extract": "service.extract_s",
    "service.extract_pages": "service.extract_s",
    "bench.transfer.extract": "transfer.extract_s",
    "service.transfer_extract": "transfer.extract_s",
    "bench.serialize": "serving.serialize_s",
    "bench.fusion.ingest": "fusion.ingest_s",
    "bench.fusion.finalize": "fusion.finalize_s",
    "stage.fuse": "fusion.finalize_s",
}


@contextlib.contextmanager
def traced(enabled: bool):
    """Fresh in-memory instruments for one replay (no-ops when off)."""
    if not enabled:
        yield None, None
        return
    with obs.scoped(tracing=True, metrics=True) as instruments:
        yield instruments


def self_times(spans: list) -> dict:
    """Layer -> summed self time of the spans :data:`SPAN_LAYERS` maps.

    A span's self time is its duration minus the union of its children's
    intervals (clipped to the span), so nested program spans are never
    counted twice.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    totals: dict = {}
    for span in spans:
        layer = SPAN_LAYERS.get(span["name"])
        if layer is None:
            continue
        start, end = span["start"], span["start"] + span["duration"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["span_id"], []), key=lambda c: c["start"]):
            child_start = max(cursor, child["start"])
            child_end = min(end, child["start"] + child["duration"])
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[layer] = totals.get(layer, 0.0) + max(0.0, span["duration"] - covered)
    return totals


class _SpannedRegistry(ModelRegistry):
    """A registry whose loads are spanned and counted per site — the
    service calls ``load`` itself whenever a site (re)enters residency."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.loads: dict = {}

    def load(self, site: str):
        with obs.span("bench.registry.load", site=site):
            model = super().load(site)
        self.loads[site] = self.loads.get(site, 0) + 1
        return model


class _CountingTrainer(CeresTrainer):
    """Counts the examples the pipeline trains on."""

    examples = 0

    def train(self, examples, documents):
        self.examples += len(examples)
        return super().train(examples, documents)


def _hit_rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _rows(extractions, documents, site: str) -> list:
    return [
        extraction_row(extraction, documents[extraction.page_index].url, site)
        for extraction in extractions
    ]


def replay_requests(
    registry_root: Path, warmups: list, requests: list, trained_sites, trace: bool
) -> dict:
    """Re-extract ``requests`` (in the order the server received them,
    after the same per-site warm-ups) and return the expected rows per
    request, plus layer numbers when ``trace`` is on."""
    config = CeresConfig()
    registry = _SpannedRegistry(registry_root)
    service = ExtractionService(registry, transfer_fallback=True)
    pages = page_bytes = 0
    latest_pool_stats: dict = {}
    #: per request, seconds of parsing plus extraction (the work a
    #: server does for it outside admission and queueing).
    work_s: list = []
    clock = MetricsRegistry()

    def extract(index, request):
        html = [page.html for page in request.pages]
        with clock.timer("replay.work") as parse_timing, obs.span(
            "bench.dom.parse", request=index
        ):
            documents = [
                parse_html(
                    text, url=page.url,
                    max_depth=config.max_parse_depth,
                    max_nodes=config.max_parse_nodes,
                )
                for text, page in zip(html, request.pages)
            ]
        with clock.timer("replay.work") as extract_timing:
            if request.site in trained_sites:
                with obs.span("bench.service.extract", request=index, site=request.site):
                    extractions = service.extract_pages(request.site, documents)
            else:
                with obs.span("bench.transfer.extract", request=index, site=request.site):
                    extractions = service.extract_pages_transfer(request.site, documents)
        work_s.append(parse_timing.elapsed + extract_timing.elapsed)
        with obs.span("bench.serialize", request=index):
            rows = _rows(extractions, documents, request.site)
            for row in rows:
                json.dumps(row, ensure_ascii=False)
        stats = service.cache_stats()["per_site"].get(request.site)
        if stats is not None:
            epoch = registry.loads.get(request.site, 0)
            latest_pool_stats[(request.site, epoch)] = stats
        return rows

    for index, request in enumerate(warmups):
        extract(-1 - index, request)
    del work_s[:]
    with traced(trace) as (tracer, metrics):
        loads_before = dict(registry.loads)
        pool_before = dict(latest_pool_stats)
        expected = []
        for index, request in enumerate(requests):
            expected.append(extract(index, request))
            pages += len(request.pages)
            page_bytes += sum(len(p.html.encode("utf-8")) for p in request.pages)
        result = {"rows": expected, "work_s": work_s}
        if trace:
            pools = _pool_totals(latest_pool_stats, pool_before)
            result["layers"] = _layer_numbers(tracer.export(), metrics.snapshot())
            result["layers"].update(
                {
                    "dom.pages": pages,
                    "dom.bytes": page_bytes,
                    "registry.replay_loads": sum(registry.loads.values())
                    - sum(loads_before.values()),
                    "scoring.feature_registry_hit_rate": _hit_rate(
                        *pools["feature_registry"]
                    ),
                    "clustering.assign_hit_rate": _hit_rate(
                        *pools["cluster_assignment"]
                    ),
                }
            )
    return result


def _pool_totals(latest: dict, before: dict) -> dict:
    """Hits/misses per pool cache, summed over every residency epoch of
    every site, minus what the warm-ups had already counted."""
    totals = {"feature_registry": [0, 0], "cluster_assignment": [0, 0]}
    for key, per_cache in latest.items():
        for name, counts in per_cache.items():
            if name not in totals:
                continue
            earlier = before.get(key, {}).get(name, {"hits": 0, "misses": 0})
            totals[name][0] += counts["hits"] - earlier["hits"]
            totals[name][1] += counts["misses"] - earlier["misses"]
    return totals


def _layer_numbers(spans: list, snapshot: dict) -> dict:
    numbers = dict.fromkeys(set(SPAN_LAYERS.values()), 0.0)
    numbers.update(self_times(spans))
    histograms = snapshot.get("histograms", {})
    counters = snapshot.get("counters", {})
    numbers["scoring.csr_build_s"] = histograms.get(
        "scoring.csr_build_seconds", {}
    ).get("sum", 0.0)
    numbers["scoring.predict_s"] = histograms.get(
        "scoring.predict_seconds", {}
    ).get("sum", 0.0)
    numbers["scoring.nodes"] = counters.get("scoring.nodes", 0)
    numbers["scoring.batches"] = counters.get("scoring.batches", 0)
    return numbers


def replay_corpus(inputs, registry_root: Path) -> dict:
    """The corpus job site by site, one call per layer, each spanned."""
    config = CeresConfig()
    registry = _SpannedRegistry(registry_root)
    store = FactStore(use_reliability=True)
    counts = dict.fromkeys(
        (
            "kb.loads", "dom.pages", "dom.bytes", "clustering.clusters",
            "annotation.annotations", "annotated_pages", "train.examples",
            "train.models",
        ),
        0,
    )
    match = [0, 0]
    pools = {"feature_registry": [0, 0], "cluster_assignment": [0, 0]}
    with traced(True) as (tracer, metrics):
        for site_dir in sorted(p for p in inputs.corpus_dir.iterdir() if p.is_dir()):
            site = site_dir.name
            files = sorted(site_dir.glob("*.html"))
            texts = [path.read_text(encoding="utf-8") for path in files]
            with obs.span("bench.kb.load", site=site):
                kb = load_kb(inputs.kb_path)
            counts["kb.loads"] += 1
            with obs.span("bench.dom.parse", site=site):
                documents = [
                    parse_html(text, url=path.name) for text, path in zip(texts, files)
                ]
            counts["dom.pages"] += len(documents)
            counts["dom.bytes"] += sum(len(t.encode("utf-8")) for t in texts)
            with obs.span("bench.clustering", site=site):
                clusters = cluster_pages(documents, config.template_similarity_threshold)
            counts["clustering.clusters"] += len(clusters)
            pipeline = CeresPipeline(kb, config)
            pipeline.trainer = _CountingTrainer(config)
            with obs.span("bench.annotate", site=site):
                result = pipeline.annotate(documents)
            counts["annotation.annotations"] += result.annotation_count
            counts["annotated_pages"] += len(result.annotated_pages)
            with obs.span("bench.train", site=site):
                pipeline.train(documents, result)
            counts["train.examples"] += pipeline.trainer.examples
            site_model = SiteModel.from_result(site, config, result)
            counts["train.models"] += len(site_model.clusters)
            with obs.span("bench.registry.save", site=site):
                registry.save(site_model)
            service = ExtractionService(registry)
            with obs.span("bench.service.extract", site=site):
                extractions = service.extract_pages(
                    site, documents, config.confidence_threshold
                )
            with obs.span("bench.serialize", site=site):
                rows = _rows(extractions, documents, site)
                for row in rows:
                    json.dumps(row, ensure_ascii=False)
            checked, agreed = extraction_agreement(kb, extractions)
            with obs.span("bench.fusion.ingest", site=site):
                store.ingest_rows(rows)
                store.observe_agreement(site, checked, agreed)
            matcher = pipeline.matcher.cache_stats()
            match[0] += matcher.hits
            match[1] += matcher.misses
            for name, stats in service.cache_stats()["per_site"].get(site, {}).items():
                if name in pools:
                    pools[name][0] += stats["hits"]
                    pools[name][1] += stats["misses"]
        with obs.span("bench.fusion.finalize"):
            facts = store.finalize()
        layers = _layer_numbers(tracer.export(), metrics.snapshot())
    store_stats = store.stats()
    annotated_pages = counts.pop("annotated_pages")
    layers.update(counts)
    layers.update(
        {
            "annotation.annotated_share": annotated_pages / counts["dom.pages"],
            "kb.match_hit_rate": _hit_rate(*match),
            "scoring.feature_registry_hit_rate": _hit_rate(*pools["feature_registry"]),
            "clustering.assign_hit_rate": _hit_rate(*pools["cluster_assignment"]),
            "registry.replay_loads": sum(registry.loads.values()),
            "fusion.rows": store_stats["rows"],
            "fusion.facts": len(facts),
        }
    )
    return layers
