"""Serving memory model: bounded caches under sustained warm traffic.

Before this cache layer, every hot-path cache was keyed by
``id(document)`` with unbounded retention: a long-lived
:class:`~repro.runtime.service.ExtractionService` grew resident memory
on every batch, and the per-batch ``clear_page_caches`` workaround paid
a correctness tax (a GC-recycled id could resurface another page's
state).  Now per-page state is bounded and keyed by
``Document.doc_id``, so memory must stay *flat* across arbitrarily many
warm batches.

This benchmark runs consecutive warm ``extract_pages`` batches — each
over freshly parsed documents, exactly the allocation pattern that used
to leak — and checks three things:

* **bounded memory** — resident-set drift between a post-warmup
  baseline and the final batch is < 5%;
* **warm throughput** — pages/sec is reported for comparison against
  ``bench_runtime_throughput.py`` (it must stay within noise: the cache
  layer removed work, it added none);
* **output stability** — every batch's rows are byte-identical to the
  one-shot pipeline's extractions.

Tier-1 runs both gates at 40 pages x 8 batches, in a process of its own
so that the drift is the serving path's, not the test runner's.

Run::

    PYTHONPATH=src python benchmarks/bench_cache_memory.py
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from conftest import report, report_metrics  # noqa: E402

from repro.core.config import CeresConfig  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.core.pipeline import CeresPipeline  # noqa: E402
from repro.datasets import generate_swde, seed_kb_for  # noqa: E402
from repro.dom.parser import parse_html  # noqa: E402
from repro.runtime import (  # noqa: E402
    ExtractionService,
    ModelRegistry,
    SiteModel,
    extraction_row,
)

MAX_DRIFT = 0.05  # resident-set growth tolerated after warmup (5%)


def rss_bytes() -> int | None:
    """Current resident set size, or None when /proc is unavailable."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def run_benchmark(
    n_pages: int,
    n_batches: int,
    tmp_registry: str | Path = "/tmp/repro_bench_cache_registry",
) -> dict:
    dataset = generate_swde("movie", n_sites=2, pages_per_site=n_pages, seed=11)
    kb = seed_kb_for(dataset, 11)
    site = dataset.sites[1]
    config = CeresConfig()

    # One-shot pipeline: the ground truth every warm batch must match.
    documents = [page.document for page in site.pages]
    pipeline = CeresPipeline(kb, config)
    result = pipeline.run(documents, documents)
    expected_rows = json.dumps(
        [
            extraction_row(e, documents[e.page_index].url, site.name)
            for e in result.extractions
        ],
        sort_keys=True,
    )

    registry = ModelRegistry(tmp_registry)
    registry.save(SiteModel.from_result(site.name, config, result))
    service = ExtractionService(registry)
    bench = MetricsRegistry()

    def run_batch() -> tuple[int, float]:
        """One warm batch over freshly parsed documents (the pattern that
        used to leak a registry + match per page per batch)."""
        fresh = [parse_html(page.html, url=page.page_id) for page in site.pages]
        with bench.timer("bench.warm_batch_seconds") as timing:
            extractions = service.extract_pages(site.name, fresh)
        rows = json.dumps(
            [
                extraction_row(e, fresh[e.page_index].url, site.name)
                for e in extractions
            ],
            sort_keys=True,
        )
        if rows != expected_rows:
            raise AssertionError("warm batch diverged from one-shot extract")
        return len(fresh), timing.elapsed

    # Drop the training-time documents before measuring: they are the
    # one-shot pipeline's working set, not the serving path's.
    del documents, result, pipeline
    gc.collect()

    # Warm up until resident memory stabilizes before taking the
    # baseline: the first batches populate the scoring engine's
    # compiled-template caches and grow the allocator's arenas to steady
    # state; "drift" must measure leaks, not that one-time ramp.
    previous = None
    for _ in range(12):  # each probe is several batches; cap the ramp
        for _ in range(5):
            run_batch()
        gc.collect()
        current = rss_bytes()
        if current is None:
            break
        if previous is not None and abs(current - previous) < 0.002 * previous:
            break
        previous = current
    baseline_rss = rss_bytes()

    pages_served = 0
    serve_seconds = 0.0
    for _ in range(n_batches):
        pages, seconds = run_batch()
        pages_served += pages
        serve_seconds += seconds
    gc.collect()
    final_rss = rss_bytes()

    drift = None
    if baseline_rss and final_rss:
        drift = (final_rss - baseline_rss) / baseline_rss

    return {
        "n_pages": n_pages,
        "n_batches": n_batches,
        "baseline_rss_mb": baseline_rss / 2**20 if baseline_rss else None,
        "final_rss_mb": final_rss / 2**20 if final_rss else None,
        "drift": drift,
        "warm_pps": pages_served / serve_seconds if serve_seconds else 0.0,
        "output_stable": True,  # run_batch raises otherwise
        "obs_snapshot": bench.snapshot(),
    }


def format_table(stats: dict) -> str:
    if stats["drift"] is None:
        drift_line = "  rss drift              (unavailable on this platform)"
    else:
        verdict = "FLAT" if abs(stats["drift"]) < MAX_DRIFT else "GROWING"
        drift_line = (
            f"  rss drift              {stats['drift'] * 100:8.2f}%   "
            f"(|drift| < {MAX_DRIFT * 100:.0f}%: {verdict})"
        )
    lines = [
        "Cache memory: warm serving batches over fresh documents",
        f"  pages per batch        {stats['n_pages']}",
        f"  batches                {stats['n_batches']}",
        f"  baseline rss           {stats['baseline_rss_mb']:8.1f} MB"
        if stats["baseline_rss_mb"] is not None
        else "  baseline rss           (unavailable)",
        f"  final rss              {stats['final_rss_mb']:8.1f} MB"
        if stats["final_rss_mb"] is not None
        else "  final rss              (unavailable)",
        drift_line,
        f"  warm throughput        {stats['warm_pps']:8.1f} pages/s",
        "  output vs one-shot     byte-identical",
    ]
    return "\n".join(lines)


def correctness_failures(stats: dict) -> list[str]:
    """The gate every run checks: resident memory stays flat."""
    if stats["drift"] is not None and abs(stats["drift"]) >= MAX_DRIFT:
        return ["resident memory grew across warm batches"]
    return []


def main() -> int:
    stats = run_benchmark(n_pages=200, n_batches=50)
    report_metrics("cache_memory", stats.pop("obs_snapshot"))
    report("cache_memory", format_table(stats))
    failures = correctness_failures(stats)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
