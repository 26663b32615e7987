"""Scoring hot path: batched scoring vs. the per-node chain.

PR 1/PR 2 removed the architectural waste from warm serving (per-page
extractor rebuilds, unbounded caches); the remaining cost was the scoring
chain itself — per-node f-string feature dicts, per-name vocabulary
hashing, and one small matmul per page.  Batched scoring
(``CeresModel.score_pages``) interns each template position's feature
row once (``FeatureNameBatcher``), resolves each row against the
vocabulary once per model, and scores a whole batch with one CSR matrix
and one matmul per cluster model.

This benchmark serves the same 200-page site warm through both paths and
checks:

* **equivalence** — thresholded extraction rows are byte-identical
  between the batched engine, the per-node chain of
  ``tests/reference_chain.py`` (feature dicts → vectorizer →
  ``predict_proba`` → the extractor's candidate assembly, the chain the
  tests compare against), and the one-shot pipeline;
* **throughput** — warm batched pages/s, with speedups vs. the
  in-process per-node chain and vs. the PR 2 head's warm path
  (``PR2_BASELINE_PPS``); the run fails unless the batched engine
  clears 3x that baseline.

Tier-1 runs the equivalence gate at 40 pages x 5 batches.

Run::

    PYTHONPATH=src python benchmarks/bench_scoring_hotpath.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
# The per-node reference chain the tests use.
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from conftest import report, report_metrics  # noqa: E402

from reference_chain import reference_page_candidates  # noqa: E402
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

#: Warm serving throughput of the PR 2 head (9910d8c), the floor this
#: engine is measured against: the median of 9 runs of that commit's
#: ``bench_cache_memory.py`` at 40 pages x 8 batches (the size its
#: ``benchmarks/out/cache_memory.txt`` records), 788-1,164 pages/s, on a
#: 2-core Intel Xeon host.
PR2_BASELINE_PPS = 975.7
#: Required speedup over the PR 2 baseline.
REQUIRED_SPEEDUP = 3.0


def rows_for(extractions, documents, site_name) -> str:
    return json.dumps(
        [
            extraction_row(e, documents[e.page_index].url, site_name)
            for e in extractions
        ],
        sort_keys=True,
    )


def run_benchmark(
    n_pages: int,
    n_batches: int,
    tmp_registry: str | Path = "/tmp/repro_bench_scoring_registry",
) -> dict:
    dataset = generate_swde("movie", n_sites=2, pages_per_site=n_pages, seed=11)
    kb = seed_kb_for(dataset, 11)
    site = dataset.sites[1]
    config = CeresConfig()
    threshold = config.confidence_threshold

    # One-shot pipeline: the trained model and the ground-truth rows.
    documents = [page.document for page in site.pages]
    pipeline = CeresPipeline(kb, config)
    result = pipeline.run(documents, documents)
    expected_rows = rows_for(result.extractions, documents, site.name)

    registry = ModelRegistry(tmp_registry)
    registry.save(SiteModel.from_result(site.name, config, result))
    service = ExtractionService(registry)
    pool = service.pool(site.name)
    bench = MetricsRegistry()

    def fresh_documents():
        return [parse_html(page.html, url=page.page_id) for page in site.pages]

    def batched_batch() -> tuple[int, float]:
        fresh = fresh_documents()
        with bench.timer("bench.batched_batch_seconds") as timing:
            extractions = service.extract_pages(site.name, fresh)
        if rows_for(extractions, fresh, site.name) != expected_rows:
            raise AssertionError("batched engine diverged from one-shot extract")
        return len(fresh), timing.elapsed

    def per_node_batch() -> tuple[int, float]:
        """The per-page, per-node warm path."""
        fresh = fresh_documents()
        with bench.timer("bench.per_node_batch_seconds") as timing:
            extractions = []
            for page_index, document in enumerate(fresh):
                extractor = pool.extractor_for(document)
                if extractor is None:
                    continue
                candidates = reference_page_candidates(
                    extractor, document, page_index
                )
                extractions.extend(candidates.extractions(threshold))
        if rows_for(extractions, fresh, site.name) != expected_rows:
            raise AssertionError("per-node chain diverged from one-shot extract")
        return len(fresh), timing.elapsed

    def measure(batch, warmup: int = 2) -> float:
        """Best-of-N batch throughput (timeit-style: the minimum time is
        the measurement least distorted by host noise; every batch still
        runs, and every batch's output is equivalence-checked)."""
        for _ in range(warmup):
            batch()
        best = float("inf")
        pages = 0
        for _ in range(n_batches):
            n, seconds = batch()
            pages = n
            if seconds < best:
                best = seconds
        return pages / best if best > 0 else 0.0

    per_node_pps = measure(per_node_batch)
    batched_pps = measure(batched_batch)
    return {
        "n_pages": n_pages,
        "n_batches": n_batches,
        "per_node_pps": per_node_pps,
        "batched_pps": batched_pps,
        "speedup_vs_per_node": batched_pps / per_node_pps if per_node_pps else 0.0,
        "speedup_vs_pr2": batched_pps / PR2_BASELINE_PPS,
        "equivalent": True,  # the batch closures raise otherwise
        "obs_snapshot": bench.snapshot(),
    }


def format_table(stats: dict) -> str:
    return "\n".join(
        [
            "Scoring hot path: batched engine vs per-node chain",
            f"  pages per batch        {stats['n_pages']}",
            f"  batches                {stats['n_batches']}",
            f"  per-node warm          {stats['per_node_pps']:10.1f} pages/s",
            f"  batched warm           {stats['batched_pps']:10.1f} pages/s",
            f"  speedup vs per-node    {stats['speedup_vs_per_node']:10.2f}x",
            f"  speedup vs PR2 base    {stats['speedup_vs_pr2']:10.2f}x"
            f"   (baseline {PR2_BASELINE_PPS:.0f} pages/s, gate >= "
            f"{REQUIRED_SPEEDUP:.0f}x)",
            "  extractions            byte-identical "
            "(batched == per-node chain == one-shot)",
        ]
    )


def main() -> int:
    stats = run_benchmark(n_pages=200, n_batches=20)
    report_metrics("scoring_hotpath", stats.pop("obs_snapshot"))
    report("scoring_hotpath", format_table(stats))
    if stats["speedup_vs_pr2"] < REQUIRED_SPEEDUP:
        print(
            f"ERROR: batched engine at {stats['batched_pps']:.0f} pages/s is "
            f"below {REQUIRED_SPEEDUP:.0f}x the PR 2 baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
