"""Zero-shot transfer: unseen-site serving latency and precision@yield.

Three questions, one synthetic SWDE vertical:

1. **LOSO precision** — leave-one-site-out over every site: train the
   global (``xfer:``-only) model on N-1 sites, extract zero-shot from
   the held-out one, score node-level against generated truth
   (:mod:`repro.evaluation.transfer_eval`).
2. **Precision @ yield vs the per-site model** — on the last held-out
   site, compare the zero-shot global model against a per-site model
   trained *on that site's own pages* (the ceiling transfer cannot
   expect to beat): extraction counts and node-level precision side by
   side.
3. **Unseen-site serve latency** — an :class:`ExtractionService` with
   ``transfer_fallback=True`` over a registry that has *no* artifact for
   the site: pages/sec through the global-model fast path, timed via
   ``MetricsRegistry.timer`` (never a bare perf-counter).

The gates check correctness (zero-shot yield > 0, every extraction
tagged ``model="transfer"``, LOSO precision above a floor); latency
numbers are informational.  Tier-1 runs them on 4 sites x 12 pages.

Run::

    PYTHONPATH=src python benchmarks/bench_transfer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from conftest import report, report_metrics  # noqa: E402

from repro.core.config import CeresConfig  # noqa: E402
from repro.core.pipeline import CeresPipeline  # noqa: E402
from repro.datasets import generate_swde, seed_kb_for  # noqa: E402
from repro.evaluation.scoring import extraction_precision  # noqa: E402
from repro.evaluation.transfer_eval import (  # noqa: E402
    format_loso_table,
    loso_folds,
)
from repro.obs import MetricsRegistry  # noqa: E402
from repro.runtime import ExtractionService, ModelRegistry, SiteModel  # noqa: E402
from repro.transfer import collect_site_examples, train_global  # noqa: E402

#: (n_sites, pages_per_site) of the vertical.
SHAPE = (6, 24)
SEED = 7
SERVE_ROUNDS = 3
#: Zero-shot micro precision floor: transfer must stay a high-precision
#: extractor even with no page from the served site seen in training.
MIN_PRECISION = 0.75


def run_benchmark(
    n_sites: int, pages_per_site: int, registry_root: str | Path
) -> dict:
    dataset = generate_swde(
        "movie", n_sites=n_sites, pages_per_site=pages_per_site, seed=SEED
    )
    kb = seed_kb_for(dataset, SEED)
    config = CeresConfig()
    bench = MetricsRegistry()

    # 1. Leave-one-site-out over the full vertical.
    with bench.timer("bench.loso_seconds"):
        folds = loso_folds(dataset, kb, config)
    loso_correct = sum(fold.correct for fold in folds)
    loso_total = sum(fold.total for fold in folds)

    # 2. Precision @ yield on the last site: zero-shot global model
    # (trained on the other sites) vs the site's own per-site model.
    held_out = dataset.sites[-1]
    held_out_pages = list(held_out.pages)
    held_out_documents = held_out.documents()
    pools = [
        collect_site_examples(site.name, kb, site.documents(), config)
        for site in dataset.sites[:-1]
    ]
    global_model = train_global(pools, kb.ontology.names(), config)
    transfer_extractions = global_model.extract(held_out_documents)
    transfer_correct, transfer_total = extraction_precision(
        transfer_extractions, held_out_pages
    )

    pipeline = CeresPipeline(kb, config)
    site_result = pipeline.run(held_out_documents, held_out_documents)
    site_correct, site_total = extraction_precision(
        site_result.extractions, held_out_pages
    )

    # 3. Unseen-site serve latency through the transfer fallback: the
    # registry holds artifacts for the training sites and the global
    # model, but nothing for the held-out site.
    registry = ModelRegistry(registry_root)
    registry.save_global(global_model)
    service = ExtractionService(registry, transfer_fallback=True)
    served = service.extract_pages(held_out.name, held_out_documents[:2])  # warm
    assert all(e.model == "transfer" for e in served)

    def serve_round() -> float:
        with bench.timer("bench.transfer_serve_seconds") as timing:
            service.extract_pages(held_out.name, held_out_documents)
        return timing.elapsed

    serve_seconds = min(serve_round() for _ in range(SERVE_ROUNDS))

    return {
        "n_sites": n_sites,
        "pages_per_site": pages_per_site,
        "folds": folds,
        "loso_correct": loso_correct,
        "loso_total": loso_total,
        "held_out_site": held_out.name,
        "transfer_correct": transfer_correct,
        "transfer_total": transfer_total,
        "site_correct": site_correct,
        "site_total": site_total,
        "all_tagged_transfer": all(
            e.model == "transfer" for e in transfer_extractions
        )
        and bool(transfer_extractions),
        "serve_seconds": serve_seconds,
        "serve_pps": len(held_out_documents) / serve_seconds,
        "obs_snapshot": bench.snapshot(),
    }


def _ratio(correct: int, total: int) -> float:
    return correct / total if total else 0.0


def format_summary(stats: dict) -> str:
    transfer_precision = _ratio(stats["transfer_correct"], stats["transfer_total"])
    site_precision = _ratio(stats["site_correct"], stats["site_total"])
    loso_precision = _ratio(stats["loso_correct"], stats["loso_total"])
    met = "MET" if loso_precision >= MIN_PRECISION else "MISSED"
    lines = [
        format_loso_table(stats["folds"]),
        "",
        f"Held-out site {stats['held_out_site']}: zero-shot vs per-site",
        f"  zero-shot (global model)   {stats['transfer_total']:4d} extraction(s)"
        f"   precision {transfer_precision:.3f}",
        f"  per-site (own training)    {stats['site_total']:4d} extraction(s)"
        f"   precision {site_precision:.3f}",
        f"  yield ratio                "
        f"{_ratio(stats['transfer_total'], stats['site_total']):.2f}x of per-site",
        "",
        f"Unseen-site serving (transfer fallback, {stats['pages_per_site']} pages)",
        f"  best of {SERVE_ROUNDS} rounds          {stats['serve_seconds']:.3f}s"
        f"   {stats['serve_pps']:.1f} pages/s",
        "",
        f"LOSO micro precision       {loso_precision:.3f}"
        f"   (gate >= {MIN_PRECISION:.2f}: {met})",
    ]
    return "\n".join(lines)


def correctness_failures(stats: dict) -> list[str]:
    """The gates every run checks."""
    failures = []
    if not stats["all_tagged_transfer"]:
        failures.append(
            "zero-shot extraction yield is empty or rows are not "
            "tagged model='transfer'"
        )
    loso_precision = _ratio(stats["loso_correct"], stats["loso_total"])
    if loso_precision < MIN_PRECISION:
        failures.append(
            f"LOSO micro precision {loso_precision:.3f} "
            f"below gate {MIN_PRECISION:.2f}"
        )
    return failures


def main() -> int:
    stats = run_benchmark(*SHAPE, "/tmp/repro_bench_transfer_registry")
    snapshot = stats.pop("obs_snapshot")
    report("transfer", format_summary(stats))
    report_metrics("transfer", snapshot)
    failures = correctness_failures(stats)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
