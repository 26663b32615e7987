"""Annotation & training hot path: cold annotate+train throughput.

The cold path — template clustering, topic identification, relation
annotation (Algorithms 1-2), and L-BFGS training — runs a vectorized
engine:

* interned-XPath batched Levenshtein matrices + version-stamped
  agglomerative clustering (``repro.text.distance``, ``repro.ml.cluster``);
* per-subject ``SurfaceIndex`` replacing per-triple ``surface_variants``
  regeneration (``repro.kb.surfaces``);
* bitset local evidence with prefix/suffix blocked-set unions
  (``RelationAnnotator.best_local_mentions``);
* batched feature-name rows + preallocated-CSR vectorization + the
  deduplicated direct-``setulb`` L-BFGS solve
  (``FeatureNameBatcher``, ``FeatureVectorizer.transform_name_rows``,
  ``SoftmaxRegression.fit``).

Two fixtures, from ``tests/annotation_goldens.py``:

* **Scaled SWDE fixture** (one SWDE movie site, scaled up): cold
  annotate+train throughput; full mode must clear ``2x`` the 288
  pages/s cold-path baseline.  Every run checks the fit identity: each cluster model
  equals, bit for bit, the per-node reference chain of
  ``tests/reference_chain.py`` (feature dicts, dict vectorization, the
  textbook objective under ``scipy.optimize.minimize``).
* **All-genres hazard fixture** (Section 5.5.1's over-representation
  hazard with per-page template jitter, hundreds of distinct mention
  XPaths): annotation-stage throughput, where the paper's bottleneck
  lives.

``--quick`` runs both at the size ``tests/golden/annotation_digests.json``
pins and checks their annotations (and the scaled SWDE fixture's
model name spaces) against those digests.

Run::

    PYTHONPATH=src python benchmarks/bench_annotation_hotpath.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
# The goldens, fixtures and reference chain the tests use.
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from conftest import report, report_metrics  # noqa: E402

from annotation_goldens import (  # noqa: E402
    HAZARD_QUICK_PAGES,
    SCALED_SWDE_QUICK_PAGES,
    all_genres_site,
    annotated_digest,
    goldens,
    result_digest,
    scaled_swde_fixture,
)
from reference_chain import model_fingerprint, reference_train  # noqa: E402
from repro.core.annotation.relation import RelationAnnotator  # noqa: E402
from repro.obs import MetricsRegistry, merge_snapshots  # noqa: E402
from repro.core.annotation.topic import TopicIdentifier  # noqa: E402
from repro.core.config import CeresConfig  # noqa: E402
from repro.core.pipeline import CeresPipeline  # noqa: E402

#: Cold annotate+train+extract throughput at the PR 4 head
#: (benchmarks/out/runtime_throughput.txt).
BASELINE_PPS = 288.0
#: Required end-to-end speedup over the PR 4 baseline (full mode).
REQUIRED_COLD_SPEEDUP = 2.0


def check_golden(fixture_id: str, digest: str) -> None:
    if digest != goldens()[fixture_id]:
        raise AssertionError(
            f"{fixture_id}: annotations differ from tests/golden/annotation_digests.json"
        )


# -- part 1: cold annotate+train on the scaled SWDE fixture ----------------


def bench_cold_pipeline(n_pages: int, n_batches: int) -> dict:
    kb, documents, config = scaled_swde_fixture(n_pages)
    bench = MetricsRegistry()

    def cold():
        pipeline = CeresPipeline(kb, config)
        result = pipeline.annotate(documents)
        pipeline.train(documents, result)
        return pipeline, result

    # The first run warms the process-wide memo caches (normalize,
    # surface variants) and is the one checked.
    pipeline, result = cold()
    if n_pages == SCALED_SWDE_QUICK_PAGES:
        check_golden("scaled-swde-quick", result_digest(result))
    for cluster, examples in pipeline.cluster_examples(result):
        reference = reference_train(examples, documents, config)
        if model_fingerprint(cluster.model) != model_fingerprint(reference):
            raise AssertionError("a cluster model differs from the reference chain's")
    pipeline.extract(result, documents)

    best = float("inf")
    for _ in range(n_batches):
        with bench.timer("bench.cold_fast_seconds") as timing:
            cold()
        best = min(best, timing.elapsed)
    fast_pps = n_pages / best
    return {
        "n_pages": n_pages,
        "fast_pps": fast_pps,
        "speedup_vs_baseline": fast_pps / BASELINE_PPS,
        "extractions": len(result.extractions),
        "obs_snapshot": bench.snapshot(),
    }


# -- part 2: annotation stage on the hazard fixture -------------------------


def bench_annotation_stage(n_pages: int, n_batches: int) -> dict:
    kb, pages = all_genres_site(n_pages)
    config = CeresConfig(page_match_cache_size=max(1024, 2 * n_pages))
    identifier = TopicIdentifier(kb, config)
    topics = identifier.identify(pages)
    bench = MetricsRegistry()
    # Warm the shared match cache: the stage under test is annotation
    # logic (mention gathering, local evidence, clustering), not matching.
    for page in pages:
        identifier.matcher.match(page)

    best = float("inf")
    for _ in range(n_batches):
        annotator = RelationAnnotator(kb, config, identifier.matcher)
        with bench.timer("bench.annotate_fast_seconds") as timing:
            annotated = annotator.annotate(pages, topics)
        best = min(best, timing.elapsed)
    if n_pages == HAZARD_QUICK_PAGES:
        check_golden("hazard-quick", annotated_digest(annotated))
    return {
        "n_pages": n_pages,
        "n_annotations": sum(len(page.annotations) for page in annotated),
        "fast_pps": n_pages / best,
        "obs_snapshot": bench.snapshot(),
    }


def format_table(cold: dict, stage: dict, quick: bool) -> str:
    golden = "match the goldens" if quick else "not checked at this size"
    return "\n".join(
        [
            "Annotation & training hot path: cold annotate+train",
            "  [cold annotate+train, scaled SWDE fixture]",
            f"    pages                  {cold['n_pages']}",
            f"    vectorized cold        {cold['fast_pps']:10.1f} pages/s",
            f"    speedup vs baseline    {cold['speedup_vs_baseline']:10.2f}x"
            f"   (baseline {BASELINE_PPS:.0f} pages/s, gate >= "
            f"{REQUIRED_COLD_SPEEDUP:.0f}x)",
            f"    annotations/names      {golden}",
            "    models                 bit-identical to the reference chain",
            f"    extractions            {cold['extractions']} rows",
            "  [annotation stage, all-genres hazard fixture]",
            f"    pages                  {stage['n_pages']}"
            f"   ({stage['n_annotations']} annotations, {golden})",
            f"    vectorized annotate    {stage['fast_pps']:10.1f} pages/s",
        ]
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small fixtures, single batch (CI smoke; equivalence gates only)",
    )
    args = parser.parse_args()
    if args.quick:
        cold = bench_cold_pipeline(n_pages=SCALED_SWDE_QUICK_PAGES, n_batches=1)
        stage = bench_annotation_stage(n_pages=HAZARD_QUICK_PAGES, n_batches=1)
    else:
        cold = bench_cold_pipeline(n_pages=600, n_batches=4)
        stage = bench_annotation_stage(n_pages=150, n_batches=4)
    report_metrics(
        "annotation_hotpath",
        merge_snapshots([cold.pop("obs_snapshot"), stage.pop("obs_snapshot")]),
        quick=args.quick,
    )
    report("annotation_hotpath", format_table(cold, stage, args.quick), quick=args.quick)
    if not args.quick and cold["speedup_vs_baseline"] < REQUIRED_COLD_SPEEDUP:
        print(
            f"ERROR: vectorized cold path at {cold['fast_pps']:.0f} pages/s "
            f"is below {REQUIRED_COLD_SPEEDUP:.0f}x the cold-path baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
