"""Annotation & training hot path: vectorized engine vs. pure-Python legacy.

PR 3 made warm serving fast; the cold path — template clustering, topic
identification, relation annotation (Algorithms 1-2), and L-BFGS training
— still ran one Python loop at a time (~288 pages/s at the PR 4 head, per
``benchmarks/out/runtime_throughput.txt``).  This PR rebuilds it as a
vectorized engine, keeping the original code as the equivalence oracle:

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

Two fixtures, two gates (full mode; ``--quick`` gates equivalence only):

* **PR 4 fixture** (SWDE movie site, scaled up): cold annotate+train must
  clear ``2x`` the 288 pages/s PR 4 baseline, byte-identical annotations,
  model coefficients, and extractions.  The issue's stretch target was
  3x; the measured ceiling is lower because ~70% of this fixture's cold
  time is the L-BFGS data term (ordered backward matvec + ``setulb``
  trajectory), which byte-identical coefficients pin to the exact legacy
  operation sequence — the table reports how far the rest moved.
* **All-genres hazard fixture** (Section 5.5.1's over-representation
  hazard with per-page template jitter, hundreds of distinct mention
  XPaths): the annotation stage itself — where the paper's bottleneck
  lives and nothing is optimizer-locked — must clear ``3x`` legacy.

Run::

    PYTHONPATH=src python benchmarks/bench_annotation_hotpath.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from conftest import report, report_metrics  # noqa: E402

from repro.core.annotation.relation import RelationAnnotator  # noqa: E402
from repro.obs import MetricsRegistry, merge_snapshots  # noqa: E402
from repro.core.annotation.topic import TopicIdentifier  # noqa: E402
from repro.core.config import CeresConfig  # noqa: E402
from repro.core.pipeline import CeresPipeline  # noqa: E402
from repro.datasets import generate_swde, seed_kb_for  # noqa: E402
from repro.dom.parser import parse_html  # noqa: E402
from repro.kb.ontology import Ontology, Predicate  # noqa: E402
from repro.kb.store import KnowledgeBase  # noqa: E402
from repro.kb.triple import Entity, Value  # noqa: E402

#: Cold annotate+train+extract throughput at the PR 4 head
#: (benchmarks/out/runtime_throughput.txt).
PR4_BASELINE_PPS = 288.0
#: Required end-to-end speedup over the PR 4 baseline (full mode).
REQUIRED_COLD_SPEEDUP = 2.0
#: Required annotation-stage speedup on the hazard fixture (full mode).
REQUIRED_ANNOTATION_SPEEDUP = 3.0


# -- fixtures ---------------------------------------------------------------


def all_genres_site(
    n_pages: int, seed: int = 7, max_fill: int = 40, max_depth: int = 5
) -> tuple[KnowledgeBase, list]:
    """The paper's all-genres hazard (Section 5.5.1) with template jitter.

    Every page lists the full (small) genre vocabulary in a browse list
    whose item positions, filler counts, and nesting depths jitter per
    page, alongside the film's real genres in the info section.  Every
    genre is therefore duplicated *and* over-represented, so Algorithm 2
    must cluster hundreds of distinct mention XPaths per predicate —
    the pairwise-Levenshtein wall the batched engine removes.
    """
    rng = random.Random(seed)
    ontology = Ontology(
        [
            Predicate("directed_by", range_kind="entity"),
            Predicate("has_cast_member", range_kind="entity", multi_valued=True),
            Predicate("genre", range_kind="string", multi_valued=True),
        ]
    )
    kb = KnowledgeBase(ontology)
    genres = ["Drama", "Comedy", "Action", "Documentary"]
    pages = []
    for i in range(n_pages):
        film, director = f"f{i}", f"d{i}"
        kb.add_entity(Entity(film, f"Feature Film {i} Story", "film"))
        kb.add_entity(Entity(director, f"Director Person {i}", "person"))
        cast = [f"a{i}_{j}" for j in range(4)]
        for j, actor in enumerate(cast):
            kb.add_entity(Entity(actor, f"Actor Person {i} {j}", "person"))
        kb.add_fact(film, "directed_by", Value.entity(director))
        page_genres = rng.sample(genres, 3)
        for genre in page_genres:
            kb.add_fact(film, "genre", Value.literal(genre))
        for actor in cast:
            kb.add_fact(film, "has_cast_member", Value.entity(actor))

        pad_top = "".join(
            f"<div class='pad'><span>filler {k}</span></div>"
            for k in range(rng.randint(0, 8))
        )
        cast_items = "".join(
            f"<li class='cast'>Actor Person {i} {j}</li>" for j in range(4)
        )
        genre_spans = "".join(
            f"<span class='g'>{genre}</span>" for genre in page_genres
        )
        items = []
        for genre in genres:
            depth = rng.randint(0, max_depth)
            items.append(
                "<li class='bg'>" + "<b>" * depth + genre + "</b>" * depth + "</li>"
            )
        for k in range(rng.randint(2, max_fill)):
            items.append(f"<li class='fill'>browse item {k}</li>")
        rng.shuffle(items)
        html = (
            f"<html><body><div class='main'>{pad_top}"
            f"<h1>Feature Film {i} Story</h1>"
            f"<div class='credit'><span>Director</span><span>Director Person {i}</span></div>"
            f"<div class='genres'>{genre_spans}</div>"
            f"<ul class='castlist'>{cast_items}</ul>"
            f"</div><aside class='browse'><ul class='all'>{''.join(items)}</ul></aside>"
            f"</body></html>"
        )
        pages.append(parse_html(html))
    return kb, pages


# -- equivalence helpers ----------------------------------------------------


def annotation_rows(result) -> str:
    return json.dumps(
        [
            (
                page.page_index,
                page.topic_entity_id,
                page.topic_node.xpath,
                annotation.predicate,
                annotation.node.xpath,
                annotation.object_key,
                annotation.object_text,
            )
            for page in result.annotated_pages
            for annotation in page.annotations
        ]
    )


def model_fingerprint(result) -> tuple:
    out = []
    for cluster in result.cluster_results:
        model = cluster.model
        if model is None:
            out.append(None)
            continue
        out.append(
            (
                sorted(model.vectorizer.vocabulary_.items()),
                model.classifier.coef_.tobytes(),
                model.classifier.intercept_.tobytes(),
                list(model.classifier.classes_),
                sorted(model.feature_extractor.frequent_strings),
            )
        )
    return tuple(out)


def extraction_rows(result) -> list:
    return [
        (e.page_index, e.subject, e.predicate, e.object, e.confidence)
        for e in result.extractions
    ]


# -- part 1: cold annotate+train on the PR 4 fixture ------------------------


def bench_cold_pipeline(n_pages: int, n_batches: int) -> dict:
    dataset = generate_swde("movie", n_sites=2, pages_per_site=n_pages, seed=11)
    kb = seed_kb_for(dataset, 11)
    documents = [page.document for page in dataset.sites[1].pages]
    # The match cache must hold the cluster (PR 2's sizing rule); both
    # paths share the same config.
    config = CeresConfig(page_match_cache_size=max(1024, 2 * n_pages))
    bench = MetricsRegistry()

    def cold(legacy: bool):
        pipeline = CeresPipeline(kb, config)
        if legacy:
            result = pipeline.legacy_annotate(documents)
            pipeline.legacy_train(documents, result)
        else:
            result = pipeline.annotate(documents)
            pipeline.train(documents, result)
        return pipeline, result

    # Warm process-wide memo caches (normalize/surface variants) for both
    # paths symmetrically, then check equivalence once on the warm runs.
    fast_pipeline, fast_result = cold(legacy=False)
    legacy_pipeline, legacy_result = cold(legacy=True)
    if annotation_rows(fast_result) != annotation_rows(legacy_result):
        raise AssertionError("vectorized annotations diverged from legacy")
    if model_fingerprint(fast_result) != model_fingerprint(legacy_result):
        raise AssertionError("vectorized model coefficients diverged from legacy")
    fast_pipeline.extract(fast_result, documents)
    legacy_pipeline.extract(legacy_result, documents)
    if extraction_rows(fast_result) != extraction_rows(legacy_result):
        raise AssertionError("vectorized extractions diverged from legacy")

    def measure(legacy: bool, batches: int) -> float:
        name = "bench.cold_legacy_seconds" if legacy else "bench.cold_fast_seconds"
        best = float("inf")
        for _ in range(batches):
            with bench.timer(name) as timing:
                cold(legacy)
            if timing.elapsed < best:
                best = timing.elapsed
        return n_pages / best

    fast_pps = measure(False, n_batches)
    legacy_pps = measure(True, max(1, n_batches // 2))
    return {
        "n_pages": n_pages,
        "fast_pps": fast_pps,
        "legacy_pps": legacy_pps,
        "speedup_vs_legacy": fast_pps / legacy_pps if legacy_pps else 0.0,
        "speedup_vs_pr4": fast_pps / PR4_BASELINE_PPS,
        "extractions": len(extraction_rows(fast_result)),
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

    def run(legacy: bool):
        annotator = RelationAnnotator(kb, config, identifier.matcher)
        name = (
            "bench.annotate_legacy_seconds"
            if legacy
            else "bench.annotate_fast_seconds"
        )
        with bench.timer(name) as timing:
            annotated = (
                annotator.legacy_annotate if legacy else annotator.annotate
            )(pages, topics)
        return timing.elapsed, annotated

    _, fast_pages = run(False)
    _, legacy_pages = run(True)
    fast_rows = [
        (p.page_index, a.predicate, a.node.xpath, a.object_key, a.object_text)
        for p in fast_pages
        for a in p.annotations
    ]
    legacy_rows = [
        (p.page_index, a.predicate, a.node.xpath, a.object_key, a.object_text)
        for p in legacy_pages
        for a in p.annotations
    ]
    if fast_rows != legacy_rows:
        raise AssertionError("hazard-fixture annotations diverged from legacy")

    def measure(legacy: bool, batches: int) -> float:
        best = float("inf")
        for _ in range(batches):
            seconds, _ = run(legacy)
            best = min(best, seconds)
        return n_pages / best

    fast_pps = measure(False, n_batches)
    legacy_pps = measure(True, max(1, n_batches // 2))
    return {
        "n_pages": n_pages,
        "n_annotations": len(fast_rows),
        "fast_pps": fast_pps,
        "legacy_pps": legacy_pps,
        "speedup": fast_pps / legacy_pps if legacy_pps else 0.0,
        "obs_snapshot": bench.snapshot(),
    }


def format_table(cold: dict, stage: dict) -> str:
    return "\n".join(
        [
            "Annotation & training hot path: vectorized engine vs legacy",
            "  [cold annotate+train, PR 4 fixture]",
            f"    pages                  {cold['n_pages']}",
            f"    legacy cold            {cold['legacy_pps']:10.1f} pages/s",
            f"    vectorized cold        {cold['fast_pps']:10.1f} pages/s",
            f"    speedup vs legacy      {cold['speedup_vs_legacy']:10.2f}x",
            f"    speedup vs PR4 base    {cold['speedup_vs_pr4']:10.2f}x"
            f"   (baseline {PR4_BASELINE_PPS:.0f} pages/s, gate >= "
            f"{REQUIRED_COLD_SPEEDUP:.0f}x; L-BFGS data term is "
            "equivalence-locked)",
            "    annotations/models     byte-identical (vectorized == legacy)",
            f"    extractions            byte-identical ({cold['extractions']} rows)",
            "  [annotation stage, all-genres hazard fixture]",
            f"    pages                  {stage['n_pages']}"
            f"   ({stage['n_annotations']} annotations, identical)",
            f"    legacy annotate        {stage['legacy_pps']:10.1f} pages/s",
            f"    vectorized annotate    {stage['fast_pps']:10.1f} pages/s",
            f"    speedup                {stage['speedup']:10.2f}x"
            f"   (gate >= {REQUIRED_ANNOTATION_SPEEDUP:.0f}x)",
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
        cold = bench_cold_pipeline(n_pages=50, n_batches=1)
        stage = bench_annotation_stage(n_pages=40, n_batches=1)
    else:
        cold = bench_cold_pipeline(n_pages=600, n_batches=4)
        stage = bench_annotation_stage(n_pages=150, n_batches=4)
    report_metrics(
        "annotation_hotpath",
        merge_snapshots([cold.pop("obs_snapshot"), stage.pop("obs_snapshot")]),
        quick=args.quick,
    )
    report("annotation_hotpath", format_table(cold, stage), quick=args.quick)
    failed = False
    if not args.quick:
        if cold["speedup_vs_pr4"] < REQUIRED_COLD_SPEEDUP:
            print(
                f"ERROR: vectorized cold path at {cold['fast_pps']:.0f} pages/s "
                f"is below {REQUIRED_COLD_SPEEDUP:.0f}x the PR 4 baseline",
                file=sys.stderr,
            )
            failed = True
        if stage["speedup"] < REQUIRED_ANNOTATION_SPEEDUP:
            print(
                f"ERROR: annotation stage speedup {stage['speedup']:.2f}x is "
                f"below {REQUIRED_ANNOTATION_SPEEDUP:.0f}x",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
