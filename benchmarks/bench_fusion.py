"""Corpus-scale streaming fusion: FactStore throughput, RSS, and precision.

Two claims are gated:

* **bounded memory + determinism** — a FactStore ingesting a ≥ 20-site
  synthetic extraction stream under a small ``max_resident_facts`` cap
  spills predicate-keyed shards to disk, keeps resident-set drift under
  5%, and produces byte-identical fused JSONL no matter the shard count
  or spill pressure;
* **fusion lifts precision** — on the SWDE movie fixture (full pipeline
  per site, overlapping rosters), reliability-weighted noisy-OR fusion
  re-ranks the fact set so that precision at equal yield is >= the
  unfused best-single-confidence ranking.

Run::

    PYTHONPATH=src python benchmarks/bench_fusion.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from conftest import report, report_metrics  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.config import CeresConfig  # noqa: E402
from repro.core.pipeline import CeresPipeline  # noqa: E402
from repro.datasets import generate_swde, seed_kb_for  # noqa: E402
from repro.evaluation.fusion_eval import (  # noqa: E402
    dataset_fact_keys,
    fusion_gain,
)
from repro.fusion import (  # noqa: E402
    FactStore,
    estimate_reliability,
    extraction_agreement,
    fuse_extractions,
    write_fused_jsonl,
)

MAX_DRIFT = 0.05  # resident-set growth tolerated across the measured pass


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


# -- part 1: streaming scale ------------------------------------------------


def synthetic_rows(n_sites: int, rows_per_site: int, n_facts: int, seed: int):
    """Deterministic per-site extraction rows over a shared fact universe."""
    predicates = ("genre", "directed_by", "release_date", "runtime", "writer")
    for site_index in range(n_sites):
        rng = random.Random(f"{seed}:{site_index}")
        site = f"site_{site_index:03d}"
        for _ in range(rows_per_site):
            fact = rng.randrange(n_facts)
            predicate = predicates[fact % len(predicates)]
            yield {
                "site": site,
                "subject": f"Film {fact // len(predicates)}",
                "predicate": predicate,
                "object": f"Value {fact}",
                "confidence": round(rng.uniform(0.3, 0.99), 6),
            }


class _HashSink:
    """A write-only text sink that keeps a digest, not the bytes — the
    benchmark must not hold multi-MB output strings while measuring RSS."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self._hash.update(text.encode("utf-8"))
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def ingest_pass(
    registry, n_sites: int, rows_per_site: int, n_facts: int,
    *, n_shards: int, max_resident_facts: int,
) -> tuple[str, int, int, float]:
    """One full streaming pass; returns
    (fused-output digest, n_fused, n_rows, seconds)."""
    store = FactStore(
        n_shards=n_shards, max_resident_facts=max_resident_facts
    )
    with registry.timer("bench.ingest_pass_seconds") as timing:
        n_rows = 0
        for row in synthetic_rows(n_sites, rows_per_site, n_facts, seed=7):
            store.add_row(row)
            n_rows += 1
        facts = store.finalize(min_sites=2)
    sink = _HashSink()
    n_fused = write_fused_jsonl(facts, sink)
    return sink.hexdigest(), n_fused, n_rows, timing.elapsed


def run_streaming(n_sites: int, rows_per_site: int, n_facts: int) -> dict:
    cap = max(500, n_facts // 8)
    # The whole streaming part runs under a scoped live registry, so the
    # FactStore's own instruments (fusion.rows, fusion.spills, spill/
    # compact timings) land in the persisted snapshot alongside the
    # benchmark's pass timers.
    with obs.scoped(tracing=False, metrics=True) as (_, registry):
        # Warmup: grows the allocator arenas to steady state.
        baseline_digest, _, _, _ = ingest_pass(
            registry, n_sites, rows_per_site, n_facts,
            n_shards=8, max_resident_facts=cap,
        )
        gc.collect()
        baseline_rss = rss_bytes()

        digest, n_fused, n_rows, seconds = ingest_pass(
            registry, n_sites, rows_per_site, n_facts,
            n_shards=8, max_resident_facts=cap,
        )
        gc.collect()
        final_rss = rss_bytes()

        # Determinism across shard count and spill pressure.
        alt_digest, _, _, _ = ingest_pass(
            registry, n_sites, rows_per_site, n_facts,
            n_shards=3, max_resident_facts=max(200, cap // 4),
        )
        snapshot = registry.snapshot()
    if digest != baseline_digest or digest != alt_digest:
        raise AssertionError(
            "fused output depends on shard count / spill pressure"
        )
    drift = None
    if baseline_rss and final_rss:
        drift = (final_rss - baseline_rss) / baseline_rss
    return {
        "n_sites": n_sites,
        "n_rows": n_rows,
        "n_facts_universe": n_facts,
        "n_fused": n_fused,
        "rows_per_s": n_rows / seconds if seconds else 0.0,
        "resident_cap": cap,
        "baseline_rss": baseline_rss,
        "final_rss": final_rss,
        "rss_drift": drift,
        "deterministic": True,
        "obs_snapshot": snapshot,
    }


# -- part 2: precision on the SWDE fixture ---------------------------------


def hazard_site(extractions) -> list:
    """A template-artifact site: for every subject another site covers,
    it confidently asserts the same wrong value — the single-site error
    mode cross-site fusion exists to demote."""
    from repro.core.extraction.extractor import Extraction
    from repro.dom.node import TextNode

    artifacts = []
    for index, subject in enumerate(sorted({e.subject for e in extractions})):
        artifacts.append(
            Extraction(
                subject, "genre", "Infomercial", 0.99, index,
                TextNode("Infomercial"),
            )
        )
    return artifacts


def run_precision(n_sites: int, pages_per_site: int) -> dict:
    dataset = generate_swde(
        "movie", n_sites=n_sites, pages_per_site=pages_per_site, seed=17
    )
    kb = seed_kb_for(dataset, 17)
    config = CeresConfig()
    by_site: dict[str, list] = {}
    for site in dataset.sites:
        documents = [page.document for page in site.pages]
        result = CeresPipeline(kb, config).run(documents, documents)
        by_site[site.name] = result.extractions
    by_site["hazard"] = hazard_site(by_site[dataset.sites[0].name])

    reliability = {
        site: estimate_reliability(*extraction_agreement(kb, extractions))
        for site, extractions in by_site.items()
    }
    truth = dataset_fact_keys(dataset.sites)
    fused = fuse_extractions(by_site, site_reliability=reliability)
    gain = fusion_gain(fused, by_site, truth, ks=(50, 200))
    gain["n_sites"] = n_sites + 1
    gain["pages_per_site"] = pages_per_site
    gain["hazard_reliability"] = reliability["hazard"]
    return gain


# -- reporting --------------------------------------------------------------


def format_report(streaming: dict, precision: dict) -> str:
    def pct(value):
        return "n/a" if value is None else f"{100 * value:.2f}%"

    equal = precision["equal_yield"]
    lines = [
        "Corpus-scale streaming fusion (FactStore)",
        f"  sites x rows           {streaming['n_sites']} sites, "
        f"{streaming['n_rows']} extraction rows",
        f"  fused facts (2+ sites) {streaming['n_fused']}",
        f"  throughput             {streaming['rows_per_s']:10.0f} rows/s",
        f"  resident-fact cap      {streaming['resident_cap']}",
        f"  RSS drift              {pct(streaming['rss_drift'])}"
        f"   (gate < {MAX_DRIFT:.0%})",
        "  determinism            byte-identical across shard counts "
        "and spill pressure",
        "",
        "Fusion precision (SWDE movie fixture, "
        f"{precision['n_sites']} sites x {precision['pages_per_site']} pages, "
        "incl. 1 template-artifact hazard site)",
        f"  facts                  {precision['n_unfused']} unfused, "
        f"{precision['n_fused']} fused",
        f"  hazard reliability     {precision['hazard_reliability']:.3f}"
        "   (seed-KB agreement discounts its vote)",
        f"  precision@yield (k={equal['k']})  "
        f"fused {pct(equal['fused'])}  vs  unfused {pct(equal['unfused'])}"
        "   (gate: fused >= unfused)",
    ]
    for k, values in sorted(precision["at_k"].items()):
        lines.append(
            f"  precision@{k:<4}         fused {pct(values['fused'])}  vs  "
            f"unfused {pct(values['unfused'])}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small stream + small fixture (CI smoke; same gates except RSS)",
    )
    args = parser.parse_args()
    if args.quick:
        streaming = run_streaming(n_sites=20, rows_per_site=1500, n_facts=6000)
        precision = run_precision(n_sites=3, pages_per_site=12)
    else:
        streaming = run_streaming(n_sites=24, rows_per_site=20000, n_facts=60000)
        precision = run_precision(n_sites=5, pages_per_site=24)

    report_metrics("fusion", streaming.pop("obs_snapshot"), quick=args.quick)
    report("fusion", format_report(streaming, precision), quick=args.quick)

    failures = []
    drift = streaming["rss_drift"]
    # Quick mode keeps RSS informational: a tiny stream's drift is
    # dominated by allocator noise, not the store.
    if not args.quick and drift is not None and drift >= MAX_DRIFT:
        failures.append(f"RSS drift {drift:.1%} exceeds {MAX_DRIFT:.0%}")
    equal = precision["equal_yield"]
    if (
        equal["fused"] is not None
        and equal["unfused"] is not None
        and equal["fused"] < equal["unfused"]
    ):
        failures.append(
            f"fused precision {equal['fused']:.3f} fell below "
            f"unfused {equal['unfused']:.3f} at equal yield"
        )
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
