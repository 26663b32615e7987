"""One end-to-end benchmark of the CERES reproduction, raw HTML to triples.

    python3 e2ebench/run.py --workload corpus|serve|recrawl --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout (it launches ``src/``'s program
with ``python -m repro`` exactly as a user would).  ``--trace 0`` prints
every end-to-end metric; ``--trace 1`` runs the traced variant and prints
every per-layer metric.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check
prints no numbers and exits 1.  README.md defines the workloads and the
metrics on each.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("pages_per_s", "pages/s"),
    ("max_rps", "req/s"),
    ("p50_ms.light", "ms"),
    ("tail_ms.light", "ms"),
    ("p50_ms.busy", "ms"),
    ("tail_ms.busy", "ms"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_rate", "fraction"),
    ("precision", "fraction"),
    ("recall", "fraction"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("dom.parse_s", "s"), ("dom.pages", "count"), ("dom.bytes", "bytes"),
    ("kb.load_s", "s"), ("kb.loads", "count"), ("kb.match_hit_rate", "fraction"),
    ("clustering.cluster_s", "s"), ("clustering.clusters", "count"),
    ("clustering.assign_hit_rate", "fraction"),
    ("annotation.annotate_s", "s"), ("annotation.annotations", "count"),
    ("annotation.annotated_share", "fraction"),
    ("train.train_s", "s"), ("train.examples", "count"), ("train.models", "count"),
    ("scoring.csr_build_s", "s"), ("scoring.predict_s", "s"),
    ("scoring.nodes", "count"), ("scoring.batches", "count"),
    ("scoring.feature_registry_hit_rate", "fraction"),
    ("registry.save_s", "s"), ("registry.load_s", "s"), ("registry.loads", "count"),
    ("service.resident_hit_rate", "fraction"), ("service.evictions", "count"),
    ("service.extract_s", "s"),
    ("runner.site_s.p50", "s"), ("runner.site_s.max", "s"),
    ("runner.speedup", "x"), ("runner.retries", "count"),
    ("runner.sites_failed", "count"),
    ("fusion.ingest_s", "s"), ("fusion.finalize_s", "s"),
    ("fusion.rows", "count"), ("fusion.facts", "count"),
    ("transfer.pages", "count"), ("transfer.extract_s", "s"),
    ("serving.request_s.p50", "s"), ("serving.request_s.tail", "s"),
    ("serving.transport_ms.p50", "ms"), ("serving.queue_wait_s", "s"),
    ("serving.batch_pages", "pages"), ("serving.serialize_s", "s"),
    ("serving.shed", "count"), ("serving.deadline_expired", "count"),
    ("client.sent", "count"), ("client.ok", "count"), ("client.failed", "count"),
    ("client.lateness_ms.max", "ms"),
    ("obs.trace_overhead", "fraction"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "serve", "recrawl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_human(record: dict) -> None:
    run = record["run"]
    print(
        f"[e2ebench] {run['workload']} seed={run['seed']} trace={run['trace']} "
        f"mode={run['mode']} src={record['source']['src_digest'][:12]}"
    )
    for name, value in record.get("properties", {}).items():
        print(f"  property {name} = {value}")
    tails = record.get("tails", {})
    for name, entry in record["metrics"].items():
        note = ""
        if name in tails:
            percentile, count = tails[name]
            note = f"  (p{percentile:.1f} of {count} samples)"
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}{note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SOURCE / "repro" / "__main__.py").is_file():
        print(
            f"e2ebench: no program source at {SOURCE}/repro; run from the "
            f"root of a source checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import provenance
    import workloads
    from checks import CheckFailed

    work = BENCH_DIR / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    context = workloads.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        source=SOURCE, work=work,
    )
    try:
        try:
            outcome = workloads.WORKLOADS[args.workload](context)
        except CheckFailed as failure:
            print(f"e2ebench: output check failed: {failure}", file=sys.stderr)
            print(json.dumps({
                "correct": False, "attempted": max(1, context.attempted),
                "failed": context.failed, "metrics": {},
            }))
            return 1
    finally:
        context.close()
        shutil.rmtree(work, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in wanted
    }
    record = {
        "run": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "mode": provenance.mode_for(args.seconds, ROOT),
        },
        "source": provenance.source_identity(ROOT),
        "host": provenance.host_fingerprint(),
        "properties": outcome.properties,
        "metrics": metrics,
        "tails": outcome.tails,
        "checks": outcome.checks,
        "detail": outcome.detail,
        "timings": context.timing_summary(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    _print_human(record)
    path = provenance.write_result(BENCH_DIR, record)
    print(f"[e2ebench] result -> {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
