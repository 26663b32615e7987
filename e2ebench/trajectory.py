"""Summarize full-mode results and append them to the trajectory.

    python3 e2ebench/trajectory.py            # print medians and spreads
    python3 e2ebench/trajectory.py --append   # also append one entry

Reads ``results/full/*.json`` (smoke results are never considered),
keeps those of the current program and benchmark source, and reports
per workload and end-to-end metric the median, the quartiles, and the
inter-quartile spread as a share of the median — the steadiness figure
each metric's bound in ``BENCHMARK.json`` is compared against.  Traced
results contribute their per-layer metrics (median over traced runs).
An entry appended to ``trajectory.jsonl`` records the source identity,
the host fingerprint and all of the above, so entries from different
hosts or commits are never mistaken for one another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import provenance
import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(results: list) -> dict:
    workloads: dict = {}
    for record in results:
        run = record["run"]
        entry = workloads.setdefault(run["workload"], {"seeds": [], "traced": [], "e2e": {}, "layers": {}})
        target = entry["layers"] if run["trace"] else entry["e2e"]
        (entry["traced"] if run["trace"] else entry["seeds"]).append(run["seed"])
        for name, metric in record["metrics"].items():
            target.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(
                metric["value"]
            )
    for entry in workloads.values():
        for name, metric in entry["e2e"].items():
            values = metric["values"]
            metric["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                metric["quartiles"] = [q1, q3]
                metric["spread"] = stats.quartile_spread(values)
        for metric in entry["layers"].values():
            metric["median"] = statistics.median(metric["values"])
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    source = provenance.source_identity(ROOT)
    results = []
    for path in sorted((BENCH_DIR / "results" / "full").glob("*.json")):
        record = json.loads(path.read_text())
        if record["source"] == source:
            results.append(record)
    if not results:
        print("no full-mode results for the current source", file=sys.stderr)
        return 1
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    summary = summarize(results)
    for workload, entry in sorted(summary.items()):
        print(f"{workload}: {len(entry['seeds'])} run(s), {len(entry['traced'])} traced")
        for name, metric in entry["e2e"].items():
            spread = metric.get("spread")
            flag = ""
            if spread is not None and name in bounds and name != "setup_s":
                flag = "  OVER BOUND" if spread > bounds[name] else (
                    "  over bound/3" if spread > bounds[name] / 3 else ""
                )
            spread_text = "-" if spread is None else f"{spread:.3f}"
            print(
                f"  {name:14s} median {metric['median']:.6g} {metric['unit']:8s} "
                f"spread {spread_text} (bound {bounds.get(name)}){flag}"
            )
    if args.append:
        entry = {
            "source": source,
            "host": results[-1]["host"],
            "mode": "full",
            "workloads": summary,
        }
        with open(BENCH_DIR / "trajectory.jsonl", "a", encoding="utf-8") as sink:
            sink.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"appended an entry to {(BENCH_DIR / 'trajectory.jsonl').relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
