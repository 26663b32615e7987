"""Shared benchmark plumbing.

Every benchmark regenerates one table or figure of the paper (the
runners live in ``repro.evaluation.experiments``) or measures one
subsystem.  The rendered table is printed to stdout *and*, on full runs,
written to ``benchmarks/out/<name>.txt`` so that
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
timing while the experiment tables land in versionable artifacts;
``--quick`` runs print only.

Timing goes through :mod:`repro.obs` (``MetricsRegistry.timer``), never
a bare perf-counter call — CI greps for violations — and every benchmark
persists its registry snapshot via :func:`report_metrics`, so
``out/<name>.metrics.json`` carries the raw duration histograms behind
each rendered table.
"""

from __future__ import annotations

import json
import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"


def report(name: str, text: str, *, quick: bool = False) -> None:
    """Print a rendered experiment table and, unless ``quick``, persist it.

    A ``--quick`` run is a smoke check on reduced inputs: it prints its
    table but never overwrites the full run's committed results.
    """
    if not quick:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def report_metrics(name: str, snapshot: dict, *, quick: bool = False) -> None:
    """Persist a benchmark's metrics snapshot next to its table (a
    ``quick`` run persists nothing, as in :func:`report`)."""
    if quick:
        return
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.metrics.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
