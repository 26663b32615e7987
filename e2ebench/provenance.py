"""Where a result came from, and where it is kept.

Every result records the source it measured (git sha when the checkout
is a repository, and always a digest of ``src/``), a host fingerprint,
the seed and the mode.  Results land in ``results/<mode>/``: a run
shorter than ``BENCHMARK.json``'s ``run_seconds`` is a *smoke* run and
can never overwrite a *full* one.  ``trajectory.py`` appends summaries
of full results to the committed ``trajectory.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path


def _tree_digest(root: Path, directory: str) -> str:
    hasher = hashlib.sha256()
    for path in sorted((root / directory).rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def source_identity(root: Path) -> dict:
    """The program measured (``src/``) and the benchmark measuring it."""
    sha = None
    if (root / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = probe.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_digest": _tree_digest(root, "src"),
        "bench_digest": _tree_digest(root, "e2ebench"),
    }


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def mode_for(seconds: float, bench_root: Path) -> str:
    """``full`` at the committed run length, ``smoke`` below it."""
    try:
        committed = json.loads((bench_root / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return "smoke"
    return "full" if seconds >= committed else "smoke"


def write_result(bench_dir: Path, record: dict) -> Path:
    run = record["run"]
    directory = bench_dir / "results" / run["mode"]
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json"
    )
    temporary = path.with_suffix(".tmp")
    temporary.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(temporary, path)
    return path
