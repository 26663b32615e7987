"""Fault tolerance under fire: kill + resume equivalence and chaos recovery.

Two scenarios, both gated:

1. **Kill + resume** — a real ``python -m repro run-corpus`` subprocess
   with ``--run-dir`` is SIGKILLed (whole process group, so pool workers
   die too) right after its first site commits to the journal, then
   rerun with ``--resume``.  Gates: the resumed run's extraction JSONL
   and fused-fact JSONL are **byte-identical** to an uninterrupted
   baseline, and at least one completed site was skipped (resumed from
   the journal rather than recomputed).  Recovery overhead — resumed-run
   wall clock over baseline wall clock — is gated too.

2. **Chaos plan** — ``run_corpus`` in-process under an injected fault
   plan (one site fails transiently once, one other site has a poison
   page).  Gates: zero sites lost, the transient failure retried
   (``runner.retries``), the poison page quarantined and reported
   (``runner.quarantined``, ``SiteReport.n_quarantined_pages``).

Tier-1 runs every gate but the recovery ratio, a timing, on 3 sites x
10 pages.

Run::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from conftest import report, report_metrics  # noqa: E402

from repro import obs  # noqa: E402
from repro.datasets import generate_swde, seed_kb_for  # noqa: E402
from repro.kb.io import save_kb  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.runtime import run_corpus  # noqa: E402
from repro.testing.faults import FaultPlan, FaultSpec, active  # noqa: E402

#: Resumed-run wall clock over baseline wall clock (gate): the
#: resume skips at least one site, so even with process startup on top
#: it must not cost more than the uninterrupted run plus slack.
MAX_RECOVERY_RATIO = 1.25
#: How long to wait for the doomed run to commit its first site.
KILL_POLL_TIMEOUT = 300.0


def build_corpus(root: Path, n_sites: int, pages_per_site: int) -> tuple[Path, Path, list[str]]:
    dataset = generate_swde("movie", n_sites=n_sites + 1,
                            pages_per_site=pages_per_site, seed=23)
    root.mkdir(parents=True, exist_ok=True)
    kb_path = root / "kb.json"
    save_kb(seed_kb_for(dataset, 23), kb_path)
    corpus_dir = root / "sites"
    corpus_dir.mkdir()
    names = []
    for site in dataset.sites[1:]:
        site_dir = corpus_dir / site.name
        site_dir.mkdir()
        for index, page in enumerate(site.pages):
            (site_dir / f"page{index:03d}.html").write_text(page.html)
        names.append(site.name)
    return kb_path, corpus_dir, sorted(names)


def corpus_args(kb_path: Path, corpus_dir: Path, root: Path, tag: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "run-corpus",
        "--kb", str(kb_path), "--corpus", str(corpus_dir),
        "--registry", str(root / f"models-{tag}"),
        "--output", str(root / f"rows-{tag}.jsonl"),
        "--fuse-output", str(root / f"facts-{tag}.jsonl"),
        "--run-dir", str(root / f"run-{tag}"),
        "--workers", "2",
    ]


def subprocess_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    src = str(Path(__file__).parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def count_committed(journal_path: Path) -> int:
    """Sites the journal shows fully committed (done/quarantined)."""
    if not journal_path.exists():
        return 0
    committed = set()
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # the torn tail of an in-flight append
        if record.get("event") == "site" and record.get("state") in (
            "done", "quarantined",
        ):
            committed.add(record["site"])
    return len(committed)


def run_kill_resume(root: Path, n_sites: int, pages_per_site: int,
                    bench: MetricsRegistry) -> dict:
    kb_path, corpus_dir, names = build_corpus(root, n_sites, pages_per_site)
    env = subprocess_env()

    # Uninterrupted baseline.
    with bench.timer("bench.baseline_seconds") as baseline_timing:
        subprocess.run(
            corpus_args(kb_path, corpus_dir, root, "base"),
            check=True, env=env, capture_output=True,
        )

    # The doomed run: its own session (process group), so SIGKILLing the
    # group takes the pool workers down with the coordinator — the
    # harshest crash shape short of pulling power.  A hang fault at the
    # commit point freezes the coordinator right after its first site is
    # durably journaled, so the kill lands at a deterministic boundary
    # instead of racing the run to completion.
    doomed_env = dict(env)
    doomed_env["REPRO_FAULT_PLAN"] = FaultPlan(
        [FaultSpec("runner.site_committed", action="hang", times=1)]
    ).to_json()
    doomed = subprocess.Popen(
        corpus_args(kb_path, corpus_dir, root, "kill"),
        env=doomed_env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    journal_path = root / "run-kill" / "journal.jsonl"
    deadline = time.monotonic() + KILL_POLL_TIMEOUT
    killed_after = None
    try:
        while time.monotonic() < deadline:
            committed = count_committed(journal_path)
            if committed >= 1:
                killed_after = committed
                break
            if doomed.poll() is not None:
                raise RuntimeError(
                    "doomed run exited before the kill landed "
                    f"(rc={doomed.returncode})"
                )
            # repro: allow[bare-sleep] polling the victim's journal from outside the process — not a retry loop, no backoff wanted
            time.sleep(0.05)
        else:
            raise RuntimeError("doomed run never committed a site")
        os.killpg(os.getpgid(doomed.pid), signal.SIGKILL)
    finally:
        doomed.wait()

    # Resume from the journal.
    with bench.timer("bench.resume_seconds") as resume_timing:
        resumed_proc = subprocess.run(
            corpus_args(kb_path, corpus_dir, root, "kill") + ["--resume"],
            check=True, env=env, capture_output=True, text=True,
        )
    resumed_sites = resumed_proc.stderr.count(" resumed (unchanged")

    rows_equal = (
        (root / "rows-base.jsonl").read_bytes()
        == (root / "rows-kill.jsonl").read_bytes()
    )
    facts_equal = (
        (root / "facts-base.jsonl").read_bytes()
        == (root / "facts-kill.jsonl").read_bytes()
    )
    return {
        "n_sites": len(names),
        "committed_at_kill": killed_after,
        "resumed_sites": resumed_sites,
        "rows_bytes": (root / "rows-base.jsonl").stat().st_size,
        "rows_equal": rows_equal,
        "facts_equal": facts_equal,
        "baseline_seconds": baseline_timing.elapsed,
        "resume_seconds": resume_timing.elapsed,
        "recovery_ratio": resume_timing.elapsed / baseline_timing.elapsed,
    }


def run_chaos(root: Path, n_sites: int, pages_per_site: int,
              bench: MetricsRegistry) -> dict:
    kb_path, corpus_dir, names = build_corpus(
        root / "chaos", n_sites, pages_per_site
    )
    flaky, poisoned = names[0], names[1]
    plan = FaultPlan(
        [
            FaultSpec("site.run", action="raise-transient",
                      site=flaky, times=1),
            FaultSpec("page.parse", action="raise",
                      site=poisoned, page="page001.html"),
        ]
    )
    output = io.StringIO()
    with bench.timer("bench.chaos_seconds") as chaos_timing:
        with obs.scoped(tracing=False, metrics=True) as (_, registry):
            with active(plan):
                reports = run_corpus(
                    corpus_dir, kb_path, None, max_workers=1,
                    output=output, max_attempts=3, retry_backoff=0.01,
                )
            counters = registry.snapshot()["counters"]
    by_site = {r.site: r for r in reports}
    return {
        "n_sites": len(names),
        "sites_ok": sum(1 for r in reports if r.ok),
        "retries": counters.get("runner.retries", 0),
        "quarantined": counters.get("runner.quarantined", 0),
        "flaky_attempts": by_site[flaky].attempts,
        "poisoned_degraded": by_site[poisoned].degraded,
        "poisoned_quarantined_pages": by_site[poisoned].n_quarantined_pages,
        "chaos_seconds": chaos_timing.elapsed,
    }


def format_table(kr: dict, chaos: dict) -> str:
    def verdict(ok: bool) -> str:
        return "MET" if ok else "MISSED"

    lines = [
        "Resilience: SIGKILL + resume equivalence, chaos recovery",
        f"  corpus                 {kr['n_sites']} sites",
        f"  sites committed at kill          {kr['committed_at_kill']}",
        f"  sites resumed unchanged          {kr['resumed_sites']}   "
        f"(gate >= 1: {verdict(kr['resumed_sites'] >= 1)})",
        f"  extraction JSONL identical       {kr['rows_equal']}   "
        f"(gate: {verdict(kr['rows_equal'])})",
        f"  fused JSONL identical            {kr['facts_equal']}   "
        f"(gate: {verdict(kr['facts_equal'])})",
        f"  baseline wall clock    {kr['baseline_seconds']:8.2f}s",
        f"  resume wall clock      {kr['resume_seconds']:8.2f}s",
        f"  recovery ratio (resume/baseline) {kr['recovery_ratio']:6.2f}   "
        f"(gate <= {MAX_RECOVERY_RATIO:.2f}: "
        f"{verdict(kr['recovery_ratio'] <= MAX_RECOVERY_RATIO)})",
        "  chaos plan: 1 transient site failure + 1 poison page",
        f"  sites ok               {chaos['sites_ok']}/{chaos['n_sites']}   "
        f"(gate: zero lost: {verdict(chaos['sites_ok'] == chaos['n_sites'])})",
        f"  transient retries      {chaos['retries']}   "
        f"(gate >= 1: {verdict(chaos['retries'] >= 1)})",
        f"  pages quarantined      {chaos['quarantined']}   "
        f"(gate == 1: {verdict(chaos['quarantined'] == 1)})",
        f"  chaos wall clock       {chaos['chaos_seconds']:8.2f}s",
    ]
    return "\n".join(lines)


def correctness_failures(kr: dict, chaos: dict) -> list[str]:
    """The gates of the kill + resume and chaos scenarios."""
    failures = []
    if not kr["rows_equal"]:
        failures.append("resumed extraction JSONL diverged from baseline")
    if not kr["facts_equal"]:
        failures.append("resumed fused JSONL diverged from baseline")
    if kr["resumed_sites"] < 1:
        failures.append("resume recomputed every site (journal unused)")
    if chaos["sites_ok"] != chaos["n_sites"]:
        failures.append("chaos run lost a site")
    if chaos["retries"] < 1:
        failures.append("transient failure was not retried")
    if chaos["quarantined"] != 1 or chaos["poisoned_quarantined_pages"] != 1:
        failures.append("poison page was not quarantined/reported")
    return failures


def main() -> int:
    n_sites, pages = 6, 16
    bench = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="bench_resilience_") as tmp:
        root = Path(tmp)
        kr = run_kill_resume(root, n_sites, pages, bench)
        chaos = run_chaos(root, n_sites, pages, bench)

    report("resilience", format_table(kr, chaos))
    report_metrics("resilience", bench.snapshot())

    failures = correctness_failures(kr, chaos)
    if kr["recovery_ratio"] > MAX_RECOVERY_RATIO:
        failures.append(
            f"recovery ratio {kr['recovery_ratio']:.2f} exceeds "
            f"{MAX_RECOVERY_RATIO:.2f}"
        )
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
