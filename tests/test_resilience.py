"""Fault tolerance: journal/resume equivalence, retries, quarantine,
deadlines, and the fault-injection harness itself.

The resume-equivalence tests are the acceptance bar of the resilience
layer: a corpus run killed after *any* site boundary and resumed must
produce extraction and fused JSONL byte-identical to an uninterrupted
run, with hash-unchanged completed sites skipped, under both inline and
pooled execution.
"""

import io
import json
import re
import shutil
import threading
import time

import pytest

from repro import obs
from repro.core.config import CeresConfig
from repro.datasets import generate_swde, seed_kb_for
from repro.fusion import FactStore, write_fused_jsonl
from repro.kb.io import save_kb
from repro.runtime import run_corpus
from repro.runtime.resilience import (
    Deadline,
    JournalError,
    OverloadError,
    RunJournal,
    SiteTimeoutError,
    backoff_delay,
    classify_error,
    config_fingerprint,
    deadline,
    site_fingerprint,
)
from repro.testing.faults import (
    ENV_VAR,
    FaultError,
    FaultPlan,
    FaultSpec,
    OverloadFaultError,
    TransientFaultError,
    active,
    fault_point,
)

#: Backoff base small enough that retry sleeps don't slow the suite.
FAST = {"retry_backoff": 0.001}


@pytest.fixture(scope="module")
def corpus_on_disk(tmp_path_factory):
    """Three healthy synthetic sites plus the seed KB."""
    tmp = tmp_path_factory.mktemp("resilience-corpus")
    dataset = generate_swde("movie", n_sites=4, pages_per_site=14, seed=11)
    kb = seed_kb_for(dataset, 11)
    kb_path = tmp / "kb.json"
    save_kb(kb, kb_path)
    corpus_dir = tmp / "sites"
    corpus_dir.mkdir()
    site_names = []
    for site in dataset.sites[1:4]:
        site_dir = corpus_dir / site.name
        site_dir.mkdir()
        for index, page in enumerate(site.pages):
            (site_dir / f"page{index:03d}.html").write_text(page.html)
        site_names.append(site.name)
    return kb_path, corpus_dir, sorted(site_names)


# ---------------------------------------------------------------------------
# primitives


class TestClassifyError:
    @pytest.mark.parametrize(
        "exc",
        [
            TransientFaultError("x"),
            TimeoutError("x"),
            SiteTimeoutError("x"),
            ConnectionResetError("x"),
            InterruptedError("x"),
            OSError(28, "ENOSPC"),  # errno.ENOSPC
        ],
    )
    def test_transient(self, exc):
        assert classify_error(exc) == "transient"

    @pytest.mark.parametrize(
        "exc",
        [
            OverloadError("x"),
            OverloadFaultError("x"),
            OSError(11, "EAGAIN"),  # errno.EAGAIN — busy, not broken
            OSError(16, "EBUSY"),  # errno.EBUSY
        ],
    )
    def test_overload(self, exc):
        """Contention is its own category: retried later, but it never
        counts toward a circuit breaker and is never permanent."""
        assert classify_error(exc) == "overload"

    @pytest.mark.parametrize(
        "exc",
        [
            FaultError("x"),
            FileNotFoundError("x"),
            NotADirectoryError("x"),
            PermissionError("x"),
            OSError(2, "ENOENT"),
            ValueError("x"),
            RuntimeError("x"),
            KeyError("x"),
        ],
    )
    def test_permanent(self, exc):
        assert classify_error(exc) == "permanent"


class TestBackoff:
    def test_deterministic_per_key_and_attempt(self):
        assert backoff_delay(3, key="imdb") == backoff_delay(3, key="imdb")
        assert backoff_delay(3, key="imdb") != backoff_delay(3, key="other")
        assert backoff_delay(2, key="imdb") != backoff_delay(3, key="imdb")

    def test_window_bounds_and_cap(self):
        for attempt in range(1, 12):
            delay = backoff_delay(attempt, base=0.5, cap=30.0, key="s")
            window = min(30.0, 0.5 * 2 ** (attempt - 1))
            assert window / 2 <= delay <= window
        # Far past the cap the window stops growing.
        assert backoff_delay(50, base=0.5, cap=30.0, key="s") <= 30.0

    def test_attempt_counts_from_one(self):
        with pytest.raises(ValueError):
            backoff_delay(0)


class TestDeadline:
    def test_interrupts_blocking_sleep(self):
        start = time.monotonic()
        with pytest.raises(SiteTimeoutError):
            with deadline(0.1):
                time.sleep(10)
        assert time.monotonic() - start < 5

    def test_noop_when_unlimited(self):
        with deadline(None):
            pass
        with deadline(0):
            pass

    def test_soft_fallback_off_main_thread(self):
        """Signals aren't deliverable off the main thread; deadline
        degrades to the cooperative soft deadline there — the block is
        not preempted, but the overrun is still raised on exit."""
        outcome = {}

        def work():
            try:
                with deadline(0.05):
                    time.sleep(0.15)
                outcome["ok"] = True
            except SiteTimeoutError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert "error" in outcome  # overrun detected post-hoc, not lost

    def test_within_budget_off_main_thread(self):
        outcome = {}

        def work():
            with deadline(5.0):
                pass
            outcome["ok"] = True

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert outcome.get("ok") is True

    def test_timer_cleared_after_block(self):
        with deadline(0.2):
            pass
        time.sleep(0.3)  # would raise if the alarm survived the block


class TestSoftDeadline:
    """The cooperative :class:`Deadline`: checked, never preemptive."""

    def test_check_raises_after_expiry(self):
        handle = Deadline(0.02)
        handle.check()  # within budget: no-op
        time.sleep(0.05)
        assert handle.expired()
        with pytest.raises(SiteTimeoutError):
            handle.check()

    def test_unbounded_never_expires(self):
        for seconds in (None, 0, -1):
            handle = Deadline(seconds)
            assert handle.remaining() is None
            assert not handle.expired()
            handle.check()

    def test_remaining_counts_down_and_floors_at_zero(self):
        handle = Deadline(0.05)
        first = handle.remaining()
        assert 0 < first <= 0.05
        time.sleep(0.08)
        assert handle.remaining() == 0.0

    def test_wait_returns_false_on_deadline(self):
        never = threading.Event()
        handle = Deadline(0.05)
        start = time.monotonic()
        assert handle.wait(never) is False
        assert time.monotonic() - start < 2.0

    def test_wait_returns_true_when_event_fires(self):
        event = threading.Event()
        handle = Deadline(5.0)
        threading.Timer(0.02, event.set).start()
        assert handle.wait(event) is True


# ---------------------------------------------------------------------------
# the fault harness


class TestFaultPlan:
    def test_round_trips_through_env_json(self):
        plan = FaultPlan(
            [
                FaultSpec("site.run", action="raise-transient",
                          site="imdb", times=1, skip=2),
                FaultSpec("page.parse", action="hang",
                          page="p7.html", delay=1.5),
            ]
        )
        assert FaultPlan.from_json(plan.to_json()).specs == plan.specs

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec("x", action="explode")

    def test_times_and_skip_window(self):
        plan = FaultPlan([FaultSpec("p", times=2, skip=1)])
        with active(plan):
            fault_point("p")  # skipped
            with pytest.raises(FaultError):
                fault_point("p")
            with pytest.raises(FaultError):
                fault_point("p")
            fault_point("p")  # exhausted

    def test_site_and_page_filters(self):
        plan = FaultPlan([FaultSpec("p", site="a", page="x.html")])
        with active(plan):
            fault_point("p", site="b", page="x.html")
            fault_point("p", site="a", page="y.html")
            fault_point("other", site="a", page="x.html")
            with pytest.raises(FaultError):
                fault_point("p", site="a", page="x.html")

    def test_raise_overload_action(self):
        plan = FaultPlan([FaultSpec("p", action="raise-overload")])
        with active(plan):
            with pytest.raises(OverloadFaultError) as caught:
                fault_point("p")
        assert classify_error(caught.value) == "overload"
        # Still a FaultError, so generic fault handling catches it too.
        assert isinstance(caught.value, FaultError)

    def test_active_restores_environment(self, monkeypatch):
        import os

        monkeypatch.delenv(ENV_VAR, raising=False)
        with active(FaultPlan([FaultSpec("p")])):
            assert ENV_VAR in os.environ
        assert ENV_VAR not in os.environ
        fault_point("p")  # no plan: must be a no-op


# ---------------------------------------------------------------------------
# the journal


class TestRunJournal:
    HASH = "cafe" * 16

    def test_fresh_open_refuses_existing_journal(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.open(config_hash=self.HASH)
        with pytest.raises(JournalError, match="already exists"):
            RunJournal(tmp_path).open(config_hash=self.HASH)

    def test_resume_replays_last_state_per_site(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.open(config_hash=self.HASH)
            journal.record_site("a", "running", fingerprint="f1")
            journal.record_site("a", "done", fingerprint="f1")
            journal.record_site("b", "running", fingerprint="f2")
            journal.record_site("c\u2028d", "done", fingerprint="f3")
        states = RunJournal(tmp_path).open(config_hash=self.HASH, resume=True)
        assert states["a"]["state"] == "done"
        assert states["b"]["state"] == "running"
        assert states["c\u2028d"]["state"] == "done"  # one record, not two lines

    def test_resume_rejects_config_mismatch(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.open(config_hash=self.HASH)
        with pytest.raises(JournalError, match="different\\s+config"):
            RunJournal(tmp_path).open(config_hash="0" * 64, resume=True)

    def test_torn_trailing_line_is_discarded(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.open(config_hash=self.HASH)
            journal.record_site("a", "done", fingerprint="f")
        path = tmp_path / RunJournal.JOURNAL_NAME
        path.write_text(
            path.read_text() + '{"event": "site", "site": "b", "sta'
        )
        states = RunJournal(tmp_path).open(config_hash=self.HASH, resume=True)
        assert set(states) == {"a"}

    def test_torn_middle_line_is_corruption(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.open(config_hash=self.HASH)
            journal.record_site("a", "done", fingerprint="f")
        path = tmp_path / RunJournal.JOURNAL_NAME
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-5]  # tear a *non-final* record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt journal record"):
            RunJournal(tmp_path).open(config_hash=self.HASH, resume=True)

    def test_rows_round_trip_and_site_key_quoting(self, tmp_path):
        rows = [
            {"site": "a/b:c", "confidence": 0.123456789012345},
            {"site": "a/b:c", "object": "line\u2028separator, next\x85line"},
        ]
        with RunJournal(tmp_path) as journal:
            journal.open(config_hash=self.HASH)
            path = journal.write_rows("a/b:c", rows)
            assert path.parent == journal.rows_dir
            assert "/" not in path.name[: -len(".jsonl")].replace("%2F", "")
            assert journal.read_rows("a/b:c") == rows

    def test_failed_rows_write_leaves_no_temp_or_torn_file(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.open(config_hash=self.HASH)
            journal.write_rows("s", [{"n": 1}])
            before = journal.read_rows_text("s")
            plan = FaultPlan([FaultSpec("rows.write", action="corrupt-write")])
            with active(plan), pytest.raises(FaultError):
                journal.write_rows("s", [{"n": 2}])
            assert journal.read_rows_text("s") == before
            assert list(journal.rows_dir.glob("*.tmp*")) == []

    def test_fingerprints_track_content_and_config(self, tmp_path):
        page = tmp_path / "p.html"
        page.write_text("<html>1</html>")
        first = site_fingerprint([page])
        assert site_fingerprint([page]) == first
        page.write_text("<html>2</html>")
        assert site_fingerprint([page]) != first
        base = config_fingerprint({"a": 1}, 0.5)
        assert config_fingerprint({"a": 1}, 0.5) == base
        assert config_fingerprint({"a": 1}, 0.6) != base
        assert config_fingerprint({"a": 2}, 0.5) != base
        with_kb = config_fingerprint({"a": 1}, 0.5, kb_sha256="0" * 64)
        assert with_kb != base
        assert config_fingerprint({"a": 1}, 0.5, kb_sha256="1" * 64) != with_kb


# ---------------------------------------------------------------------------
# hardened workers (retries / quarantine / timeout), via run_corpus


def _run(corpus_dir, kb_path, *, plan=None, counters=None, **kwargs):
    """One inline corpus run, optionally under a fault plan, returning
    (reports, output-bytes, parent counters)."""
    output = io.StringIO()
    kwargs.setdefault("max_workers", 1)
    with obs.scoped(tracing=False, metrics=True) as (_, registry):
        if plan is not None:
            with active(plan):
                reports = run_corpus(
                    corpus_dir, kb_path, None, output=output, **kwargs
                )
        else:
            reports = run_corpus(
                corpus_dir, kb_path, None, output=output, **kwargs
            )
        snapshot = registry.snapshot()["counters"]
    if counters is not None:
        counters.update(snapshot)
    return reports, output.getvalue()


class TestRetriesAndQuarantine:
    def test_transient_failure_retried_then_succeeds(self, corpus_on_disk):
        kb_path, corpus_dir, site_names = corpus_on_disk
        victim = site_names[0]
        plan = FaultPlan(
            [FaultSpec("site.run", action="raise-transient",
                       site=victim, times=1)]
        )
        counters = {}
        reports, _ = _run(
            corpus_dir, kb_path, plan=plan, counters=counters,
            max_attempts=3, **FAST,
        )
        by_site = {r.site: r for r in reports}
        assert by_site[victim].ok
        assert by_site[victim].attempts == 2
        assert not by_site[victim].degraded
        assert counters["runner.retries"] == 1
        assert counters["runner.sites_ok"] == len(site_names)
        assert all(by_site[s].attempts == 1 for s in site_names[1:])

    def test_negative_retry_backoff_rejected_before_running(
        self, corpus_on_disk
    ):
        """A negative backoff is refused before any site runs, not left
        to fail inside the retry sleep at the first transient error."""
        kb_path, corpus_dir, site_names = corpus_on_disk
        plan = FaultPlan(
            [FaultSpec("site.extract", action="raise-transient",
                       site=site_names[0], times=1)]
        )
        with pytest.raises(ValueError, match="retry_backoff must be >= 0"):
            _run(
                corpus_dir, kb_path, plan=plan,
                max_attempts=3, retry_backoff=-1,
            )

    def test_permanent_failure_fails_fast_no_retry(self, corpus_on_disk):
        kb_path, corpus_dir, site_names = corpus_on_disk
        victim = site_names[0]
        plan = FaultPlan([FaultSpec("site.run", action="raise", site=victim)])
        counters = {}
        reports, _ = _run(
            corpus_dir, kb_path, plan=plan, counters=counters,
            max_attempts=3, **FAST,
        )
        by_site = {r.site: r for r in reports}
        assert not by_site[victim].ok
        assert by_site[victim].attempts == 1  # permanent: no retries
        assert "injected fault" in by_site[victim].error
        assert by_site[victim].traceback
        assert counters.get("runner.retries", 0) == 0
        assert counters["runner.sites_failed"] == 1
        # The healthy sites are untouched.
        assert counters["runner.sites_ok"] == len(site_names) - 1

    def test_poison_page_quarantined_not_fatal(self, corpus_on_disk, tmp_path):
        kb_path, corpus_dir, site_names = corpus_on_disk
        victim = site_names[0]
        plan = FaultPlan(
            [FaultSpec("page.parse", action="raise",
                       site=victim, page="page003.html")]
        )
        counters = {}
        run_dir = tmp_path / "run"
        with active(plan):
            output = io.StringIO()
            with obs.scoped(tracing=False, metrics=True) as (_, registry):
                reports = run_corpus(
                    corpus_dir, kb_path, None, max_workers=1,
                    output=output, run_dir=run_dir, max_attempts=2, **FAST,
                )
                counters = registry.snapshot()["counters"]
        by_site = {r.site: r for r in reports}
        victim_report = by_site[victim]
        assert victim_report.ok
        assert victim_report.degraded
        assert victim_report.n_quarantined_pages == 1
        assert victim_report.quarantined_pages == ["page003.html"]
        assert victim_report.n_pages == 13  # 14 on disk, one quarantined
        assert "quarantined=1p" in victim_report.summary()
        assert counters["runner.quarantined"] == 1
        # Zero sites lost, and the journal records the quarantine.
        assert all(r.ok for r in reports)
        states = {}
        for record in RunJournal(run_dir).replay():
            if record.get("event") == "site":
                states[record["site"]] = record
        assert states[victim]["state"] == "quarantined"
        assert states[victim]["report"]["n_quarantined_pages"] == 1
        healthy = [s for s in site_names if s != victim]
        assert all(states[s]["state"] == "done" for s in healthy)

    def test_hung_site_times_out_and_fails(self, corpus_on_disk):
        """A hang inside the pipeline exceeds the wall-clock budget in
        both full-batch and degraded mode — the site fails with a
        timeout instead of wedging the run."""
        kb_path, corpus_dir, site_names = corpus_on_disk
        victim = site_names[0]
        plan = FaultPlan(
            [FaultSpec("site.extract", action="hang", site=victim, delay=30)]
        )
        start = time.monotonic()
        reports, _ = _run(
            corpus_dir, kb_path, plan=plan,
            site_timeout=0.5, max_attempts=2, **FAST,
        )
        elapsed = time.monotonic() - start
        by_site = {r.site: r for r in reports}
        assert not by_site[victim].ok
        assert "SiteTimeoutError" in by_site[victim].error
        assert by_site[victim].attempts == 2  # timeouts are transient
        assert elapsed < 25  # never served the full 30s hang
        assert all(by_site[s].ok for s in site_names[1:])

    def test_hung_page_quarantined_under_page_deadline(self, corpus_on_disk):
        """Degraded mode gives each page its own budget: a page that
        hangs forever is quarantined and the site completes."""
        kb_path, corpus_dir, site_names = corpus_on_disk
        victim = site_names[0]
        plan = FaultPlan(
            [FaultSpec("page.parse", action="hang",
                       site=victim, page="page000.html", delay=30)]
        )
        reports, _ = _run(
            corpus_dir, kb_path, plan=plan,
            site_timeout=1.0, max_attempts=1, **FAST,
        )
        by_site = {r.site: r for r in reports}
        assert by_site[victim].ok
        assert by_site[victim].degraded
        assert by_site[victim].quarantined_pages == ["page000.html"]

    def test_acceptance_scenario_zero_sites_lost(self, corpus_on_disk):
        """ISSUE acceptance: one site fails transiently once, one other
        site has a poison page — the run completes with the failure
        retried, the page quarantined and reported, zero sites lost."""
        kb_path, corpus_dir, site_names = corpus_on_disk
        flaky, poisoned = site_names[0], site_names[1]
        plan = FaultPlan(
            [
                FaultSpec("site.run", action="raise-transient",
                          site=flaky, times=1),
                FaultSpec("page.parse", action="raise",
                          site=poisoned, page="page005.html"),
            ]
        )
        counters = {}
        reports, _ = _run(
            corpus_dir, kb_path, plan=plan, counters=counters,
            max_attempts=3, **FAST,
        )
        by_site = {r.site: r for r in reports}
        assert all(r.ok for r in reports), [r.error for r in reports]
        assert by_site[flaky].attempts == 2
        assert by_site[poisoned].degraded
        assert by_site[poisoned].quarantined_pages == ["page005.html"]
        assert counters["runner.retries"] == 1
        assert counters["runner.quarantined"] == 1
        assert counters["runner.sites_ok"] == len(site_names)

    def test_attempt_spans_traced(self, corpus_on_disk):
        kb_path, corpus_dir, site_names = corpus_on_disk
        victim = site_names[0]
        plan = FaultPlan(
            [FaultSpec("site.run", action="raise-transient",
                       site=victim, times=1)]
        )
        with obs.scoped(tracing=True, metrics=True) as (tracer, _):
            with active(plan):
                run_corpus(
                    corpus_dir, kb_path, None, max_workers=1,
                    max_attempts=2, **FAST,
                )
            attempts = [
                span for span in tracer.export()
                if span["name"] == "site.attempt"
            ]
        by_attr = [
            (span["attrs"]["site"], span["attrs"]["attempt"])
            for span in attempts
        ]
        assert by_attr.count((victim, 1)) == 1
        assert by_attr.count((victim, 2)) == 1
        for site in site_names[1:]:
            assert (site, 1) in by_attr

    def test_worker_crash_recorded_with_traceback_and_counter(
        self, corpus_on_disk, tmp_path
    ):
        """A worker dying without a Python traceback (os._exit) becomes
        a failed report with the parent-side traceback and counts into
        runner.sites_failed — the satellite fix."""
        import shutil

        kb_path, corpus_dir, site_names = corpus_on_disk
        # A one-site corpus: a dead worker breaks its whole pool, so
        # isolate the blast radius for the assertion.
        solo = tmp_path / "solo"
        solo.mkdir()
        victim = site_names[0]
        shutil.copytree(corpus_dir / victim, solo / victim)
        plan = FaultPlan([FaultSpec("site.run", action="exit", site=victim)])
        with obs.scoped(tracing=False, metrics=True) as (_, registry):
            with active(plan):
                reports = run_corpus(
                    solo, kb_path, None, max_workers=2, **FAST,
                )
            counters = registry.snapshot()["counters"]
        (report,) = reports
        assert not report.ok
        assert "worker crashed" in report.error
        assert report.traceback  # parent-side traceback, not None
        assert counters["runner.sites_failed"] == 1


# ---------------------------------------------------------------------------
# resume equivalence


def _journaled_run(corpus_dir, kb_path, run_dir, *, resume=False,
                   max_workers=1, plan=None):
    """One journaled run; returns (reports, output bytes, fused bytes)."""
    output, fused = io.StringIO(), io.StringIO()
    with FactStore(use_reliability=True) as store:
        kwargs = dict(
            config=CeresConfig(), max_workers=max_workers, output=output,
            fuse=store, run_dir=run_dir, resume=resume, retry_backoff=0.001,
        )
        if plan is not None:
            with active(plan):
                reports = run_corpus(corpus_dir, kb_path, None, **kwargs)
        else:
            reports = run_corpus(corpus_dir, kb_path, None, **kwargs)
        write_fused_jsonl(store.finalize(), fused)
    return reports, output.getvalue(), fused.getvalue()


class TestResumeEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self, corpus_on_disk, tmp_path_factory):
        kb_path, corpus_dir, site_names = corpus_on_disk
        run_dir = tmp_path_factory.mktemp("baseline-run")
        reports, out, fused = _journaled_run(corpus_dir, kb_path, run_dir)
        assert all(r.ok for r in reports)
        assert out and fused
        return out, fused

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_kill_after_each_site_boundary_resumes_byte_identical(
        self, corpus_on_disk, tmp_path, baseline, max_workers
    ):
        """The property: for every site boundary k, a run killed right
        after committing its k-th site and resumed produces extraction
        and fused JSONL byte-identical to the uninterrupted run."""
        kb_path, corpus_dir, site_names = corpus_on_disk
        base_out, base_fused = baseline
        for k in range(1, len(site_names) + 1):
            run_dir = tmp_path / f"run-w{max_workers}-k{k}"
            kill_plan = FaultPlan(
                [FaultSpec("runner.site_committed", action="raise",
                           skip=k - 1, times=1)]
            )
            with pytest.raises(FaultError):
                _journaled_run(
                    corpus_dir, kb_path, run_dir,
                    max_workers=max_workers, plan=kill_plan,
                )
            reports, out, fused = _journaled_run(
                corpus_dir, kb_path, run_dir,
                resume=True, max_workers=max_workers,
            )
            assert out == base_out, f"extraction diverged (k={k})"
            assert fused == base_fused, f"fused output diverged (k={k})"
            resumed = [r for r in reports if r.resumed]
            assert len(resumed) == k, f"expected {k} sites skipped"
            assert all(r.ok for r in reports)

    def test_resume_of_completed_run_skips_everything(
        self, corpus_on_disk, tmp_path, baseline
    ):
        kb_path, corpus_dir, site_names = corpus_on_disk
        base_out, base_fused = baseline
        run_dir = tmp_path / "run"
        _journaled_run(corpus_dir, kb_path, run_dir)
        reports, out, fused = _journaled_run(
            corpus_dir, kb_path, run_dir, resume=True
        )
        assert all(r.resumed for r in reports)
        assert out == base_out
        assert fused == base_fused
        assert all("resumed" in r.summary() for r in reports)

    def test_changed_page_invalidates_only_that_site(
        self, corpus_on_disk, tmp_path
    ):
        kb_path, corpus_dir, site_names = corpus_on_disk
        # Work on a private copy: this test mutates a page.
        import shutil

        private = tmp_path / "corpus"
        shutil.copytree(corpus_dir, private)
        run_dir = tmp_path / "run"
        _journaled_run(private, kb_path, run_dir)
        victim = site_names[0]
        page = private / victim / "page000.html"
        page.write_text(page.read_text() + "<!-- refreshed crawl -->")
        reports, _, _ = _journaled_run(
            private, kb_path, run_dir, resume=True
        )
        by_site = {r.site: r for r in reports}
        assert not by_site[victim].resumed  # fingerprint changed: re-run
        assert by_site[victim].ok
        for other in site_names[1:]:
            assert by_site[other].resumed

    def test_fresh_run_refuses_existing_run_dir(
        self, corpus_on_disk, tmp_path
    ):
        kb_path, corpus_dir, _ = corpus_on_disk
        run_dir = tmp_path / "run"
        _journaled_run(corpus_dir, kb_path, run_dir)
        with pytest.raises(JournalError, match="already exists"):
            _journaled_run(corpus_dir, kb_path, run_dir)

    def test_resume_with_different_config_refused(
        self, corpus_on_disk, tmp_path
    ):
        kb_path, corpus_dir, _ = corpus_on_disk
        run_dir = tmp_path / "run"
        _journaled_run(corpus_dir, kb_path, run_dir)
        with pytest.raises(JournalError, match="different\\s+config"):
            run_corpus(
                corpus_dir, kb_path, None, max_workers=1,
                config=CeresConfig(), threshold=0.9,
                run_dir=run_dir, resume=True,
            )

    def test_resume_with_edited_kb_refused(self, corpus_on_disk, tmp_path):
        """Rows extracted under the old seed KB must never be replayed
        into a run under a new one."""
        import shutil

        kb_path, corpus_dir, _ = corpus_on_disk
        private_kb = tmp_path / "kb.json"
        shutil.copyfile(kb_path, private_kb)
        run_dir = tmp_path / "run"
        _journaled_run(corpus_dir, private_kb, run_dir)
        data = json.loads(private_kb.read_text(encoding="utf-8"))
        data["triples"] = data["triples"][:-1]
        private_kb.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(JournalError, match="different\\s+config"):
            _journaled_run(corpus_dir, private_kb, run_dir, resume=True)

    def test_resume_requires_run_dir(self, corpus_on_disk):
        kb_path, corpus_dir, _ = corpus_on_disk
        with pytest.raises(ValueError, match="requires run_dir"):
            run_corpus(corpus_dir, kb_path, None, resume=True)


# ---------------------------------------------------------------------------
# CLI


def _insert_line(index: int, line: bytes):
    def damage(lines):
        lines.insert(index, line)
        return index + 1

    return damage


def _replace_report(new_report):
    def damage(lines):
        index = next(i for i, line in enumerate(lines) if b'"report"' in line)
        record = json.loads(lines[index])
        record["report"] = new_report(record["report"])
        lines[index] = json.dumps(record).encode()
        return index + 1

    return damage


def _header_as_list(lines):
    lines[0] = b'["run"]'
    return 1


#: Damages to a finished run's journal (a list of byte lines), each
#: returning the 1-based line it damaged.
JOURNAL_DAMAGES = {
    "site-record-without-site": _insert_line(1, b'{"event": "site"}'),
    "header-is-a-list": _header_as_list,
    "report-not-an-object": _replace_report(lambda report: [report]),
    "report-unknown-key": _replace_report(lambda report: {**report, "bogus": 1}),
    "invalid-utf8": _insert_line(1, b'{"event": "note", "text": "\xff"}'),
}


class TestResilienceCLI:
    @pytest.fixture(scope="class")
    def finished_run(self, corpus_on_disk, tmp_path_factory):
        from repro.__main__ import main

        kb_path, corpus_dir, _ = corpus_on_disk
        root = tmp_path_factory.mktemp("finished-run")
        assert main([
            "run-corpus", "--kb", str(kb_path), "--corpus", str(corpus_dir),
            "--registry", str(root / "models"),
            "--output", str(root / "triples.jsonl"),
            "--workers", "1", "--run-dir", str(root / "run"),
        ]) == 0
        return root / "run"

    @pytest.mark.parametrize(
        "damage", list(JOURNAL_DAMAGES), ids=list(JOURNAL_DAMAGES)
    )
    def test_damaged_journal_record_named(
        self, corpus_on_disk, finished_run, tmp_path, damage
    ):
        """--resume on a damaged journal is a usage error naming the
        record's path:line, not a traceback or a bare codec message."""
        from repro.__main__ import main

        kb_path, corpus_dir, _ = corpus_on_disk
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        journal = run_dir / RunJournal.JOURNAL_NAME
        lines = journal.read_bytes().splitlines()
        line = JOURNAL_DAMAGES[damage](lines)
        journal.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(SystemExit, match=re.escape(f"{journal}:{line}: ")):
            main([
                "run-corpus", "--kb", str(kb_path), "--corpus", str(corpus_dir),
                "--registry", str(tmp_path / "models"),
                "--output", str(tmp_path / "triples.jsonl"),
                "--workers", "1", "--run-dir", str(run_dir), "--resume",
            ])

    def test_resume_flag_requires_run_dir(self, corpus_on_disk, tmp_path):
        from repro.__main__ import main

        kb_path, corpus_dir, _ = corpus_on_disk
        with pytest.raises(SystemExit, match="--resume requires --run-dir"):
            main([
                "run-corpus", "--kb", str(kb_path),
                "--corpus", str(corpus_dir),
                "--registry", str(tmp_path / "models"), "--resume",
            ])

    def test_max_attempts_validated(self, corpus_on_disk, tmp_path):
        from repro.__main__ import main

        kb_path, corpus_dir, _ = corpus_on_disk
        with pytest.raises(SystemExit, match="--max-attempts"):
            main([
                "run-corpus", "--kb", str(kb_path),
                "--corpus", str(corpus_dir),
                "--registry", str(tmp_path / "models"),
                "--max-attempts", "0",
            ])
        with pytest.raises(SystemExit, match="--site-timeout"):
            main([
                "run-corpus", "--kb", str(kb_path),
                "--corpus", str(corpus_dir),
                "--registry", str(tmp_path / "models"),
                "--site-timeout", "0",
            ])
        with pytest.raises(SystemExit, match="--retry-backoff"):
            main([
                "run-corpus", "--kb", str(kb_path),
                "--corpus", str(corpus_dir),
                "--registry", str(tmp_path / "models"),
                "--retry-backoff", "-1",
            ])

    def test_run_dir_then_resume_round_trip(
        self, corpus_on_disk, tmp_path, capsys
    ):
        from repro.__main__ import main

        kb_path, corpus_dir, site_names = corpus_on_disk
        out = tmp_path / "triples.jsonl"
        args = [
            "run-corpus", "--kb", str(kb_path), "--corpus", str(corpus_dir),
            "--registry", str(tmp_path / "models"), "--output", str(out),
            "--workers", "1", "--run-dir", str(tmp_path / "run"),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert first
        assert main(args + ["--resume"]) == 0
        assert out.read_bytes() == first
        stderr = capsys.readouterr().err
        assert f"{len(site_names)} resumed unchanged" in stderr
