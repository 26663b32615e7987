"""Corpus discovery and the parallel runner's failure isolation."""

import gc
import io
import json
import shutil

import pytest

from repro.core.config import CeresConfig
from repro.kb.io import save_kb
from repro.datasets import generate_swde, seed_kb_for
from repro.fusion import FactStore, write_fused_jsonl
from repro.kb import io as kb_io
from repro.runtime import (
    ModelRegistry,
    SiteSpec,
    discover_corpus,
    load_site_documents,
    run_corpus,
)
from repro.runtime import runner


@pytest.fixture(scope="module")
def corpus_on_disk(tmp_path_factory):
    """Three healthy synthetic sites + one broken one, plus KB and manifest."""
    tmp = tmp_path_factory.mktemp("corpus")
    dataset = generate_swde("movie", n_sites=4, pages_per_site=14, seed=6)
    kb = seed_kb_for(dataset, 6)
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

    # Injected failure: a listed site whose pages directory has no HTML.
    broken_dir = tmp / "broken"
    broken_dir.mkdir()
    (broken_dir / "README.txt").write_text("not a website")

    manifest = tmp / "manifest.jsonl"
    lines = [
        json.dumps({"site": name, "pages": str(corpus_dir / name)})
        for name in site_names
    ]
    lines.append(json.dumps({"site": "broken", "pages": str(broken_dir)}))
    manifest.write_text("\n".join(lines) + "\n")
    return tmp, kb_path, corpus_dir, manifest, sorted(site_names)


class TestDiscovery:
    def test_directory_of_directories(self, corpus_on_disk):
        _, _, corpus_dir, _, site_names = corpus_on_disk
        specs = discover_corpus(corpus_dir)
        assert [spec.site for spec in specs] == site_names
        for spec in specs:
            assert load_site_documents(spec.pages_dir)

    def test_directory_skips_non_site_children(self, corpus_on_disk, tmp_path):
        _, _, corpus_dir, _, site_names = corpus_on_disk
        specs = discover_corpus(corpus_dir)
        assert all(spec.site in site_names for spec in specs)

    def test_manifest(self, corpus_on_disk):
        _, _, _, manifest, site_names = corpus_on_disk
        specs = discover_corpus(manifest)
        assert [spec.site for spec in specs] == sorted(site_names + ["broken"])

    def test_manifest_relative_paths(self, tmp_path):
        (tmp_path / "pages").mkdir()
        (tmp_path / "pages" / "a.html").write_text("<html></html>")
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"site": "s", "pages": "pages"}) + "\n")
        (spec,) = discover_corpus(manifest)
        assert spec == SiteSpec("s", str(tmp_path / "pages"))

    def test_bad_manifest_line(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"site": "x"}\n')
        with pytest.raises(ValueError, match="bad manifest line"):
            discover_corpus(manifest)

    def test_duplicate_site_rejected(self, tmp_path):
        """Duplicate names race last-writer-wins on one registry artifact
        and interleave output rows under a single site label — reject."""
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "\n".join(
                [
                    json.dumps({"site": "imdb", "pages": "a"}),
                    json.dumps({"site": "other", "pages": "b"}),
                    "# comment lines do not shift the reported line numbers",
                    json.dumps({"site": "imdb", "pages": "c"}),
                ]
            )
            + "\n"
        )
        with pytest.raises(ValueError, match=r"m\.jsonl:4: duplicate site 'imdb'"):
            discover_corpus(manifest)
        with pytest.raises(ValueError, match="first defined on line 1"):
            discover_corpus(manifest)

    def test_duplicate_detection_is_exact_not_normalized(self, tmp_path):
        # Distinct names that differ only in case are two different sites.
        manifest = tmp_path / "m.jsonl"
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        manifest.write_text(
            json.dumps({"site": "IMDb", "pages": "a"})
            + "\n"
            + json.dumps({"site": "imdb", "pages": "b"})
            + "\n"
        )
        specs = discover_corpus(manifest)
        assert [spec.site for spec in specs] == ["IMDb", "imdb"]

    def test_manifest_missing_pages_dir_rejected(self, tmp_path):
        """A manifest entry whose pages directory doesn't exist is a
        discovery-time error naming the manifest line — not a confusing
        worker-side FileNotFoundError minutes into the run."""
        (tmp_path / "real").mkdir()
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps({"site": "good", "pages": "real"})
            + "\n"
            + json.dumps({"site": "ghost", "pages": "missing"})
            + "\n"
        )
        with pytest.raises(
            ValueError,
            match=r"m\.jsonl:2: pages directory does not exist for site 'ghost'",
        ):
            discover_corpus(manifest)

    def test_missing_corpus(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_corpus(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no site subdirectories"):
            discover_corpus(tmp_path)

    def test_htm_and_uppercase_suffixes_accepted(self, tmp_path):
        """Crawls mix .html/.htm and uppercase suffixes; none may be
        silently dropped, and sort order stays name-stable."""
        site_dir = tmp_path / "mixed"
        site_dir.mkdir()
        for name in ("b.htm", "a.HTML", "c.html", "d.HTM"):
            (site_dir / name).write_text("<html><body>x</body></html>")
        (site_dir / "notes.txt").write_text("not a page")
        (site_dir / "sub.html").mkdir()  # a directory is never a page

        (spec,) = discover_corpus(tmp_path)
        assert spec.site == "mixed"
        documents = load_site_documents(site_dir)
        assert [d.url for d in documents] == ["a.HTML", "b.htm", "c.html", "d.HTM"]

    def test_htm_only_site_discovered(self, tmp_path):
        site_dir = tmp_path / "legacy"
        site_dir.mkdir()
        (site_dir / "index.htm").write_text("<html><body>x</body></html>")
        specs = discover_corpus(tmp_path)
        assert [spec.site for spec in specs] == ["legacy"]


class TestRunCorpus:
    def test_inline_with_failure_isolation(self, corpus_on_disk, tmp_path):
        _, kb_path, _, manifest, site_names = corpus_on_disk
        registry_root = tmp_path / "models"
        output = io.StringIO()
        progress = []
        reports = run_corpus(
            manifest,
            kb_path,
            registry_root,
            config=CeresConfig(),
            max_workers=1,
            output=output,
            log=progress.append,
        )
        assert len(reports) == len(site_names) + 1
        by_site = {report.site: report for report in reports}
        assert not by_site["broken"].ok
        assert "no .html/.htm files" in by_site["broken"].error
        assert by_site["broken"].traceback
        for name in site_names:
            assert by_site[name].ok, by_site[name].error
            assert by_site[name].n_extractions > 0

        # Per-site artifacts landed in the registry — but none for the
        # broken site.
        registry = ModelRegistry(registry_root)
        assert registry.sites() == site_names
        # Output rows are tagged with their site.
        rows = [json.loads(line) for line in output.getvalue().splitlines()]
        assert rows
        assert {row["site"] for row in rows} == set(site_names)
        assert sum(1 for _ in rows) == sum(r.n_extractions for r in reports)
        assert len(progress) == len(reports)
        assert any("FAILED" in line for line in progress)

    def test_process_pool_matches_inline(self, corpus_on_disk, tmp_path):
        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        inline_out, pooled_out = io.StringIO(), io.StringIO()
        inline = run_corpus(
            corpus_dir, kb_path, tmp_path / "inline",
            max_workers=1, output=inline_out,
        )
        pooled = run_corpus(
            corpus_dir, kb_path, tmp_path / "pooled",
            max_workers=2, output=pooled_out,
        )
        assert all(report.ok for report in inline)
        assert all(report.ok for report in pooled)

        def rows_sorted(buffer):
            return sorted(buffer.getvalue().splitlines())

        assert rows_sorted(inline_out) == rows_sorted(pooled_out)
        assert ModelRegistry(tmp_path / "pooled").sites() == site_names

    def test_no_registry_root(self, corpus_on_disk, tmp_path):
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        reports = run_corpus(corpus_dir, kb_path, None, max_workers=1)
        assert all(report.ok for report in reports)
        assert all(report.artifact_path is None for report in reports)

    def test_artifacts_serve_after_run(self, corpus_on_disk, tmp_path):
        """Registry artifacts written by the runner are directly servable."""
        from repro.runtime import ExtractionService

        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        registry_root = tmp_path / "models"
        output = io.StringIO()
        reports = run_corpus(
            corpus_dir, kb_path, registry_root, max_workers=1, output=output
        )
        service = ExtractionService(registry_root)
        site = site_names[0]
        documents = load_site_documents(corpus_dir / site)
        served = service.extract_pages(site, documents)
        runner_rows = [
            json.loads(line)
            for line in output.getvalue().splitlines()
            if json.loads(line)["site"] == site
        ]
        assert len(served) == len(runner_rows)
        report = next(r for r in reports if r.site == site)
        assert report.n_extractions == len(served)

    def test_inline_run_frees_its_trees_by_refcount(self, corpus_on_disk):
        """Each site attempt releases the pages it parsed, so with the
        collector off an inline run leaves no DOM node alive, and no
        collection runs (the per-site ``gc.collect()`` is gone)."""
        from repro.dom.node import ElementNode, TextNode

        def live_dom_nodes():
            return sum(
                1 for obj in gc.get_objects()
                if isinstance(obj, (ElementNode, TextNode))
            )

        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        collected = []

        def watch(phase, info):
            if phase == "stop":
                collected.append(info["collected"])

        gc.collect()
        before = live_dom_nodes()
        gc.callbacks.append(watch)
        gc.disable()
        try:
            reports = run_corpus(
                corpus_dir, kb_path, None, max_workers=1, output=io.StringIO()
            )
            after = live_dom_nodes()
        finally:
            gc.enable()
            gc.callbacks.remove(watch)
        assert [report.site for report in reports] == site_names
        assert all(report.ok and report.n_pages for report in reports)
        assert after == before
        assert collected == []


def _rows_by_site(corpus_dir, kb_path, **kwargs) -> dict[str, list[str]]:
    """One inline run's output rows, grouped by site."""
    output = io.StringIO()
    run_corpus(corpus_dir, kb_path, None, max_workers=1, output=output, **kwargs)
    rows: dict[str, list[str]] = {}
    for line in output.getvalue().splitlines():
        rows.setdefault(json.loads(line)["site"], []).append(line)
    return rows


class TestSeedKBMemo:
    """A process parses the seed KB once for all its sites, re-reads it
    when the file's content changes, and keeps nothing past the run."""

    @pytest.fixture
    def kb_parses(self, monkeypatch):
        calls = []
        parse = kb_io.kb_from_dict

        def counting(data):
            calls.append(1)
            return parse(data)

        monkeypatch.setattr(kb_io, "kb_from_dict", counting)
        return calls

    @pytest.fixture(scope="class")
    def kbs(self, corpus_on_disk, tmp_path_factory):
        """The seed KB, a thinned copy (every other fact dropped), and the
        rows an inline run gives under each."""
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        data = json.loads(kb_path.read_text(encoding="utf-8"))
        data["triples"] = data["triples"][::2]
        thinned = tmp_path_factory.mktemp("thinned-kb") / "kb.json"
        thinned.write_text(json.dumps(data), encoding="utf-8")
        full_rows = _rows_by_site(corpus_dir, kb_path)
        thinned_rows = _rows_by_site(corpus_dir, thinned)
        assert full_rows != thinned_rows  # the two KBs are told apart
        return kb_path, thinned, full_rows, thinned_rows

    def test_inline_run_parses_the_kb_once(self, corpus_on_disk, kb_parses):
        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        reports = run_corpus(corpus_dir, kb_path, None, max_workers=1)
        assert len(reports) == len(site_names) > 1
        assert all(report.ok for report in reports)
        assert len(kb_parses) == 1
        # Nothing outlives the run: not the KB, not the gc freeze.
        assert runner._kb_memo is None
        assert gc.get_freeze_count() == 0

    def test_kb_rewritten_between_runs_is_reread(
        self, corpus_on_disk, kbs, tmp_path
    ):
        _, _, corpus_dir, _, _ = corpus_on_disk
        full, thinned, full_rows, thinned_rows = kbs
        path = tmp_path / "kb.json"
        shutil.copyfile(full, path)
        assert _rows_by_site(corpus_dir, path) == full_rows
        shutil.copyfile(thinned, path)
        assert _rows_by_site(corpus_dir, path) == thinned_rows

    def test_kb_rewritten_mid_run_is_reread(
        self, corpus_on_disk, kbs, tmp_path, kb_parses
    ):
        """The memo is keyed by content, not by path: sites that start
        after the file changed see the new KB."""
        _, _, corpus_dir, _, site_names = corpus_on_disk
        full, thinned, full_rows, thinned_rows = kbs
        path = tmp_path / "kb.json"
        shutil.copyfile(full, path)
        rows = _rows_by_site(
            corpus_dir, path,
            # Inline sites run in name order; the log line follows each.
            log=lambda line: shutil.copyfile(thinned, path),
        )
        first, *rest = site_names
        assert rows[first] == full_rows[first]
        assert {site: rows[site] for site in rest} == {
            site: thinned_rows[site] for site in rest
        }
        assert len(kb_parses) == 2


def _fused_run(corpus_dir, kb_path, **kwargs) -> tuple[list, str]:
    """A run fused into a reliability-weighted store, as ``run-corpus
    --fuse-output`` does; returns (reports, fused JSONL)."""
    fused_out = io.StringIO()
    with FactStore(use_reliability=True) as store:
        reports = run_corpus(corpus_dir, kb_path, None, fuse=store, **kwargs)
        write_fused_jsonl(store.finalize(), fused_out)
    return reports, fused_out.getvalue()


class TestRunCorpusFusion:
    def test_fuse_stream_writes_fused_rows(self, corpus_on_disk, tmp_path):
        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        reports, fused = _fused_run(corpus_dir, kb_path, max_workers=1)
        assert all(report.ok for report in reports)
        rows = [json.loads(line) for line in fused.splitlines()]
        assert rows
        assert set(rows[0]) == {
            "subject", "predicate", "object", "score", "n_sites", "sites",
        }
        for row in rows:
            assert 0.0 <= row["score"] <= 1.0
            assert set(row["sites"]) <= set(site_names)
            assert list(row["sites"]) == sorted(row["sites"])
        # Scores are descending (ties broken by key — total order).
        scores = [row["score"] for row in rows]
        assert scores == sorted(scores, reverse=True)

    def test_fused_output_independent_of_completion_order(
        self, corpus_on_disk, tmp_path
    ):
        """The acceptance bar: inline and pooled runs fuse to
        byte-identical JSONL despite different completion orders."""
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        _, inline_fused = _fused_run(corpus_dir, kb_path, max_workers=1)
        _, pooled_fused = _fused_run(corpus_dir, kb_path, max_workers=2)
        assert inline_fused == pooled_fused
        assert inline_fused.strip()

    def test_factstore_fuse_receives_reliability(self, corpus_on_disk):
        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        store = FactStore(use_reliability=True)
        reports = run_corpus(
            corpus_dir, kb_path, None, max_workers=1, fuse=store
        )
        assert set(store.site_reliability) == set(site_names)
        assert all(0.0 < w < 1.0 for w in store.site_reliability.values())
        by_site = {r.site: r for r in reports}
        for name in site_names:
            assert by_site[name].kb_checked >= by_site[name].kb_agreed >= 0
        facts = store.finalize()
        assert facts

    def test_jsonl_roundtrip_equals_in_memory_fusion(self, corpus_on_disk):
        """Full-precision confidence in rows: fusing the JSONL stream is
        byte-identical to fusing the same rows fed directly to a store."""
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        rows_out, fused_direct = io.StringIO(), io.StringIO()
        store = FactStore()
        run_corpus(
            corpus_dir, kb_path, None, max_workers=1,
            output=rows_out, fuse=store,
        )
        write_fused_jsonl(store.finalize(), fused_direct)

        replayed = FactStore()
        for line in rows_out.getvalue().splitlines():
            replayed.add_row(json.loads(line))
        fused_replayed = io.StringIO()
        write_fused_jsonl(replayed.finalize(), fused_replayed)
        assert fused_direct.getvalue() == fused_replayed.getvalue()
        assert fused_direct.getvalue().strip()

    def test_rows_carry_full_precision_confidence(self, corpus_on_disk):
        """Row confidences must round-trip exactly (no 4-decimal rounding)."""
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        output = io.StringIO()
        run_corpus(corpus_dir, kb_path, None, max_workers=1, output=output)
        confidences = [
            json.loads(line)["confidence"]
            for line in output.getvalue().splitlines()
        ]
        assert confidences
        # A model-probability output rounded to 4 decimals is astronomically
        # unlikely to equal its own rounding everywhere; at least one row
        # must carry more precision.
        assert any(c != round(c, 4) for c in confidences)


class TestSiteReportSkips:
    def test_summary_includes_skipped_counts(self):
        from repro.runtime import SiteReport

        report = SiteReport(
            site="s", ok=True, n_pages=10, n_clusters=1, n_extractions=5,
            n_skipped_clusters=2, n_skipped_pages=3,
        )
        assert "skipped=3p/2c" in report.summary()

    def test_summary_omits_skips_when_none(self):
        from repro.runtime import SiteReport

        report = SiteReport(site="s", ok=True, n_pages=10)
        assert "skipped" not in report.summary()

    def test_run_site_records_skips(self, corpus_on_disk, tmp_path):
        """An undersized site flows its dropped pages into the report."""
        from repro.runtime.runner import _run_site
        from repro.runtime.serialize import config_to_dict

        tmp, kb_path, corpus_dir, _, site_names = corpus_on_disk
        site = site_names[0]
        small = tmp_path / "small"
        small.mkdir()
        pages = sorted((corpus_dir / site).glob("*.html"))[:2]
        for page in pages:
            (small / page.name).write_text(page.read_text())
        payload = _run_site(
            site, str(small), str(kb_path), None,
            config_to_dict(CeresConfig()), None,
        )
        report = payload["report"]
        assert report["n_skipped_pages"] == 2
        assert report["n_skipped_clusters"] >= 1


class TestRunnerObservability:
    """Worker telemetry rides home in the report and merges in the parent."""

    def test_report_always_carries_metrics_snapshot(
        self, corpus_on_disk, tmp_path
    ):
        from repro.runtime.runner import _run_site
        from repro.runtime.serialize import config_to_dict

        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        payload = _run_site(
            site_names[0], str(corpus_dir / site_names[0]), str(kb_path),
            None, config_to_dict(CeresConfig()), None,
        )
        report = payload["report"]
        counters = report["metrics"]["counters"]
        assert counters["runner.sites_ok"] == 1
        assert counters["pipeline.pages"] == report["n_pages"]
        assert counters["service.extractions"] == report["n_extractions"]
        # The satellite fix: per-site cache counters no longer die with
        # the worker.
        assert "cache.page_match.hits" in counters
        assert "cache.page_match.misses" in counters
        histograms = report["metrics"]["histograms"]
        for name in (
            "runner.site_seconds", "stage.annotate_seconds",
            "stage.train_seconds", "stage.extract_seconds",
        ):
            assert histograms[name]["count"] >= 1, name
        # No tracing requested: no spans shipped (they are bulky).
        assert report["spans"] is None
        assert report["seconds"] > 0

    def test_failed_site_reports_metrics_too(self, corpus_on_disk, tmp_path):
        from repro.runtime.runner import _run_site
        from repro.runtime.serialize import config_to_dict

        _, kb_path, _, _, _ = corpus_on_disk
        empty = tmp_path / "empty"
        empty.mkdir()
        payload = _run_site(
            "empty", str(empty), str(kb_path), None,
            config_to_dict(CeresConfig()), None,
        )
        report = payload["report"]
        assert not report["ok"]
        assert report["metrics"]["counters"]["runner.sites_failed"] == 1

    def test_trace_flag_ships_spans(self, corpus_on_disk):
        from repro.runtime.runner import _run_site
        from repro.runtime.serialize import config_to_dict

        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        payload = _run_site(
            site_names[0], str(corpus_dir / site_names[0]), str(kb_path),
            None, config_to_dict(CeresConfig()), None, trace=True,
        )
        spans = payload["report"]["spans"]
        names = {span["name"] for span in spans}
        assert {
            "site.run", "stage.cluster", "stage.annotate",
            "stage.train", "stage.extract",
        } <= names
        # site.run is the root of the worker's tree.
        root = next(s for s in spans if s["name"] == "site.run")
        assert root["parent_id"] is None
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_parent_merges_worker_telemetry(
        self, corpus_on_disk, tmp_path, max_workers
    ):
        from repro import obs

        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        with obs.scoped(tracing=True, metrics=True) as (tracer, registry):
            # The store captures its instruments at construction, so it
            # is built inside the scope.
            reports, _ = _fused_run(
                corpus_dir, kb_path, max_workers=max_workers
            )
            counters = registry.snapshot()["counters"]
            histograms = registry.snapshot()["histograms"]
            span_names = {span["name"] for span in tracer.export()}
        assert all(report.ok for report in reports)
        assert counters["runner.sites_ok"] == len(site_names)
        assert counters["pipeline.pages"] == sum(r.n_pages for r in reports)
        assert counters["fusion.rows"] == sum(
            r.n_extractions for r in reports
        )
        assert "cache.page_match.misses" in counters
        # One site.seconds sample per site, merged across workers.
        assert histograms["runner.site_seconds"]["count"] == len(site_names)
        # Worker spans absorbed, parent-side fuse stage traced.
        assert {
            "site.run", "stage.cluster", "stage.annotate", "stage.train",
            "stage.extract", "stage.fuse",
        } <= span_names


def _global_bytes(registry_root) -> bytes:
    return (registry_root / "_global" / "model.json").read_bytes()


def _rerun_one_site(corpus_on_disk, tmp_path):
    """A journaled run over a copy of the corpus, then one page of the
    first site deleted: resuming re-runs that site and replays the rest.
    Returns (corpus_dir, run_dir, the replayed sites)."""
    _, kb_path, source, _, site_names = corpus_on_disk
    corpus_dir = tmp_path / "sites"
    shutil.copytree(source, corpus_dir)
    run_dir = tmp_path / "run"
    run_corpus(corpus_dir, kb_path, None, max_workers=1, run_dir=run_dir)
    changed, *replayed = site_names
    min((corpus_dir / changed).glob("*.html")).unlink()
    return corpus_dir, run_dir, replayed


class TestRunCorpusGlobalModel:
    """``train_global=True`` pools the samples the workers built while
    training their sites; the parent annotates only the sites no worker
    featurized.  Either way the global artifact is byte-identical to
    what ``train_global_from_corpus`` writes for the same corpus."""

    @pytest.fixture(scope="class")
    def reference(self, corpus_on_disk, tmp_path_factory):
        from repro.transfer import train_global_from_corpus

        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        root = tmp_path_factory.mktemp("train-global")
        train_global_from_corpus(
            corpus_dir, kb_io.load_kb(kb_path), registry_root=root
        )
        return _global_bytes(root)

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_matches_train_global_from_corpus(
        self, corpus_on_disk, reference, tmp_path, max_workers
    ):
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        reports = run_corpus(
            corpus_dir, kb_path, tmp_path / "models",
            max_workers=max_workers, train_global=True,
        )
        assert all(report.ok for report in reports)
        assert _global_bytes(tmp_path / "models") == reference

    def test_resumed_and_rerun_sites_pool_identically(
        self, corpus_on_disk, tmp_path
    ):
        """Replayed sites are annotated in the parent, the site whose
        pages changed is featurized by its worker: one pool, and the
        bytes ``train_global_from_corpus`` writes for the changed corpus."""
        from repro.transfer import train_global_from_corpus

        kb_path = corpus_on_disk[1]
        corpus_dir, run_dir, replayed = _rerun_one_site(corpus_on_disk, tmp_path)
        reports = run_corpus(
            corpus_dir, kb_path, tmp_path / "models", max_workers=2,
            run_dir=run_dir, resume=True, train_global=True,
        )
        assert sorted(r.site for r in reports if r.resumed) == replayed
        train_global_from_corpus(
            corpus_dir, kb_io.load_kb(kb_path), registry_root=tmp_path / "tg"
        )
        assert _global_bytes(tmp_path / "models") == _global_bytes(
            tmp_path / "tg"
        )

    def test_each_page_annotated_once(self, corpus_on_disk, tmp_path):
        from repro import obs

        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        with obs.scoped(tracing=True, metrics=True) as (tracer, registry):
            reports = run_corpus(
                corpus_dir, kb_path, tmp_path / "models",
                max_workers=2, train_global=True,
            )
            counters = registry.snapshot()["counters"]
            spans = tracer.export()
        assert counters["pipeline.pages"] == sum(r.n_pages for r in reports)
        for name in ("stage.annotate", "stage.global_samples"):
            assert sum(span["name"] == name for span in spans) == len(
                site_names
            ), name

    def test_each_site_parses_in_one_stage(self, corpus_on_disk, tmp_path):
        """One ``stage.parse`` span per site, under its ``site.run`` root,
        carrying the site's page count and file bytes."""
        from repro import obs

        _, kb_path, corpus_dir, _, site_names = corpus_on_disk
        with obs.scoped(tracing=True, metrics=True) as (tracer, registry):
            run_corpus(corpus_dir, kb_path, tmp_path / "models", max_workers=2)
            histograms = registry.snapshot()["histograms"]
            spans = tracer.export()
        by_id = {span["span_id"]: span for span in spans}
        parses = {}
        for span in spans:
            if span["name"] == "stage.parse":
                root = span
                while root["parent_id"] is not None:
                    root = by_id[root["parent_id"]]
                assert root["name"] == "site.run"
                parses[root["attrs"]["site"]] = span["attrs"]
        assert sorted(parses) == sorted(site_names)
        for site, attrs in parses.items():
            files = sorted((corpus_dir / site).glob("*.html"))
            assert attrs == {
                "pages": len(files),
                "bytes": sum(path.stat().st_size for path in files),
            }
        assert histograms["stage.parse_seconds"]["count"] == len(site_names)

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
    def test_inline_run_parses_each_page_and_the_kb_once(
        self, corpus_on_disk, tmp_path, monkeypatch, resume
    ):
        """A site the worker ran is featurized from the worker's parse;
        a replayed site is parsed once, by the parent, with the KB the
        inline sites already parsed."""
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        journal = {}
        if resume:
            corpus_dir, run_dir, _ = _rerun_one_site(corpus_on_disk, tmp_path)
            journal = dict(run_dir=run_dir, resume=True)
        page_parses, kb_parses = [], []
        parse_html, kb_from_dict = runner.parse_html, kb_io.kb_from_dict

        def counting_parse_html(*args, **kwargs):
            page_parses.append(1)
            return parse_html(*args, **kwargs)

        def counting_kb_from_dict(data):
            kb_parses.append(1)
            return kb_from_dict(data)

        monkeypatch.setattr(runner, "parse_html", counting_parse_html)
        monkeypatch.setattr(kb_io, "kb_from_dict", counting_kb_from_dict)
        run_corpus(
            corpus_dir, kb_path, tmp_path / "models",
            max_workers=1, train_global=True, **journal,
        )
        assert len(page_parses) == len(list(corpus_dir.glob("*/*.html")))
        assert len(kb_parses) == 1

    def test_missing_registry_fails_before_any_site_runs(
        self, corpus_on_disk
    ):
        _, kb_path, corpus_dir, _, _ = corpus_on_disk
        progress = []
        with pytest.raises(ValueError, match="requires registry_root"):
            run_corpus(
                corpus_dir, kb_path, None, max_workers=1,
                train_global=True, log=progress.append,
            )
        assert progress == []
