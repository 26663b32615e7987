"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import dataclasses
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import _build_parser, main
from repro.datasets import generate_swde, seed_kb_for
from repro.kb.io import save_kb

# `run-corpus` CLI tests exercise the runner inline (workers=1); the
# process-pool path is covered by tests/test_runtime_runner.py.


@pytest.fixture(scope="module")
def site_on_disk(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    dataset = generate_swde("movie", n_sites=2, pages_per_site=16, seed=2)
    kb = seed_kb_for(dataset, 2)
    kb_path = tmp / "kb.json"
    save_kb(kb, kb_path)
    pages_dir = tmp / "pages"
    pages_dir.mkdir()
    for index, page in enumerate(dataset.sites[1].pages):
        (pages_dir / f"page{index:03d}.html").write_text(page.html)
    return tmp, kb_path, pages_dir


class TestExtractCommand:
    def test_extract_to_file(self, site_on_disk):
        tmp, kb_path, pages_dir = site_on_disk
        out = tmp / "triples.jsonl"
        code = main(
            ["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines
        triple = json.loads(lines[0])
        assert set(triple) == {"page", "subject", "predicate", "object", "confidence"}
        assert 0.5 <= triple["confidence"] <= 1.0

    def test_threshold_reduces_output(self, site_on_disk):
        tmp, kb_path, pages_dir = site_on_disk
        low, high = tmp / "low.jsonl", tmp / "high.jsonl"
        main(["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
              "--threshold", "0.5", "--output", str(low)])
        main(["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
              "--threshold", "0.99", "--output", str(high)])
        assert len(high.read_text().splitlines()) <= len(low.read_text().splitlines())

    def test_annotate_command(self, site_on_disk, capsys):
        _, kb_path, pages_dir = site_on_disk
        code = main(["annotate", "--kb", str(kb_path), "--pages", str(pages_dir)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert set(record) == {"page", "topic", "predicate", "text", "xpath"}

    def test_missing_pages_dir(self, site_on_disk):
        _, kb_path, _ = site_on_disk
        with pytest.raises(SystemExit):
            main(["extract", "--kb", str(kb_path), "--pages", "/nonexistent/dir"])


class TestTrainServeCommands:
    def test_train_then_serve_equals_extract(self, site_on_disk, tmp_path):
        """The acceptance contract: train + serve ≡ one-shot extract."""
        _, kb_path, pages_dir = site_on_disk
        oneshot = tmp_path / "oneshot.jsonl"
        served = tmp_path / "served.jsonl"
        registry = tmp_path / "models"

        assert main(["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
                     "--output", str(oneshot)]) == 0
        assert main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
                     "--registry", str(registry)]) == 0
        assert main(["serve", "--registry", str(registry),
                     "--pages", str(pages_dir), "--output", str(served)]) == 0
        assert oneshot.read_text() == served.read_text()
        assert oneshot.read_text().strip()

    def test_serve_never_trains(self, site_on_disk, tmp_path, monkeypatch):
        _, kb_path, pages_dir = site_on_disk
        registry = tmp_path / "models"
        main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
              "--registry", str(registry)])

        import repro.core.extraction.trainer as trainer_module

        def explode(*args, **kwargs):
            raise AssertionError("serve must not train")

        monkeypatch.setattr(trainer_module.CeresTrainer, "train", explode)
        out = tmp_path / "served.jsonl"
        assert main(["serve", "--registry", str(registry),
                     "--pages", str(pages_dir), "--output", str(out)]) == 0
        assert out.read_text().strip()

    def test_serve_site_override_and_missing_site(self, site_on_disk, tmp_path):
        _, kb_path, pages_dir = site_on_disk
        registry = tmp_path / "models"
        main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
              "--registry", str(registry), "--site", "mysite"])
        out = tmp_path / "served.jsonl"
        assert main(["serve", "--registry", str(registry), "--site", "mysite",
                     "--pages", str(pages_dir), "--output", str(out)]) == 0
        with pytest.raises(SystemExit, match="registry error"):
            main(["serve", "--registry", str(registry), "--site", "unknown",
                  "--pages", str(pages_dir)])

    def test_serve_threshold_tightens_output(self, site_on_disk, tmp_path):
        _, kb_path, pages_dir = site_on_disk
        registry = tmp_path / "models"
        main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
              "--registry", str(registry)])
        low, high = tmp_path / "low.jsonl", tmp_path / "high.jsonl"
        main(["serve", "--registry", str(registry), "--pages", str(pages_dir),
              "--threshold", "0.5", "--output", str(low)])
        main(["serve", "--registry", str(registry), "--pages", str(pages_dir),
              "--threshold", "0.99", "--output", str(high)])
        assert len(high.read_text().splitlines()) <= len(low.read_text().splitlines())

    @pytest.mark.parametrize("value", ["7", "-0.5", "nan"])
    def test_threshold_outside_unit_interval_is_a_usage_error(
        self, site_on_disk, tmp_path, value
    ):
        """The registry would refuse the model such a threshold trains."""
        _, kb_path, pages_dir = site_on_disk
        with pytest.raises(SystemExit, match=r"--threshold must be within \[0, 1\]"):
            main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
                  "--registry", str(tmp_path), "--threshold", value])
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def corpus_on_disk(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus_cli")
    dataset = generate_swde("movie", n_sites=4, pages_per_site=14, seed=9)
    kb = seed_kb_for(dataset, 9)
    kb_path = tmp / "kb.json"
    save_kb(kb, kb_path)
    corpus = tmp / "sites"
    corpus.mkdir()
    for site in dataset.sites[1:4]:
        site_dir = corpus / site.name
        site_dir.mkdir()
        for index, page in enumerate(site.pages):
            (site_dir / f"page{index:03d}.html").write_text(page.html)
    (corpus / "empty_site").mkdir()  # ignored: no .html/.htm files
    return tmp, kb_path, corpus, [s.name for s in dataset.sites[1:4]]


class TestRunCorpusCommand:
    def test_run_corpus_writes_artifacts_and_rows(self, corpus_on_disk, tmp_path):
        tmp, kb_path, corpus, site_names = corpus_on_disk
        out = tmp_path / "triples.jsonl"
        registry = tmp_path / "models"
        code = main(["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
                     "--registry", str(registry), "--output", str(out),
                     "--workers", "1"])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert {row["site"] for row in rows} == set(site_names)
        assert set(rows[0].keys()) == {"site", "page", "subject", "predicate",
                                       "object", "confidence"}
        from repro.runtime import ModelRegistry

        assert ModelRegistry(registry).sites() == sorted(site_names)

    def test_run_corpus_failure_isolation_via_manifest(
        self, corpus_on_disk, tmp_path
    ):
        tmp, kb_path, corpus, site_names = corpus_on_disk
        manifest = tmp_path / "manifest.jsonl"
        entries = [{"site": name, "pages": str(corpus / name)}
                   for name in site_names]
        # An existing directory with no pages: passes manifest validation
        # (a *missing* directory is now a discovery-time error) but fails
        # in the worker, exercising per-site isolation.
        (tmp_path / "empty").mkdir()
        entries.append({"site": "doomed", "pages": str(tmp_path / "empty")})
        manifest.write_text(
            "\n".join(json.dumps(entry) for entry in entries) + "\n"
        )
        out = tmp_path / "triples.jsonl"
        registry = tmp_path / "models"
        code = main(["run-corpus", "--kb", str(kb_path),
                     "--corpus", str(manifest), "--registry", str(registry),
                     "--output", str(out), "--workers", "1"])
        assert code == 0  # the healthy sites succeeded
        from repro.runtime import ModelRegistry

        assert ModelRegistry(registry).sites() == sorted(site_names)

    def test_run_corpus_all_failed_exits_nonzero(self, corpus_on_disk, tmp_path):
        tmp, kb_path, _, _ = corpus_on_disk
        manifest = tmp_path / "manifest.jsonl"
        (tmp_path / "empty").mkdir()
        manifest.write_text(
            json.dumps({"site": "doomed", "pages": str(tmp_path / "empty")})
            + "\n"
        )
        code = main(["run-corpus", "--kb", str(kb_path),
                     "--corpus", str(manifest),
                     "--registry", str(tmp_path / "models"),
                     "--output", str(tmp_path / "out.jsonl"), "--workers", "1"])
        assert code == 1

    def test_run_corpus_bad_corpus_path(self, corpus_on_disk, tmp_path):
        _, kb_path, _, _ = corpus_on_disk
        with pytest.raises(SystemExit):
            main(["run-corpus", "--kb", str(kb_path),
                  "--corpus", str(tmp_path / "nothing"),
                  "--registry", str(tmp_path / "models")])

    def test_run_corpus_missing_kb_keeps_prior_output(self, corpus_on_disk, tmp_path):
        """A missing KB is a usage error before --output is truncated
        (workers parse the KB, so without this check every site failed)."""
        _, _, corpus, _ = corpus_on_disk
        out = tmp_path / "out.jsonl"
        out.write_text("rows of an earlier run\n")
        with pytest.raises(SystemExit, match="missing.json"):
            main(["run-corpus", "--kb", str(tmp_path / "missing.json"),
                  "--corpus", str(corpus), "--registry", str(tmp_path / "models"),
                  "--output", str(out), "--workers", "1"])
        assert out.read_text() == "rows of an earlier run\n"


class TestBadOutputPaths:
    """An output path no file can be written at is a one-line usage error
    before any work: run-corpus truncates no --output and writes no
    registry or run dir (it used to run every site first, then lose the
    fused facts or the trace to a traceback)."""

    @pytest.mark.parametrize(
        "flag", ["--output", "--fuse-output", "--trace-output", "--metrics-output"]
    )
    def test_run_corpus_refuses_a_missing_directory_before_any_site(
        self, corpus_on_disk, tmp_path, flag
    ):
        _, kb_path, corpus, _ = corpus_on_disk
        out = tmp_path / "out.jsonl"
        out.write_text("rows of an earlier run\n")
        bad = tmp_path / "nt_x" / "file.jsonl"
        outputs = ["--output", str(bad)] if flag == "--output" else [
            "--output", str(out), flag, str(bad)]
        with pytest.raises(
            SystemExit, match=re.escape(f"cannot write {bad}: no directory {bad.parent}")
        ):
            main(["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
                  "--registry", str(tmp_path / "models"),
                  "--run-dir", str(tmp_path / "run"), "--workers", "1", *outputs])
        assert out.read_text() == "rows of an earlier run\n"
        assert not (tmp_path / "models").exists()
        assert not (tmp_path / "run").exists()

    def test_a_directory_is_refused(self, site_on_disk, tmp_path):
        _, kb_path, pages_dir = site_on_disk
        with pytest.raises(SystemExit, match=f"cannot write {re.escape(str(tmp_path))}: "
                           "it is a directory"):
            main(["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
                  "--output", str(tmp_path)])

    def test_a_sink_that_cannot_open_names_its_path(self, tmp_path):
        from repro.__main__ import _open_sink

        bad = tmp_path / "gone" / "rows.jsonl"
        with pytest.raises(SystemExit, match=re.escape(f"cannot write {bad}: ")):
            _open_sink(str(bad))

    def test_the_command_line_prints_one_line_not_a_traceback(
        self, corpus_on_disk, tmp_path
    ):
        _, kb_path, corpus, _ = corpus_on_disk
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run-corpus", "--kb", str(kb_path),
             "--corpus", str(corpus), "--registry", "nt_x/models",
             "--output", "nt_x/rows.jsonl"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "cannot write nt_x/rows.jsonl: no directory nt_x\n"
        assert list(tmp_path.iterdir()) == []


class TestFuseCommand:
    def test_run_corpus_fuse_output_equals_standalone_fuse(
        self, corpus_on_disk, tmp_path
    ):
        """The acceptance contract: run-corpus --fuse-output and
        `repro fuse --kb` over the same rows are byte-identical."""
        tmp, kb_path, corpus, _ = corpus_on_disk
        rows = tmp_path / "triples.jsonl"
        fused_inline = tmp_path / "fused_inline.jsonl"
        code = main(["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
                     "--registry", str(tmp_path / "models"),
                     "--output", str(rows), "--workers", "1",
                     "--fuse-output", str(fused_inline)])
        assert code == 0
        fused_standalone = tmp_path / "fused_standalone.jsonl"
        assert main(["fuse", "--input", str(rows), "--kb", str(kb_path),
                     "--output", str(fused_standalone)]) == 0
        assert fused_inline.read_text() == fused_standalone.read_text()
        assert fused_inline.read_text().strip()

    def test_fuse_output_shape_and_order(self, corpus_on_disk, tmp_path):
        tmp, kb_path, corpus, site_names = corpus_on_disk
        rows = tmp_path / "triples.jsonl"
        main(["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
              "--registry", str(tmp_path / "models"),
              "--output", str(rows), "--workers", "1"])
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", "--input", str(rows),
                     "--output", str(fused)]) == 0
        facts = [json.loads(line) for line in fused.read_text().splitlines()]
        assert facts
        assert set(facts[0]) == {"subject", "predicate", "object", "score",
                                 "n_sites", "sites"}
        scores = [f["score"] for f in facts]
        assert scores == sorted(scores, reverse=True)
        assert {s for f in facts for s in f["sites"]} <= set(site_names)

    def test_fuse_shard_count_does_not_change_output(
        self, corpus_on_disk, tmp_path
    ):
        tmp, kb_path, corpus, _ = corpus_on_disk
        rows = tmp_path / "triples.jsonl"
        main(["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
              "--registry", str(tmp_path / "models"),
              "--output", str(rows), "--workers", "1"])
        outputs = []
        for shards, resident in (("1", None), ("13", "5")):
            fused = tmp_path / f"fused_{shards}.jsonl"
            argv = ["fuse", "--input", str(rows), "--output", str(fused),
                    "--shards", shards,
                    "--spill-dir", str(tmp_path / f"spill_{shards}")]
            if resident is not None:
                argv += ["--max-resident-facts", resident]
            assert main(argv) == 0
            outputs.append(fused.read_text())
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()

    def test_fuse_min_sites_filters(self, corpus_on_disk, tmp_path):
        tmp, kb_path, corpus, _ = corpus_on_disk
        rows = tmp_path / "triples.jsonl"
        main(["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
              "--registry", str(tmp_path / "models"),
              "--output", str(rows), "--workers", "1"])
        all_facts = tmp_path / "all.jsonl"
        multi = tmp_path / "multi.jsonl"
        main(["fuse", "--input", str(rows), "--output", str(all_facts)])
        main(["fuse", "--input", str(rows), "--output", str(multi),
              "--min-sites", "2"])
        n_all = len(all_facts.read_text().splitlines())
        n_multi = len(multi.read_text().splitlines())
        assert n_multi <= n_all
        for line in multi.read_text().splitlines():
            assert json.loads(line)["n_sites"] >= 2

    def test_fuse_siteless_rows_need_site_flag(self, site_on_disk, tmp_path):
        tmp, kb_path, pages_dir = site_on_disk
        rows = tmp_path / "rows.jsonl"
        main(["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
              "--output", str(rows)])
        with pytest.raises(SystemExit, match="bad extraction row"):
            main(["fuse", "--input", str(rows),
                  "--output", str(tmp_path / "f.jsonl")])
        assert main(["fuse", "--input", str(rows), "--site", "onesite",
                     "--output", str(tmp_path / "f.jsonl")]) == 0
        fact = json.loads((tmp_path / "f.jsonl").read_text().splitlines()[0])
        assert list(fact["sites"]) == ["onesite"]

    def test_fuse_site_flag_never_overrides_row_labels(
        self, corpus_on_disk, tmp_path
    ):
        """--site is a fallback for label-less rows only; relabeling
        labeled rows would collapse all cross-site support to one site."""
        tmp, kb_path, corpus, _ = corpus_on_disk
        rows = tmp_path / "triples.jsonl"
        main(["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
              "--registry", str(tmp_path / "models"),
              "--output", str(rows), "--workers", "1"])
        plain = tmp_path / "plain.jsonl"
        flagged = tmp_path / "flagged.jsonl"
        assert main(["fuse", "--input", str(rows),
                     "--output", str(plain)]) == 0
        assert main(["fuse", "--input", str(rows), "--site", "ignored",
                     "--output", str(flagged)]) == 0
        assert plain.read_text() == flagged.read_text()
        assert "ignored" not in flagged.read_text()

    def test_fuse_missing_input(self, tmp_path):
        # A directory cannot be read as rows either.
        for source in (tmp_path / "nope.jsonl", tmp_path):
            with pytest.raises(SystemExit, match=re.escape(str(source))):
                main(["fuse", "--input", str(source)])

    @pytest.mark.parametrize(
        "flag, message",
        [("--shards", "n_shards must be >= 1"),
         ("--max-resident-facts", "max_resident_facts must be >= 1")],
    )
    def test_fuse_store_limits_are_usage_errors(self, tmp_path, flag, message):
        rows = tmp_path / "rows.jsonl"
        rows.write_text("")
        with pytest.raises(SystemExit, match=message):
            main(["fuse", "--input", str(rows), flag, "0"])

    def test_fuse_malformed_rows_fail_cleanly(self, tmp_path):
        """Valid JSON that is not an extraction row must name the line,
        not crash with a traceback."""
        bad = tmp_path / "bad.jsonl"
        bad.write_text('"not a dict"\n')
        with pytest.raises(SystemExit, match=r"bad\.jsonl:1: bad extraction row"):
            main(["fuse", "--input", str(bad)])
        bad.write_text(
            '{"site": "a", "subject": "X", "predicate": "p", '
            '"object": 7, "confidence": 0.5}\n'
        )
        with pytest.raises(SystemExit, match="bad extraction row"):
            main(["fuse", "--input", str(bad)])


class TestStatsCommand:
    def test_stats_without_pages(self, site_on_disk, tmp_path, capsys):
        _, kb_path, pages_dir = site_on_disk
        registry = tmp_path / "models"
        assert main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["stats", "--registry", str(registry)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["available_sites"] == [pages_dir.name]
        assert payload["loaded_sites"] == []
        assert payload["cache_stats"]["sites"]["size"] == 0

    def test_stats_after_serving_pages(self, site_on_disk, tmp_path, capsys):
        _, kb_path, pages_dir = site_on_disk
        registry = tmp_path / "models"
        assert main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["stats", "--registry", str(registry),
                     "--pages", str(pages_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["served"]["pages"] == 16
        assert payload["served"]["extractions"] > 0
        assert payload["loaded_sites"] == [pages_dir.name]
        sites = payload["cache_stats"]["sites"]
        assert (sites["size"], sites["misses"]) == (1, 1)
        assert payload["cache_stats"]["per_site"] == {}

    def test_stats_unknown_site_errors(self, site_on_disk, tmp_path):
        _, _, pages_dir = site_on_disk
        registry = tmp_path / "empty-models"
        registry.mkdir()
        with pytest.raises(SystemExit, match="registry error"):
            main(["stats", "--registry", str(registry),
                  "--pages", str(pages_dir)])


class TestMinPredicatePagesFlag:
    def test_flag_threads_into_config(self, monkeypatch, site_on_disk, tmp_path):
        """--min-predicate-pages reaches CeresConfig on every annotation
        command (extract shown here; the parser wires the same option into
        annotate/train/run-corpus)."""
        _, kb_path, pages_dir = site_on_disk
        captured = {}
        from repro.core.pipeline import CeresPipeline

        original = CeresPipeline.__init__

        def spy(self, kb, config=None, annotator=None):
            captured["config"] = config
            original(self, kb, config, annotator)

        monkeypatch.setattr(CeresPipeline, "__init__", spy)
        code = main(
            ["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
             "--min-predicate-pages", "7",
             "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 0
        assert captured["config"].min_predicate_pages == 7

    def test_default_leaves_config_untouched(self, site_on_disk, capsys):
        _, kb_path, pages_dir = site_on_disk
        code = main(["annotate", "--kb", str(kb_path), "--pages", str(pages_dir)])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_rejects_non_positive(self, site_on_disk, tmp_path):
        _, kb_path, pages_dir = site_on_disk
        with pytest.raises(SystemExit):
            main(["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
                  "--min-predicate-pages", "0",
                  "--output", str(tmp_path / "out.jsonl")])

    def test_accepted_by_all_annotation_commands(self):
        parser = _build_parser()
        for argv in (
            ["extract", "--kb", "k", "--pages", "p", "--min-predicate-pages", "2"],
            ["annotate", "--kb", "k", "--pages", "p", "--min-predicate-pages", "2"],
            ["train", "--kb", "k", "--pages", "p", "--registry", "r",
             "--min-predicate-pages", "2"],
            ["run-corpus", "--kb", "k", "--corpus", "c", "--registry", "r",
             "--min-predicate-pages", "2"],
        ):
            assert parser.parse_args(argv).min_predicate_pages == 2


BAD_KBS = {
    "missing": None,
    "malformed": "{not json",
    "list": "[]",
    "entity_without_id": '{"entities": [{"name": "Alien"}]}',
}


class TestBadSeedKb:
    @pytest.mark.parametrize("kind", sorted(BAD_KBS))
    @pytest.mark.parametrize(
        "command", ["annotate", "extract", "fuse", "train", "train-global"]
    )
    def test_bad_kb_is_a_usage_error_naming_the_file(
        self, site_on_disk, tmp_path, command, kind
    ):
        _, _, pages_dir = site_on_disk
        kb_path = tmp_path / f"{kind}.json"
        if BAD_KBS[kind] is not None:
            kb_path.write_text(BAD_KBS[kind])
        rows = tmp_path / "rows.jsonl"
        rows.write_text("")
        argv = {
            "annotate": ["--pages", str(pages_dir)],
            "extract": ["--pages", str(pages_dir)],
            "fuse": ["--input", str(rows)],
            "train": ["--pages", str(pages_dir), "--registry", str(tmp_path)],
            "train-global": ["--corpus", str(pages_dir.parent),
                             "--registry", str(tmp_path)],
        }[command]
        with pytest.raises(
            SystemExit, match=re.escape(f"cannot load seed KB {kb_path}:")
        ):
            main([command, "--kb", str(kb_path), *argv])


class TestSkippedClusterReporting:
    def test_extract_reports_skipped_pages(self, site_on_disk, tmp_path, capsys):
        """Small-cluster pages must not vanish silently (they are dropped
        from annotation when below min_cluster_size)."""
        tmp, kb_path, pages_dir = site_on_disk
        # A 3-page site: below the default min_cluster_size of 4.
        small_dir = tmp_path / "small"
        small_dir.mkdir()
        for name in sorted(p.name for p in pages_dir.glob("*.html"))[:3]:
            (small_dir / name).write_text((pages_dir / name).read_text())
        code = main(["extract", "--kb", str(kb_path), "--pages", str(small_dir),
                     "--output", str(tmp_path / "out.jsonl")])
        assert code == 0
        err = capsys.readouterr().err
        assert "below min_cluster_size skipped" in err
        assert "3 page(s)" in err


class TestObservabilityFlags:
    def test_run_corpus_trace_and_metrics_outputs(self, corpus_on_disk, tmp_path):
        from repro import obs

        _, kb_path, corpus, site_names = corpus_on_disk
        spans_path = tmp_path / "spans.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
             "--registry", str(tmp_path / "models"),
             "--output", str(tmp_path / "rows.jsonl"),
             "--fuse-output", str(tmp_path / "facts.jsonl"),
             "--workers", "1",
             "--trace-output", str(spans_path),
             "--metrics-output", str(metrics_path)]
        )
        assert code == 0
        # main() restored the disabled singletons.
        assert not obs.enabled()

        spans = [
            json.loads(line)
            for line in spans_path.read_text().splitlines()
        ]
        names = {span["name"] for span in spans}
        # The acceptance bar: every pipeline stage appears in the trace.
        assert {
            "stage.cluster", "stage.annotate", "stage.train",
            "stage.extract", "stage.fuse", "site.run",
        } <= names
        ids = [span["span_id"] for span in spans]
        assert len(ids) == len(set(ids))

        snapshot = json.loads(metrics_path.read_text())
        counters = snapshot["counters"]
        assert counters["runner.sites_ok"] == len(site_names)
        assert counters["fusion.facts"] > 0
        assert "cache.page_match.hits" in counters
        assert snapshot["histograms"]["runner.site_seconds"]["count"] == len(
            site_names
        )

    def test_extract_metrics_output(self, site_on_disk, tmp_path):
        _, kb_path, pages_dir = site_on_disk
        metrics_path = tmp_path / "extract_metrics.json"
        assert main(
            ["extract", "--kb", str(kb_path), "--pages", str(pages_dir),
             "--output", str(tmp_path / "t.jsonl"),
             "--metrics-output", str(metrics_path)]
        ) == 0
        snapshot = json.loads(metrics_path.read_text())
        counters = snapshot["counters"]
        assert counters["pipeline.pages"] == 16
        assert counters["pipeline.extractions"] > 0
        assert "cache.page_match.hits" in counters
        for stage in ("cluster", "annotate", "train", "extract"):
            assert f"stage.{stage}_seconds" in snapshot["histograms"]

    def test_serve_trace_output(self, site_on_disk, tmp_path):
        _, kb_path, pages_dir = site_on_disk
        registry = tmp_path / "models"
        assert main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
                     "--registry", str(registry)]) == 0
        spans_path = tmp_path / "serve_spans.jsonl"
        assert main(
            ["serve", "--registry", str(registry), "--pages", str(pages_dir),
             "--output", str(tmp_path / "s.jsonl"),
             "--trace-output", str(spans_path)]
        ) == 0
        spans = [
            json.loads(line)
            for line in spans_path.read_text().splitlines()
        ]
        assert any(s["name"] == "service.extract_pages" for s in spans)

    def test_fuse_metrics_output(self, corpus_on_disk, tmp_path):
        _, kb_path, corpus, _ = corpus_on_disk
        rows = tmp_path / "rows.jsonl"
        assert main(
            ["run-corpus", "--kb", str(kb_path), "--corpus", str(corpus),
             "--registry", str(tmp_path / "m"), "--output", str(rows),
             "--workers", "1"]
        ) == 0
        metrics_path = tmp_path / "fuse_metrics.json"
        assert main(
            ["fuse", "--input", str(rows),
             "--output", str(tmp_path / "facts.jsonl"),
             "--metrics-output", str(metrics_path)]
        ) == 0
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["fusion.rows"] > 0
        assert counters["fusion.facts"] > 0

    def test_stats_payload_includes_metrics(self, site_on_disk, tmp_path, capsys):
        _, kb_path, pages_dir = site_on_disk
        registry = tmp_path / "models"
        assert main(["train", "--kb", str(kb_path), "--pages", str(pages_dir),
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["stats", "--registry", str(registry),
                     "--pages", str(pages_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["metrics"]["counters"]
        assert counters["service.requests"] == 1
        assert counters["service.pages"] == 16
        assert "cache.resident_sites.hits" in counters


#: The option surface (every subcommand's flags, dests, types, defaults
#: and actions) of the hand-written parser that preceded the shared flag
#: table, dumped by :func:`_option_surface`.
OPTION_SNAPSHOT = Path(__file__).parent / "golden" / "cli_options.json"


def _commands(parser) -> dict:
    return next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def _option_surface(parser) -> dict:
    """Every subcommand's options but ``--help``, keyed by flag."""
    return {
        name: {
            " ".join(action.option_strings) or action.dest: {
                "flags": action.option_strings,
                "dest": action.dest,
                "type": getattr(action.type, "__name__", None),
                "default": action.default,
                "required": action.required,
                "action": type(action).__name__,
                "choices": None if action.choices is None else list(action.choices),
                "nargs": action.nargs,
            }
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, command in _commands(parser).items()
    }


class TestOptionSurface:
    def test_options_match_snapshot(self):
        expected = json.loads(OPTION_SNAPSHOT.read_text())
        # The two intended differences: serve-http's tuning flags are
        # generated from ServingConfig, so --threads stores into the
        # ``workers`` field and --host parses with the field's str type.
        expected["serve-http"]["--threads"]["dest"] = "workers"
        expected["serve-http"]["--host"]["type"] = "str"
        surface = json.loads(json.dumps(_option_surface(_build_parser())))
        assert surface == expected
        assert sum(map(len, surface.values())) == 96

    @pytest.mark.parametrize(
        "command", sorted(json.loads(OPTION_SNAPSHOT.read_text()))
    )
    def test_help_renders(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {command}")

    def test_parser_does_not_import_the_http_server(self):
        """Building the parser reads ServingConfig, which must not drag
        the HTTP server into the start-up of every other command."""
        probe = (
            "import sys\n"
            "import repro.__main__\n"
            "repro.__main__._build_parser()\n"
            "print('repro.serving.server' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestServeHttpCommand:
    def test_one_flag_per_serving_config_field(self, capsys):
        from repro.serving.config import ServingConfig

        actions = _commands(_build_parser())["serve-http"]._actions
        with pytest.raises(SystemExit):
            main(["serve-http", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for field in dataclasses.fields(ServingConfig):
            (action,) = [a for a in actions if a.dest == field.name]
            assert action.default == field.default
            assert f"(default: {field.default})" in help_text

    def test_flags_build_the_serving_config(self, tmp_path, monkeypatch):
        from repro.serving.config import ServingConfig

        built = []

        class UnboundServer:
            def __init__(self, service, config):
                built.append(config)

            def start(self):
                raise OSError("not binding here")

        monkeypatch.setattr("repro.serving.ServingServer", UnboundServer)
        with pytest.raises(SystemExit, match="not binding here"):
            main(["serve-http", "--registry", str(tmp_path), "--threads", "3",
                  "--batch-linger", "0.2", "--max-parse-depth", "9"])
        assert built == [
            ServingConfig(workers=3, batch_linger=0.2, max_parse_depth=9)
        ]

    def test_busy_port_is_a_usage_error(self, tmp_path):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            with pytest.raises(
                SystemExit, match=f"cannot serve on 127.0.0.1:{port}"
            ):
                main(["serve-http", "--registry", str(tmp_path),
                      "--port", str(port)])

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_out_of_range_port_is_a_usage_error(self, tmp_path, port):
        with pytest.raises(SystemExit, match="port must be in 0..65535"):
            main(["serve-http", "--registry", str(tmp_path), "--port", port])

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--request-deadline", "inf", "request_deadline must be in 0"),
            ("--retry-after", "nan", "retry_after must be in 0"),
            ("--batch-linger", "1e12", "batch_linger must be in 0"),
            ("--retry-after", "-5", "retry_after must be in 0"),
            ("--max-body-bytes", "-1", "max_body_bytes must be >= 0"),
            ("--max-parse-depth", "-5", "max_parse_depth must be >= 1"),
            ("--max-parse-nodes", "0", "max_parse_nodes must be >= 1"),
        ],
        ids=["inf-deadline", "nan-retry-after", "huge-batch-linger",
             "negative-retry-after", "negative-max-body-bytes",
             "negative-max-parse-depth", "zero-max-parse-nodes"],
    )
    def test_out_of_range_value_is_a_usage_error(
        self, tmp_path, monkeypatch, flag, value, message
    ):
        # A value the checks let through must not go on to serve.
        monkeypatch.setattr("repro.serving.ServingServer", None)
        with pytest.raises(SystemExit, match=message):
            main(["serve-http", "--registry", str(tmp_path), flag, value])

    @pytest.mark.parametrize("command", ["serve-http", "stats"])
    def test_max_resident_sites_must_be_positive(self, tmp_path, command):
        with pytest.raises(SystemExit, match="--max-resident-sites must be >= 1"):
            main([command, "--registry", str(tmp_path),
                  "--max-resident-sites", "0"])


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads via /proc"
)
class TestBlasThreadDefaults:
    """``python -m repro`` runs one BLAS thread per process unless the
    user set a count: its parallelism is the worker pool and the server's
    threads, and a BLAS pool per process on top oversubscribes the cores."""

    PROBE = (
        "import json, os\n"
        "import repro.__main__\n"
        "import numpy\n"
        "numpy.ones((64, 64)) @ numpy.ones((64, 64))\n"
        "print(json.dumps({\n"
        "    'env': {name: os.environ.get(name) for name in %r},\n"
        "    'threads': len(os.listdir('/proc/self/task')),\n"
        "}))\n"
    ) % (BLAS_THREAD_VARS,)

    def _probe(self, **overrides) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env.update(overrides)
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_unset_counts_default_to_one_thread(self):
        probe = self._probe()
        assert probe["env"] == {name: "1" for name in BLAS_THREAD_VARS}
        assert probe["threads"] == 1

    def test_user_count_wins(self):
        probe = self._probe(OPENBLAS_NUM_THREADS="2")
        assert probe["env"] == {
            "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        if (os.cpu_count() or 1) >= 2:
            # OpenBLAS caps its pool at the core count.
            assert probe["threads"] > 1
