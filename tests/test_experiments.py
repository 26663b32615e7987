"""Smoke + shape tests for the experiment runners (small configurations).

These keep the benchmark harnesses honest: every runner must return a
well-formed result whose ``format()`` renders, at a scale small enough for
the unit-test suite.  The shape assertions (who wins) run at slightly
larger scale inside ``tests/test_integration_shapes.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import generate_imdb
from repro.datasets.commoncrawl import CCSiteConfig
from repro.evaluation.experiments import (
    run_annotation_evidence_ablation,
    run_figure4,
    run_figure6,
    run_table1,
    run_table2,
    run_table3,
    run_table7,
    run_table8,
    run_table9,
)


class TestTable1:
    def test_rows(self):
        result = run_table1(n_sites=2, pages_per_site=4)
        assert len(result.rows) == 4
        assert "Table 1" in result.format()


class TestTable2:
    def test_profile(self):
        result = run_table2(seed=0)
        assert result.total_triples > 1000
        assert len(result.rows) == 4
        formatted = result.format()
        assert "Person" in formatted and "TV Episode" in formatted


class TestTable3:
    def test_small_run(self):
        result = run_table3(
            n_sites=2, pages_per_site=12, verticals=("nbaplayer",)
        )
        assert "CERES-Full" in result.f1
        f1 = result.f1["CERES-Full"]["nbaplayer"]
        assert f1 is not None and f1 > 0.5
        assert "Table 3" in result.format()


class TestTable7:
    def test_high_precision(self):
        dataset = generate_imdb(0, n_films=12, n_people=10, n_episodes=4)
        result = run_table7(dataset=dataset)
        assert set(result.scores) == {"person", "film"}
        for score in result.scores.values():
            assert score.precision > 0.9
        assert "Table 7" in result.format()


SMALL_CC = (
    CCSiteConfig("smalla", "General", "en", 10, 0.8),
    CCSiteConfig("smallb", "Charts", "en", 0, 0.0,
                 hazards=frozenset({"charts_only"}), n_noise_pages=4),
)


class TestTables89Figure6:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_table8(seed=0, sites=SMALL_CC)

    def test_table8(self, runs):
        table, dataset, results = runs
        assert len(table.sites) == 2
        by_name = {s.name: s for s in table.sites}
        assert by_name["smalla"].n_extractions > 0
        assert by_name["smallb"].n_extractions == 0
        assert by_name["smallb"].precision is None
        assert "Table 8" in table.format()
        totals = table.totals()
        assert totals.n_pages == sum(s.n_pages for s in table.sites)

    def test_table9(self, runs):
        _, dataset, results = runs
        table = run_table9(dataset, results)
        assert table.rows
        assert "Table 9" in table.format()
        for _, (ann, ext, precision) in table.rows.items():
            assert ann >= 0 and ext >= 0
            if ext:
                assert 0.0 <= precision <= 1.0

    def test_figure6_monotone_precision(self, runs):
        _, dataset, results = runs
        figure = run_figure6(dataset, results, thresholds=(0.5, 0.7, 0.9))
        counts = [count for _, count, _ in figure.points]
        assert counts == sorted(counts, reverse=True)
        assert "Figure 6" in figure.format()

    def test_table9_report_is_hash_seed_invariant(self):
        """run_table9 iterates a set union of predicates; Table9Result's
        stable sort breaks extraction-count ties by insertion order, so
        unsorted iteration would leak PYTHONHASHSEED into the report.
        The report must be byte-identical across hash seeds."""
        script = (
            "import sys\n"
            "from repro.evaluation.experiments.commoncrawl import run_table9\n"
            "class Page:\n"
            "    def emission_for_node(self, node):\n"
            "        return None\n"
            "class Site:\n"
            "    name = 'site'\n"
            "    pages = [Page()]\n"
            "class Dataset:\n"
            "    sites = [Site()]\n"
            "class Ann:\n"
            "    def __init__(self, p):\n"
            "        self.predicate = p\n"
            "class Ext:\n"
            "    def __init__(self, p):\n"
            "        self.predicate, self.page_index, self.node = p, 0, None\n"
            "class APage:\n"
            "    def __init__(self, anns):\n"
            "        self.annotations = anns\n"
            "class Result:\n"
            "    annotated_pages = [APage([Ann(f'p{i}') for i in range(8)])]\n"
            "    extractions = [Ext(f'p{i}') for i in range(8)]\n"
            "table = run_table9(Dataset(), {'site': Result()})\n"
            "sys.stdout.write(table.format())\n"
        )
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, "Table 9 report differs across hash seeds"


class TestFigure4:
    def test_points(self):
        result = run_figure4(n_sites=4, pages_per_site=16, seed=0)
        assert len(result.points) == 3  # KB site excluded
        assert "Figure 4" in result.format()
        for _, overlap, f1 in result.points:
            assert 0 <= f1 <= 1
            assert overlap >= 0


class TestAnnotationEvidenceAblation:
    def test_evidence_orderings(self):
        """The local-only annotator overrides ``_choose_mention``; it
        must take the arguments the annotator passes (a signature that
        fell behind made the ablation raise ``TypeError``).  Orderings
        as in ``bench_ablation_annotation_evidence.py``."""
        result = run_annotation_evidence_ablation(seed=0)
        all_mentions = result.scores["all-mentions (CERES-Topic)"]
        local = result.scores["local evidence only"]
        full = result.scores["local + global (CERES-Full)"]
        assert full.precision >= local.precision >= all_mentions.precision - 0.02
        assert full.f1 >= all_mentions.f1
        assert "Ablation" in result.format()
