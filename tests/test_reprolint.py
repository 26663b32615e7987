"""reprolint self-tests: every rule against bad/good fixture pairs,
suppression syntax, the CLI surface, and the tree-lints-clean gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import analysis
from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def active_ids(findings):
    return sorted(
        finding.rule_id
        for finding in analysis.active_findings(findings)
    )


def lint(source: str, module: str):
    return analysis.lint_source(source, module)


# ---------------------------------------------------------------------------
# Rule fixtures: (rule id, module path, bad source, expected finding count,
# good source).  The bad snippet must produce exactly its rule's findings;
# the good snippet must be completely clean.
# ---------------------------------------------------------------------------

RULE_FIXTURES = [
    (
        "id-cache-key",
        "repro/kb/matcher.py",
        "cache[id(document)] = value\n",
        1,
        "cache[document.doc_id] = value\nother[id(node)] = value\n",
    ),
    (
        "id-cache-key",
        "repro/core/extraction/features.py",
        "key = id(self.doc)\n",
        1,
        "key = self.doc.doc_id\n",
    ),
    (
        "sibling-index-scan",
        "repro/dom/xpath.py",
        "position = siblings.index(element)\n",
        1,
        "position = element.element_index\n",
    ),
    (
        "sibling-index-scan",
        "repro/dom/xpath.py",
        "position = node.siblings.index(child)\n",
        1,
        "position = names.index(name)\n",
    ),
    (
        "bare-sleep",
        "repro/runtime/runner.py",
        "import time\ntime.sleep(0.5)\n",
        1,
        "from repro.runtime.resilience import sleep_backoff\n"
        "sleep_backoff(attempt=1)\n",
    ),
    (
        "bare-sleep",
        "repro/runtime/runner.py",
        "from time import sleep as pause\npause(2)\n",
        2,  # the import and the aliased call
        "# time.sleep(1) in a comment is not a finding\nx = 1\n",
    ),
    (
        "bare-sleep",
        "benchmarks/bench_example.py",
        "import time as t\nt.sleep(1)\n",
        1,
        "t = object()\nt.sleep = None\n",  # not the time module
    ),
    (
        "bare-perf-counter",
        "benchmarks/bench_example.py",
        "import time\nstart = time.perf_counter()\n",
        1,
        "from repro import obs\n"
        "with obs.metrics().timer('bench.seconds'):\n    pass\n",
    ),
    (
        "rounded-confidence",
        "repro/runtime/runner.py",
        "row = {'confidence': round(extraction.confidence, 4)}\n",
        1,
        "row = {'confidence': extraction.confidence}\n"
        "summary = round(total, 2)\n",
    ),
    (
        "xfer-site-literal",
        "repro/transfer/features.py",
        "features.append('xpath(' + step + ')')\n",
        1,
        '"""Doc: xpath( and attr= in prose are fine."""\n'
        "features.append('xfer:depth=' + str(depth))\n",
    ),
    (
        "xfer-site-literal",
        "repro/transfer/features.py",
        "value = node_features(node, attr='class')\n",
        1,
        "value = node_features(node)\n",
    ),
    (
        "lock-discipline",
        "repro/runtime/service.py",
        "class Service:\n"
        "    def stats(self):\n"
        "        return self._sites.stats()\n",
        1,
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._sites = {}\n"
        "        self._ever_resident = set()\n"
        "    def stats(self):\n"
        "        with self._residency_lock:\n"
        "            return self._sites.stats()\n",
    ),
    (
        "lock-discipline",
        "repro/runtime/service.py",
        # A nested function defined under the lock runs after release.
        "class Service:\n"
        "    def deferred(self):\n"
        "        with self._residency_lock:\n"
        "            def later():\n"
        "                return self._ever_resident\n"
        "        return later\n",
        1,
        "class Service:\n"
        "    def snapshot(self):\n"
        "        with self._residency_lock:\n"
        "            sites = dict(self._sites)\n"
        "            ever = set(self._ever_resident)\n"
        "        return sites, ever\n",
    ),
    (
        "unsorted-set-iteration",
        "repro/fusion/report.py",
        "for key in set(left) | set(right):\n    emit(key)\n",
        1,
        "for key in sorted(set(left) | set(right)):\n    emit(key)\n",
    ),
    (
        "unsorted-set-iteration",
        "repro/evaluation/summary.py",
        "rows = [fmt(p) for p in predicates.keys() | extra.keys()]\n",
        1,
        # a lone .keys() preserves insertion order — not a finding
        "rows = [fmt(p) for p in predicates.keys()]\n",
    ),
    (
        "atomic-write",
        "repro/runtime/state.py",
        "with path.open('w', encoding='utf-8') as sink:\n"
        "    sink.write(data)\n",
        1,
        "from repro.runtime.resilience import atomic_write\n"
        "with atomic_write(path) as sink:\n"
        "    sink.write(data)\n"
        "text = path.open('r').read()\n",
    ),
    (
        "atomic-write",
        "repro/fusion/store.py",
        "sink = open(target, 'w')\n",
        1,
        "source = open(target)\n",
    ),
    (
        "exception-taxonomy",
        "repro/runtime/worker.py",
        "try:\n    work()\nexcept Exception:\n    pass\n",
        1,
        "from repro.runtime.resilience import classify_error\n"
        "try:\n    work()\n"
        "except Exception as exc:\n"
        "    kind = classify_error(exc)\n"
        "try:\n    work()\n"
        "except Exception:\n    raise\n"
        "try:\n    work()\n"
        "except ValueError:\n    pass\n",
    ),
    (
        "gc-policy",
        "repro/serving/server.py",
        "import gc\ngc.freeze()\n",
        1,
        "import gc\nstats = {'frozen': gc.get_freeze_count(), "
        "'generations': gc.get_stats()}\n",
    ),
    (
        "gc-policy",
        "repro/dom/parser.py",
        "from gc import collect as sweep\nsweep()\n",
        2,  # the import and the aliased call
        "for document in documents:\n    document.release()\n",
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule_id, module, bad, expected, good",
        RULE_FIXTURES,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(RULE_FIXTURES)],
    )
    def test_bad_fixture_produces_exactly_its_finding(
        self, rule_id, module, bad, expected, good
    ):
        findings = analysis.active_findings(lint(bad, module))
        assert [f.rule_id for f in findings] == [rule_id] * expected
        for finding in findings:
            assert finding.line >= 1
            assert finding.message
            assert finding.fix_hint

    @pytest.mark.parametrize(
        "rule_id, module, bad, expected, good",
        RULE_FIXTURES,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(RULE_FIXTURES)],
    )
    def test_good_fixture_is_clean(self, rule_id, module, bad, expected, good):
        assert active_ids(lint(good, module)) == []

    def test_every_rule_has_a_fixture(self):
        covered = {case[0] for case in RULE_FIXTURES} | {"tracked-bytecode"}
        assert covered == set(analysis.KNOWN_RULE_IDS)

    def test_rules_scope_by_module(self):
        sleepy = "import time\ntime.sleep(1)\n"
        # sanctioned modules are exempt
        assert active_ids(lint(sleepy, "repro/runtime/resilience.py")) == []
        assert active_ids(lint(sleepy, "repro/testing/faults.py")) == []
        # perf_counter is only gated in benchmarks/
        timing = "import time\nt0 = time.perf_counter()\n"
        assert active_ids(lint(timing, "repro/obs/tracer.py")) == []
        # id(document) is the cache module's own business
        keyed = "slot = id(document)\n"
        assert active_ids(lint(keyed, "repro/runtime/cache.py")) == []
        # atomic-write discipline stops at the sanctioned primitive
        writing = "sink = open(path, 'w')\n"
        assert active_ids(lint(writing, "repro/runtime/resilience.py")) == []
        # the collector belongs to the process owners; benchmarks collect
        # to measure RSS
        collecting = "import gc\ngc.freeze()\ngc.collect()\n"
        assert active_ids(lint(collecting, "repro/__main__.py")) == []
        assert active_ids(lint(collecting, "repro/runtime/runner.py")) == []
        assert active_ids(lint(collecting, "benchmarks/bench_fusion.py")) == []

    def test_unparseable_module_is_a_parse_error_finding(self):
        findings = lint("def broken(:\n", "repro/kb/matcher.py")
        assert [f.rule_id for f in findings] == [analysis.PARSE_ERROR_RULE_ID]


class TestTrackedBytecodeRule:
    def _scan(self, root):
        rule = analysis.RULES_BY_ID["tracked-bytecode"]
        return list(rule.scan_repo(root))

    def test_flags_tracked_pyc_and_pycache(self, tmp_path):
        subprocess.run(
            ["git", "init", "-q", str(tmp_path)], check=True
        )
        bad_pyc = tmp_path / "module.pyc"
        bad_pyc.write_bytes(b"\x00")
        cache_dir = tmp_path / "__pycache__"
        cache_dir.mkdir()
        (cache_dir / "module.cpython-311.pyc").write_bytes(b"\x00")
        (tmp_path / "fine.py").write_text("x = 1\n")
        subprocess.run(
            ["git", "-C", str(tmp_path), "add", "-f", "."], check=True
        )
        findings = self._scan(tmp_path)
        assert {f.rule_id for f in findings} == {"tracked-bytecode"}
        assert {f.path for f in findings} == {
            "module.pyc",
            "__pycache__/module.cpython-311.pyc",
        }

    def test_clean_repo_and_no_git_are_silent(self, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        subprocess.run(["git", "init", "-q", str(clean)], check=True)
        (clean / "fine.py").write_text("x = 1\n")
        subprocess.run(["git", "-C", str(clean), "add", "."], check=True)
        assert self._scan(clean) == []
        bare = tmp_path / "no_git"
        bare.mkdir()
        assert self._scan(bare) == []


class TestSuppressions:
    MODULE = "repro/dom/xpath.py"
    BAD = "position = siblings.index(element)"

    def test_suppression_with_reason_silences_the_finding(self):
        source = (
            f"{self.BAD}  # repro: allow[sibling-index-scan] "
            "cold path, one-off migration\n"
        )
        findings = lint(source, self.MODULE)
        assert analysis.active_findings(findings) == []
        (suppressed,) = findings
        assert suppressed.suppressed
        assert suppressed.suppress_reason == "cold path, one-off migration"

    def test_standalone_comment_covers_the_next_line(self):
        source = (
            "# repro: allow[sibling-index-scan] cold path\n"
            f"{self.BAD}\n"
        )
        assert active_ids(lint(source, self.MODULE)) == []

    def test_standalone_comment_does_not_cover_two_lines_down(self):
        source = (
            "# repro: allow[sibling-index-scan] cold path\n"
            "x = 1\n"
            f"{self.BAD}\n"
        )
        assert active_ids(lint(source, self.MODULE)) == [
            "sibling-index-scan"
        ]

    def test_missing_reason_is_a_finding(self):
        source = f"{self.BAD}  # repro: allow[sibling-index-scan]\n"
        assert active_ids(lint(source, self.MODULE)) == [
            "sibling-index-scan",  # not silenced by a reasonless allow
            analysis.SUPPRESSION_RULE_ID,
        ]

    def test_unknown_rule_id_is_a_finding(self):
        source = "x = 1  # repro: allow[no-such-rule] because\n"
        findings = lint(source, self.MODULE)
        assert active_ids(findings) == [analysis.SUPPRESSION_RULE_ID]
        assert "no-such-rule" in findings[0].message

    def test_wrong_rule_id_does_not_silence(self):
        source = (
            f"{self.BAD}  # repro: allow[bare-sleep] not even that rule\n"
        )
        assert active_ids(lint(source, self.MODULE)) == [
            "sibling-index-scan"
        ]

    def test_allow_syntax_inside_a_string_is_not_a_suppression(self):
        source = (
            "text = 'repro: allow[sibling-index-scan] nope'\n"
            f"{self.BAD}\n"
        )
        assert active_ids(lint(source, self.MODULE)) == [
            "sibling-index-scan"
        ]


class TestEngine:
    def test_normalize_module(self):
        cases = {
            "src/repro/fusion/store.py": "repro/fusion/store.py",
            "/abs/repo/src/repro/kb/io.py": "repro/kb/io.py",
            "benchmarks/bench_fusion.py": "benchmarks/bench_fusion.py",
            "/abs/repo/benchmarks/bench_x.py": "benchmarks/bench_x.py",
        }
        for raw, expected in cases.items():
            assert analysis.normalize_module(raw) == expected

    def test_select_rules_include_exclude(self):
        only = analysis.select_rules(include=("bare-sleep",))
        assert [rule.id for rule in only] == ["bare-sleep"]
        without = analysis.select_rules(exclude=("bare-sleep",))
        assert "bare-sleep" not in {rule.id for rule in without}
        with pytest.raises(analysis.UnknownRuleError):
            analysis.select_rules(include=("nope",))

    def test_findings_sort_stably_by_location(self):
        source = "import time\ntime.sleep(1)\ntime.sleep(2)\n"
        findings = lint(source, "repro/runtime/runner.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestLintCLI:
    @staticmethod
    def _write_bad_tree(tmp_path: Path) -> Path:
        # under a src/ anchor so module scoping kicks in
        bad = tmp_path / "src" / "repro" / "dom" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "position = siblings.index(element)\n"
            "import time\n"
            "time.sleep(1)\n",
            encoding="utf-8",
        )
        return bad

    def test_exit_code_is_finding_count(self, tmp_path, capsys):
        bad = self._write_bad_tree(tmp_path)
        assert main(["lint", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "sibling-index-scan" in out and "bare-sleep" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "src" / "repro" / "ok.py"
        good.parent.mkdir(parents=True)
        good.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(good)]) == 0

    def test_json_format(self, tmp_path, capsys):
        bad = self._write_bad_tree(tmp_path)
        code = main(["lint", str(bad), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == payload["count"] == 2
        rules = {finding["rule"] for finding in payload["findings"]}
        assert rules == {"sibling-index-scan", "bare-sleep"}
        for finding in payload["findings"]:
            assert finding["path"].endswith("bad.py")
            assert finding["line"] >= 1

    def test_github_format(self, tmp_path, capsys):
        bad = self._write_bad_tree(tmp_path)
        main(["lint", str(bad), "--format", "github"])
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        for line in out:
            assert line.startswith("::error file=")
            assert ",line=" in line and ",title=" in line

    def test_rule_filter_and_exclude(self, tmp_path, capsys):
        bad = self._write_bad_tree(tmp_path)
        assert main(["lint", str(bad), "--rule", "bare-sleep"]) == 1
        assert "sibling-index-scan" not in capsys.readouterr().out
        assert main(["lint", str(bad), "--exclude", "bare-sleep"]) == 1
        assert "bare-sleep" not in capsys.readouterr().out

    def test_unknown_rule_id_exits_two_with_message(self, tmp_path, capsys):
        bad = self._write_bad_tree(tmp_path)
        assert main(["lint", str(bad), "--rule", "bogus"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_show_suppressed_reports_silenced_findings(
        self, tmp_path, capsys
    ):
        source = (
            "position = siblings.index(element)"
            "  # repro: allow[sibling-index-scan] migration one-off\n"
        )
        path = tmp_path / "src" / "repro" / "quiet.py"
        path.parent.mkdir(parents=True)
        path.write_text(source, encoding="utf-8")
        assert main(["lint", str(path)]) == 0
        assert "sibling-index-scan" not in capsys.readouterr().out
        assert main(["lint", str(path), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "sibling-index-scan" in out and "(suppressed)" in out

    def test_exit_code_caps_below_retcode_wraparound(self, tmp_path):
        noisy = tmp_path / "src" / "repro" / "noisy.py"
        noisy.parent.mkdir(parents=True)
        noisy.write_text(
            "import time\n" + "time.sleep(1)\n" * 200, encoding="utf-8"
        )
        assert main(["lint", str(noisy)]) == 125

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in analysis.KNOWN_RULE_IDS:
            assert rule_id in out


class TestTreeLintsClean:
    def test_src_and_benchmarks_lint_clean(self):
        findings = analysis.lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
            repo_root=REPO_ROOT,
        )
        active = analysis.active_findings(findings)
        rendered = analysis.format_text(active)
        assert active == [], f"tree must lint clean:\n{rendered}"
        # the sanctioned suppressions all carry reasons
        for finding in findings:
            assert finding.suppressed and finding.suppress_reason

    def test_reintroducing_a_grep_gated_pattern_fails(self):
        # the acceptance scenario: the old grep gates' patterns still fail
        regressions = {
            "id-cache-key": (
                "repro/kb/matcher.py",
                "cache[id(document)] = state\n",
            ),
            "bare-sleep": (
                "repro/runtime/runner.py",
                "import time\n\nwhile not done():\n    time.sleep(1)\n",
            ),
            "rounded-confidence": (
                "repro/runtime/runner.py",
                "row['confidence'] = round(extraction.confidence, 4)\n",
            ),
        }
        for rule_id, (module, source) in regressions.items():
            assert active_ids(lint(source, module)) == [rule_id], rule_id
