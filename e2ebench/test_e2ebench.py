"""Self-tests of the benchmark: ``python -m pytest e2ebench -q``.

They cover the statistics every metric leans on (the tail rule, backlog
detection, the accuracy scorer), the input guarantees (determinism, no
repeats in ``serve``, exact repeats in ``recrawl``, no overlap between
training and served pages), and the contract between the code and
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import loadgen
import replay
import run
import stats
import workloads
from checks import score

BENCH_DIR = Path(__file__).resolve().parent


# -- statistics -----------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    assert stats.tail(range(1, 101)) == (90.0, 90.0, 100)
    value, percentile, count = stats.tail(range(1, 12))
    assert (value, count) == (1.0, 11)
    assert percentile == pytest.approx(100 / 11)
    assert stats.tail([3, 1, 2]) == (3.0, 100.0, 3)


def test_backlog_flat_when_server_keeps_up():
    due = [index * 0.01 for index in range(200)]
    done = [d + 0.004 for d in due]
    assert not stats.backlog_grows(due, done, 2)


def test_backlog_grows_when_service_is_slower_than_arrivals():
    due = [index * 0.01 for index in range(200)]
    done = [0.015 * (index + 1) for index in range(200)]
    assert stats.backlog_grows(due, done, 2)


def test_backlog_that_drains_is_not_growing():
    due = [index * 0.01 for index in range(200)]
    # An early stall (everything queued behind 0.3 s), then caught up.
    done = [max(0.3, d) + 0.002 for d in due]
    assert not stats.backlog_grows(due, done, 2)


def test_unanswered_requests_count_as_backlog():
    due = [index * 0.01 for index in range(100)]
    done = [d + 0.002 if index < 40 else None for index, d in enumerate(due)]
    assert stats.backlog_grows(due, done, 2)


# -- accuracy -------------------------------------------------------------------


def _page(url, gold):
    return inputs.Page("s", url, f"<p>{url}</p>", frozenset(gold), "detail")


def test_score_is_value_level_and_counts_duplicates_once():
    pages = {
        "a": _page("a", {("genre", "drama"), ("director", "ann lee")}),
        "b": _page("b", {("genre", "comedy")}),
    }
    rows = [
        {"page": "a", "predicate": "genre", "object": "Drama"},
        {"page": "a", "predicate": "genre", "object": "Drama!"},  # same fact
        {"page": "a", "predicate": "director", "object": "Bob"},  # wrong
        {"page": "b", "predicate": "genre", "object": "Comedy"},
    ]
    precision, recall = score(rows, lambda row: pages[row["page"]], pages.values())
    assert precision == pytest.approx(2 / 3)
    assert recall == pytest.approx(2 / 3)


def test_score_of_nothing_is_zero():
    page = _page("a", {("genre", "drama")})
    assert score([], lambda row: page, [page]) == (0.0, 0.0)


# -- inputs ---------------------------------------------------------------------


def _wire_digest(data) -> str:
    hasher = hashlib.sha256()
    for request in [r for batch in data.warmups for r in batch] + data.stream:
        hasher.update(request.wire)
    return hasher.hexdigest()


def _tree_digest(root: Path) -> str:
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def serve_pair(tmp_path_factory):
    return [
        (root, inputs.serve_inputs(3, root))
        for root in (tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b"))
    ]


@pytest.fixture(scope="module")
def recrawl_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("recrawl")
    return root, inputs.recrawl_inputs(3, root)


def test_serve_inputs_are_deterministic(serve_pair):
    (root_a, first), (root_b, second) = serve_pair
    assert _wire_digest(first) == _wire_digest(second)
    assert _tree_digest(root_a) == _tree_digest(root_b)


def test_corpus_inputs_are_deterministic(tmp_path):
    for name in ("a", "b"):
        inputs.corpus_inputs(5, tmp_path / name)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert len(list((tmp_path / "a" / "corpus").iterdir())) == 33


def _training_bytes(root: Path) -> set:
    return {path.read_text() for path in (root / "train").rglob("*.html")}


def test_serve_repeats_nothing_and_never_serves_training_pages(serve_pair):
    root, data = serve_pair[0]
    warmups = data.warmups[-1]
    properties = inputs.workload_properties(data, warmups, data.stream, 8)
    assert properties["repeat_share"] == 0.0
    every_page = [p.html for batch in data.warmups for r in batch for p in r.pages]
    every_page += [p.html for r in data.stream for p in r.pages]
    assert len(every_page) == len(set(every_page))
    assert not _training_bytes(root) & set(every_page)


def test_recrawl_repeats_exactly_its_share(recrawl_data):
    root, data = recrawl_data
    properties = inputs.workload_properties(data, data.warmups[-1], data.stream, 8)
    assert properties["repeat_share"] == pytest.approx(
        inputs.RECRAWL_REPEATS / inputs.RECRAWL_PAGES_PER_REQUEST
    )
    # ... over any prefix of whole requests, too.
    prefix = inputs.workload_properties(data, data.warmups[-1], data.stream[:7], 8)
    assert prefix["repeat_share"] == properties["repeat_share"]
    assert properties["sites"] == 33 and properties["unseen_site_share"] > 0
    served = {p.html for r in data.stream for p in r.pages}
    assert not _training_bytes(root) & served


# -- wire and traces ------------------------------------------------------------


def test_parse_response_waits_for_the_whole_body():
    head = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"
    assert loadgen.parse_response(head + b"ab") is None
    status, body, consumed, close = loadgen.parse_response(head + b"abcdeXYZ")
    assert (status, body, consumed, close) == (200, b"abcde", len(head) + 5, False)


def test_histogram_quantile_interpolates_inside_buckets():
    histogram = {"buckets": [1.0, 2.0], "counts": [0, 4, 0], "max": 1.9}
    assert workloads.histogram_quantile(histogram, 2) == pytest.approx(1.5)
    assert workloads.histogram_quantile(histogram, 4) == pytest.approx(2.0)


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "bench.annotate", "span_id": "p", "parent_id": None,
         "start": 0.0, "duration": 1.0},
        {"name": "stage.annotate", "span_id": "c", "parent_id": "p",
         "start": 0.1, "duration": 0.8},
        {"name": "stage.cluster", "span_id": "g", "parent_id": "c",
         "start": 0.2, "duration": 0.3},
    ]
    totals = replay.self_times(spans)
    assert totals["annotation.annotate_s"] == pytest.approx(0.2 + 0.5)


# -- the contract ---------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    finished = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert "correct" not in finished.stdout
