"""The three workloads: what runs, what is timed, what each metric means.

``corpus``  — batch: ``run-corpus`` over the 33-site long-tail corpus.
``serve``   — ``serve-http`` in front of 8 resident SWDE sites: keep-alive
              clients back to back, then an open-loop rate ladder.
``recrawl`` — closed loop: ``serve-http`` over all 33 corpus sites, more
              than the resident cap, 3 of them zero-shot, 25% repeats.

Set-up (training, server start, warm-up) is timed as ``setup_s`` and
kept out of every other metric.  Output checks run after the timed
phase, so they never compete with the program for the host's cores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import CeresConfig
from repro.obs import MetricsRegistry

import inputs
import loadgen
import replay
import stats
from checks import CheckFailed, check_served, digest_lines, digest_rows, score
from programs import Cli, Server

#: tail latency limit of the ``serve`` ladder, ms.  Roughly 30x today's
#: uncontended 1-page service time: the ladder measures capacity, not jitter.
LIMIT_MS = 100.0
#: rounds the ``recrawl`` closed loops are split into (see _recrawl_phases).
RECRAWL_ROUNDS = 3
LADDER_START_RPS = 24.0
LADDER_RATIO = 1.5
LADDER_REFINE_STEPS = 3
LADDER_MAX_RPS = 2000.0
#: connections (and run-corpus workers / server threads): the host's nproc.
CONNECTIONS = 2


@dataclass
class Result:
    """What a workload run measured, before it is reported."""

    metrics: dict
    attempted: int
    failed: int
    properties: dict = field(default_factory=dict)
    #: metric -> (percentile, samples) for every tail metric.
    tails: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    source: Path
    work: Path
    attempted: int = 0
    failed: int = 0
    timings: MetricsRegistry = field(default_factory=MetricsRegistry)
    servers: list = field(default_factory=list)

    def __post_init__(self) -> None:
        (self.work / "logs").mkdir(parents=True, exist_ok=True)
        self.cli = Cli(self.source, self.work / "logs", self.timings)

    def path(self, *parts) -> Path:
        path = self.work.joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def server(self, args) -> Server:
        server = Server(self.cli, args, self.work)
        self.servers.append(server)
        return server

    def close(self) -> None:
        """Stop whatever is still running (an aborted run's servers)."""
        for server in self.servers:
            server.kill()

    def timing_summary(self) -> dict:
        return {
            name: {"count": data["count"], "sum": data["sum"]}
            for name, data in self.timings.snapshot()["histograms"].items()
        }


def _latency_metrics(metrics: dict, tails: dict, name: str, values: list) -> None:
    """``p50_ms<name>`` and ``tail_ms<name>`` from latency samples (ms)."""
    metrics[f"p50_ms{name}"] = stats.median(values)
    value, percentile, count = stats.tail(values)
    metrics[f"tail_ms{name}"] = value
    tails[f"tail_ms{name}"] = (percentile, count)
    if value == float("inf") or metrics[f"p50_ms{name}"] == float("inf"):
        raise CheckFailed(f"requests failed during a fixed phase ({name or 'all'})")


# -- corpus ------------------------------------------------------------------


def _corpus_launch(context: Context, data, label: str, workers: int, trace: bool):
    """One ``run-corpus`` launch on an empty registry and run dir."""
    args = [
        "run-corpus", "--kb", data.kb_path, "--corpus", data.corpus_dir,
        "--registry", context.path(label, "registry"),
        "--output", context.path(label, "rows.jsonl"),
        "--fuse-output", context.path(label, "fused.jsonl"),
        "--run-dir", context.path(label, "run"),
        "--workers", workers,
    ]
    if trace:
        args += [
            "--trace-output", context.path(label, "spans.jsonl"),
            "--metrics-output", context.path(label, "metrics.json"),
        ]
    finished = context.cli.run(args, "bench.corpus_launch", context.work)
    reports = {}
    for line in context.path(label, "run", "journal.jsonl").read_text().splitlines():
        event = json.loads(line)
        if event.get("event") == "site" and "report" in event:
            reports[event["site"]] = event["report"]
    return {"label": label, "exit": finished, "reports": reports}


def _check_corpus(context: Context, data, launches: list) -> dict:
    """Rows identical across launches and worker counts; fused output
    identical to ``repro fuse --kb`` over the launch's own rows."""
    digests = set()
    fused_digests = set()
    for launch in launches:
        rows_text = context.path(launch["label"], "rows.jsonl").read_text()
        digests.add(digest_lines(rows_text.splitlines()))
        fused = context.path(launch["label"], "fused.jsonl").read_text()
        fused_digests.add(digest_lines(fused.splitlines()))
    if len(digests) != 1 or len(fused_digests) != 1:
        raise CheckFailed("run-corpus rows or fused facts differ between launches")
    first = launches[0]["label"]
    refused = context.path(first, "refused.jsonl")
    context.cli.run(
        ["fuse", "--input", context.path(first, "rows.jsonl"), "--kb", data.kb_path,
         "--output", refused],
        "bench.check", context.work,
    )
    if refused.read_bytes() != context.path(first, "fused.jsonl").read_bytes():
        raise CheckFailed("run-corpus --fuse-output differs from `repro fuse --kb`")
    return {"rows_digest": digests.pop(), "fused_digest": fused_digests.pop()}


def _count_sites(context: Context, launches: list) -> None:
    for launch in launches:
        context.attempted += len(launch["reports"])
        context.failed += sum(1 for r in launch["reports"].values() if not r["ok"])


def _launch_ms(launches: list) -> list:
    return [launch["exit"].seconds * 1000.0 for launch in launches]


def run_corpus(context: Context) -> Result:
    with context.timings.timer("bench.generate"):
        data = inputs.corpus_inputs(context.seed, context.path("inputs"))
    n_sites = len(list(data.corpus_dir.iterdir()))
    pages_by_site: dict = {}
    for site, _ in data.pages:
        pages_by_site[site] = pages_by_site.get(site, 0) + 1
    if context.trace:
        return _trace_corpus(context, data)

    startups = []
    for index in range(inputs.SETUP_REPEATS):
        label = f"startup{index}"
        startups.append(context.cli.run(
            ["run-corpus", "--kb", data.kb_path, "--corpus", data.startup_dir,
             "--registry", context.path(label, "registry"),
             "--output", context.path(label, "rows.jsonl"),
             "--workers", CONNECTIONS],
            "bench.setup", context.work,
        ).seconds)

    # --workers 2 launches bracket the --workers 1 ones: how long a
    # --workers 2 launch takes varies with which sites share the cores, so
    # its figures are medians over launches at both ends of the run.
    # Pairs repeat until --seconds of launch time have passed.
    busy = [_corpus_launch(context, data, "busy0", CONNECTIONS, False)]
    light: list = []
    while not light or sum(l["exit"].seconds for l in busy + light) < context.seconds:
        light.append(_corpus_launch(context, data, f"light{len(light)}", 1, False))
        busy.append(_corpus_launch(context, data, f"busy{len(busy)}", CONNECTIONS, False))
    launches = busy + light
    _count_sites(context, launches)
    checks = _check_corpus(context, data, launches)
    rows = [
        json.loads(line)
        for line in context.path(busy[0]["label"], "rows.jsonl").read_text().splitlines()
    ]
    precision, recall = score(
        rows, lambda row: data.pages[(row["site"], row["page"])], data.pages.values()
    )
    metrics: dict = {}
    tails: dict = {}

    def ok_pages(launch) -> int:
        return sum(pages_by_site[s] for s, r in launch["reports"].items() if r["ok"])

    metrics["pages_per_s"] = stats.median(
        ok_pages(launch) / launch["exit"].seconds for launch in busy
    )
    metrics["max_rps"] = stats.median(
        sum(1 for r in launch["reports"].values() if r["ok"]) / launch["exit"].seconds
        for launch in busy
    )
    # A batch job's latency is launch to exit.  Per-site times are too
    # chaotic under --workers 2 (which sites share the cores, BLAS threads
    # spinning) to compare runs by; they stay in the traced run as
    # runner.site_s.* and in the result's detail.
    _latency_metrics(metrics, tails, ".light", _launch_ms(light))
    _latency_metrics(metrics, tails, ".busy", _launch_ms(busy))
    _latency_metrics(metrics, tails, "", _launch_ms(launches))
    metrics["ok_rate"] = 1.0 - context.failed / context.attempted
    metrics["precision"] = precision
    metrics["recall"] = recall
    metrics["peak_rss_mib"] = max(launch["exit"].peak_rss_mib for launch in launches)
    metrics["setup_s"] = stats.median(startups)
    return Result(
        metrics, context.attempted, context.failed,
        properties={
            "sites": n_sites,
            "pages": len(data.pages),
            "bytes_per_page": sum(len(p.html.encode()) for p in data.pages.values())
            / len(data.pages),
            "templates_per_site": sum(
                len({p.kind for (s, _), p in data.pages.items() if s == site})
                for site in pages_by_site
            ) / n_sites,
            "launches": len(launches),
        },
        tails=tails,
        checks=checks,
        detail={
            "launch_seconds": {l["label"]: l["exit"].seconds for l in launches},
            "site_seconds": {
                l["label"]: {site: r["seconds"] for site, r in l["reports"].items()}
                for l in launches
            },
        },
    )


def _trace_corpus(context: Context, data) -> Result:
    """Untraced and traced ``--workers 2`` launches back to back, a
    ``--workers 1`` pass for the speed-up, then the in-process replay."""
    reference = _corpus_launch(context, data, "reference", CONNECTIONS, False)
    traced = _corpus_launch(context, data, "traced", CONNECTIONS, True)
    single = _corpus_launch(context, data, "single", 1, False)
    launches = [reference, traced, single]
    _count_sites(context, launches)
    checks = _check_corpus(context, data, launches)
    snapshot = json.loads(context.path("traced", "metrics.json").read_text())
    counters = snapshot["counters"]
    site_seconds = [
        span["duration"]
        for span in map(json.loads, context.path("traced", "spans.jsonl").read_text().splitlines())
        if span["name"] == "site.run"
    ]
    with context.timings.timer("bench.replay"):
        layers = replay.replay_corpus(data, context.path("replay", "registry"))
    layers["registry.loads"] = layers.pop("registry.replay_loads")
    hits = counters.get("cache.resident_sites.hits", 0)
    misses = counters.get("cache.resident_sites.misses", 0)
    layers.update({
        "service.resident_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "service.evictions": counters.get("cache.resident_sites.evictions", 0),
        "runner.site_s.p50": stats.median(site_seconds),
        "runner.site_s.max": max(site_seconds),
        "runner.speedup": single["exit"].seconds / reference["exit"].seconds,
        "runner.retries": counters.get("runner.retries", 0),
        "runner.sites_failed": counters.get("runner.sites_failed", 0),
        "obs.trace_overhead": traced["exit"].seconds / reference["exit"].seconds - 1.0,
    })
    return Result(
        layers, context.attempted, context.failed, checks=checks,
        detail={"launch_seconds": {l["label"]: l["exit"].seconds for l in launches}},
    )


# -- serving workloads -------------------------------------------------------


class _Stream:
    """The pre-encoded request stream, consumed in order."""

    def __init__(self, requests: list) -> None:
        self.requests = requests
        self.cursor = 0

    def take(self, count: int):
        if self.cursor + count > len(self.requests):
            return None
        taken = self.requests[self.cursor:self.cursor + count]
        self.cursor += count
        return taken

    def give_back(self, unsent: list) -> None:
        self.cursor -= len(unsent)

    def rest(self) -> list:
        return self.requests[self.cursor:]


def _train(context: Context, data, registry: Path, train_global: bool) -> float:
    seconds = 0.0
    for index, (kb_path, corpus_dir) in enumerate(data.trainings):
        args = [
            "run-corpus", "--kb", kb_path, "--corpus", corpus_dir,
            "--registry", registry,
            "--output", context.path(f"train{index}.jsonl"),
            "--workers", CONNECTIONS,
        ]
        if train_global:
            args.append("--train-global")
        seconds += context.cli.run(args, "bench.setup_train", context.work).seconds
    return seconds


def _start(context: Context, args, warmups: list) -> tuple[Server, float]:
    """Start a server and warm every site once; returns it and the
    seconds from launch to the last warm-up answer."""
    server = context.server(args)
    with context.timings.timer("bench.setup_start") as timing:
        server.start()
        for request in warmups:
            outcome = loadgen.roundtrip(server.port, request)
            if not outcome.ok:
                raise CheckFailed(
                    f"warm-up for {request.site} answered {outcome.status}: "
                    f"{outcome.body[:300]!r}"
                )
    return server, timing.elapsed


def _stop(server: Server) -> float:
    finished = server.stop()
    if finished.code != 0:
        raise CheckFailed(f"serve-http exited {finished.code} on SIGTERM")
    return finished.peak_rss_mib


def _setup(context: Context, data, server_args, train_global: bool):
    """Train once, then start the server :data:`inputs.SETUP_REPEATS`
    times (the last one stays up); ``setup_s`` is the training time plus
    the median start-and-warm-up time."""
    registry = context.path("registry")
    train_s = _train(context, data, registry, train_global)
    starts = []
    server = None
    for warmups in data.warmups:
        if server is not None:
            _stop(server)
        server, seconds = _start(context, ["--registry", registry, *server_args], warmups)
        starts.append(seconds)
    return registry, server, train_s + stats.median(starts), {
        "train_s": train_s, "start_s": starts,
    }


def _verify(context: Context, data, registry, warmups, outcomes, trace: bool):
    """Replay what the server answered, in the order it received it, and
    compare rows; score accuracy.  Returns the replay (aligned with the
    outcomes sorted by send time), the served rows and the accuracy."""
    outcomes = sorted(outcomes, key=lambda outcome: outcome.sent)
    sent = [outcome.request for outcome in outcomes]
    with context.timings.timer("bench.replay"):
        expected = replay.replay_requests(
            registry, warmups, sent, data.trained_sites, trace
        )
    rows = check_served(outcomes, expected["rows"], data.trained_sites)
    expected["outcomes"] = outcomes
    pages = {(p.site, p.url): p for request in sent for p in request.pages}
    precision, recall = score(
        rows, lambda row: pages[(row["site"], row["page"])], pages.values()
    )
    return expected, rows, precision, recall


def _count(context: Context, phases) -> None:
    for phase in phases:
        context.attempted += len(phase.outcomes)
        context.failed += phase.failed


def run_serve(context: Context) -> Result:
    with context.timings.timer("bench.generate"):
        data = inputs.serve_inputs(context.seed, context.path("inputs"))
    if context.trace:
        return _trace_serving(context, data, "serve")
    registry, server, setup_s, setup_detail = _setup(context, data, [], False)
    stream = _Stream(list(data.stream))
    phases, ladder = _serve_phases(context, server.port, stream)
    rss = _stop(server)
    light, busy = phases["light"], phases["busy"]
    _count(context, phases.values())
    outcomes = [o for phase in phases.values() for o in phase.outcomes]
    outcomes += ladder["outcomes"]
    _, rows, precision, recall = _verify(
        context, data, registry, data.warmups[-1], outcomes, False
    )
    metrics: dict = {}
    tails: dict = {}
    _latency_metrics(metrics, tails, ".light", light.latencies_ms)
    _latency_metrics(metrics, tails, ".busy", busy.latencies_ms)
    _latency_metrics(metrics, tails, "", busy.latencies_ms)
    metrics.update({
        "pages_per_s": busy.pages_per_s(),
        "max_rps": ladder["max_rps"],
        "ok_rate": 1.0 - context.failed / context.attempted,
        "precision": precision,
        "recall": recall,
        "peak_rss_mib": rss,
        "setup_s": setup_s,
    })
    return Result(
        metrics, context.attempted, context.failed,
        properties=inputs.workload_properties(
            data, data.warmups[-1], [o.request for o in outcomes],
            CeresConfig().max_resident_sites,
        ),
        tails=tails,
        checks={"rows_digest": digest_rows(rows)},
        detail={
            "setup": setup_detail,
            "ladder": ladder["rungs"],
            "supply_exhausted": ladder["supply_exhausted"],
            "lateness_ms": {
                name: phase.lateness_max_s * 1000 for name, phase in phases.items()
            },
        },
    )


def _serve_phases(context: Context, port: int, stream: _Stream, mark=lambda label: None):
    """``light``: one keep-alive client sending back to back; ``busy``:
    two; then the open-loop ladder on two new connections.  ``mark`` runs
    before and after the busy phase."""
    phases = {}
    for name, connections in (("light", 1), ("busy", CONNECTIONS)):
        generator = loadgen.LoadGenerator(port, connections)
        try:
            if name == "busy":
                mark("busy-start")
            phases[name] = generator.closed_loop(stream.rest(), 0.3 * context.seconds)
            if name == "busy":
                mark("busy-end")
        finally:
            generator.close()
        stream.cursor += len(phases[name].outcomes)
    outcomes: list = []
    generator = loadgen.LoadGenerator(port, CONNECTIONS)
    try:
        ladder = loadgen.ladder(
            generator, stream.take, stream.give_back,
            start_rate=LADDER_START_RPS, ratio=LADDER_RATIO,
            per_rung=max(2 * stats.TAIL_BEYOND, round(3.2 * context.seconds)),
            limit_ms=LIMIT_MS, refine_steps=LADDER_REFINE_STEPS,
            max_rate=LADDER_MAX_RPS, collect=outcomes,
        )
    finally:
        generator.close()
    ladder["outcomes"] = outcomes
    return phases, ladder


def run_recrawl(context: Context) -> Result:
    with context.timings.timer("bench.generate"):
        data = inputs.recrawl_inputs(context.seed, context.path("inputs"))
    if context.trace:
        return _trace_serving(context, data, "recrawl")
    registry, server, setup_s, setup_detail = _setup(
        context, data, ["--transfer-fallback"], True
    )
    stream = _Stream(list(data.stream))
    light, busy = _recrawl_phases(context, server.port, stream)
    rss = _stop(server)
    _count(context, [light, busy])
    outcomes = light.outcomes + busy.outcomes
    _, rows, precision, recall = _verify(
        context, data, registry, data.warmups[-1], outcomes, False
    )
    metrics: dict = {}
    tails: dict = {}
    _latency_metrics(metrics, tails, ".light", light.latencies_ms)
    _latency_metrics(metrics, tails, ".busy", busy.latencies_ms)
    _latency_metrics(metrics, tails, "", busy.latencies_ms)
    busy_seconds = busy.ended - busy.started
    metrics.update({
        "pages_per_s": busy.pages_per_s(),
        "max_rps": sum(1 for o in busy.outcomes if o.ok) / busy_seconds,
        "ok_rate": 1.0 - context.failed / context.attempted,
        "precision": precision,
        "recall": recall,
        "peak_rss_mib": rss,
        "setup_s": setup_s,
    })
    return Result(
        metrics, context.attempted, context.failed,
        properties=inputs.workload_properties(
            data, data.warmups[-1], [o.request for o in outcomes],
            CeresConfig().max_resident_sites,
        ),
        tails=tails,
        checks={"rows_digest": digest_rows(rows)},
        detail={
            "setup": setup_detail,
            "supply_exhausted": stream.cursor >= len(stream.requests),
            "lateness_ms": {
                "light": light.lateness_max_s * 1000, "busy": busy.lateness_max_s * 1000,
            },
        },
    )


def _recrawl_phases(context: Context, port: int, stream: _Stream, mark=lambda label: None):
    """Closed loops in :data:`RECRAWL_ROUNDS` rounds — one connection for
    a third of the round, then two — so each phase spans the whole run;
    returns the merged ``light`` (one connection) and ``busy`` (two)
    phases.  ``mark`` runs before and after each busy chunk."""
    chunks: dict = {"light": [], "busy": []}
    seconds = context.seconds / RECRAWL_ROUNDS
    for _ in range(RECRAWL_ROUNDS):
        for name, connections, share in (("light", 1, 1 / 3), ("busy", CONNECTIONS, 2 / 3)):
            generator = loadgen.LoadGenerator(port, connections)
            try:
                if name == "busy":
                    mark("busy-start")
                phase = generator.closed_loop(stream.rest(), seconds * share)
                if name == "busy":
                    mark("busy-end")
            finally:
                generator.close()
            stream.cursor += len(phase.outcomes)
            chunks[name].append(phase)
    return loadgen.merge(chunks["light"]), loadgen.merge(chunks["busy"])


# -- traced serving ------------------------------------------------------------


def _histogram_delta(after: dict, before: dict, name: str) -> dict | None:
    now = after["metrics"]["histograms"].get(name)
    if now is None:
        return None
    then = before["metrics"]["histograms"].get(name)
    counts = list(now["counts"])
    total = now["sum"]
    if then is not None:
        counts = [a - b for a, b in zip(counts, then["counts"])]
        total -= then["sum"]
    return {"buckets": now["buckets"], "counts": counts, "sum": total,
            "count": sum(counts), "max": now["max"]}


def histogram_quantile(histogram: dict, rank: int) -> float:
    """Value of the ``rank``-th (1-based) smallest observation, linearly
    interpolated inside its fixed bucket."""
    cumulative = 0
    lower = 0.0
    bounds = list(histogram["buckets"]) + [histogram["max"]]
    for bound, count in zip(bounds, histogram["counts"]):
        if count and cumulative + count >= rank:
            return lower + (bound - lower) * (rank - cumulative) / count
        cumulative += count
        lower = bound
    return float(histogram["max"] or 0.0)


def _counter_delta(after: dict, before: dict, name: str) -> float:
    return after["metrics"]["counters"].get(name, 0) - before["metrics"]["counters"].get(name, 0)


def _trace_serving(context: Context, data, workload: str) -> Result:
    """An untraced reference (a closed loop on two keep-alive
    connections), then the whole workload against a server launched with
    ``--trace-output``/``--metrics-output``, then the traced replay.
    ``obs.trace_overhead`` compares the reference's pages/s with the
    traced run's closed loop.  Server-side splits are /stats deltas over
    the busy chunks; registry and residency counts are deltas over the
    run."""
    server_args = ["--transfer-fallback"] if workload == "recrawl" else []
    registry = context.path("registry")
    _train(context, data, registry, workload == "recrawl")
    stream = _Stream(list(data.stream))

    server, _ = _start(context, ["--registry", registry, *server_args], data.warmups[0])
    generator = loadgen.LoadGenerator(server.port, CONNECTIONS)
    try:
        reference = generator.closed_loop(stream.rest(), context.seconds / 3)
    finally:
        generator.close()
    stream.cursor += len(reference.outcomes)
    _stop(server)
    _verify(context, data, registry, data.warmups[0], reference.outcomes, False)

    trace_args = [
        "--trace-output", context.path("traced", "spans.jsonl"),
        "--metrics-output", context.path("traced", "metrics.json"),
    ]
    server, _ = _start(
        context, ["--registry", registry, *server_args, *trace_args], data.warmups[1]
    )
    marks: list = []

    def mark(label):
        marks.append((label, server.get("/stats")))

    mark("start")
    if workload == "serve":
        phases, ladder = _serve_phases(context, server.port, stream, mark)
        light, busy = phases["light"], phases["busy"]
        timed = list(phases.values())
        sent = [o for phase in timed for o in phase.outcomes] + ladder["outcomes"]
    else:
        light, busy = _recrawl_phases(context, server.port, stream, mark)
        timed = [light, busy]
        sent = light.outcomes + busy.outcomes
    overhead = reference.pages_per_s() / busy.pages_per_s() - 1.0
    mark("end")
    _stop(server)
    _count(context, [reference, *timed])
    expected, _, _, _ = _verify(context, data, registry, data.warmups[1], sent, True)
    layers = expected["layers"]
    layers.pop("registry.replay_loads")
    before, after = marks[0][1], marks[-1][1]
    busy_chunks = [
        _histogram_delta(end, start, "serving.request_seconds")
        for start, end in zip(
            [snapshot for label, snapshot in marks if label == "busy-start"],
            [snapshot for label, snapshot in marks if label == "busy-end"],
        )
    ]
    busy_hist = dict(busy_chunks[0])
    busy_hist["counts"] = [sum(c) for c in zip(*(h["counts"] for h in busy_chunks))]
    busy_hist["sum"] = sum(h["sum"] for h in busy_chunks)
    busy_hist["count"] = n = sum(h["count"] for h in busy_chunks)
    server_p50 = histogram_quantile(busy_hist, (n + 1) // 2)
    busy_ids = {id(outcome) for outcome in busy.outcomes}
    busy_work = sum(
        seconds
        for outcome, seconds in zip(expected["outcomes"], expected["work_s"])
        if id(outcome) in busy_ids
    )
    batch = _histogram_delta(after, before, "serving.batch_pages")
    sites_now = after["service"]["sites"]
    sites_then = before["service"]["sites"]
    transfers = _counter_delta(after, before, "transfer.requests")
    misses = sites_now["misses"] - sites_then["misses"] - transfers
    hits = sites_now["hits"] - sites_then["hits"]
    layers.update({
        "registry.loads": misses,
        "service.resident_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "service.evictions": sites_now["evictions"] - sites_then["evictions"],
        "transfer.pages": _counter_delta(after, before, "transfer.pages"),
        "serving.request_s.p50": server_p50,
        "serving.request_s.tail": histogram_quantile(
            busy_hist, max(1, n - stats.TAIL_BEYOND)
        ),
        "serving.transport_ms.p50": stats.median(busy.latencies_ms) - server_p50 * 1000.0,
        "serving.queue_wait_s": max(0.0, busy_hist["sum"] - busy_work),
        "serving.batch_pages": batch["sum"] / batch["count"] if batch and batch["count"] else 0.0,
        "serving.shed": _counter_delta(after, before, "serving.shed"),
        "serving.deadline_expired": _counter_delta(after, before, "serving.deadline_expired")
        + _counter_delta(after, before, "serving.deadline_expired_queued"),
        "client.sent": len(sent),
        "client.ok": sum(1 for o in sent if o.ok),
        "client.failed": sum(1 for o in sent if not o.ok),
        "client.lateness_ms.max": 1000.0 * max(phase.lateness_max_s for phase in timed),
        "obs.trace_overhead": overhead,
    })
    return Result(
        layers, context.attempted, context.failed,
        detail={
            "server_busy_requests": n,
            "server_tail_percentile": 100.0 * (n - stats.TAIL_BEYOND) / n if n else None,
        },
    )


WORKLOADS = {"corpus": run_corpus, "serve": run_serve, "recrawl": run_recrawl}
