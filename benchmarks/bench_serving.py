"""Serving-tier latency, shedding, and observability tax.

Three scenarios against a real in-process :class:`ServingServer`
(threaded HTTP, loopback):

1. **Steady load** — concurrent clients issue single-page ``/extract``
   requests against a warm site model.  Reports client-observed p50/p99
   latency, throughput, and the resident-set high-water mark.  Gate:
   every request returns 200.

2. **Overload burst** — a burst far wider than ``workers`` +
   ``max_queue_depth`` lands at once.  Gates: every request is answered
   (served or shed — none hang, none error), at least one request is
   shed 429, and the server's ``serving.shed`` counter agrees with the
   client-side count (the shed path is observable, not silent).

3. **Observability tax** — the steady scenario re-run with metrics on
   vs. off, interleaved best-of-N.  Gate: enabled keeps at least
   ``OBS_MIN_RATIO`` of disabled throughput.

Tier-1 runs the first two scenarios and their gates on 24 pages with 4
clients x 6 requests; the tax is a timing, which tier-1 does not gate.

Run::

    PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for conftest.report
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from conftest import report, report_metrics  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.config import CeresConfig  # noqa: E402
from repro.core.pipeline import CeresPipeline  # noqa: E402
from repro.datasets import generate_swde, seed_kb_for  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.runtime import ExtractionService, SiteModel  # noqa: E402
from repro.serving import ServingConfig, ServingServer  # noqa: E402

#: Enabled-mode throughput must keep this fraction of disabled-mode.
OBS_MIN_RATIO = 0.97
#: Best-of-N per mode, interleaved: a threaded loopback server's
#: throughput jitters several percent run-to-run, so the gate compares
#: each mode's best round rather than any single sample.
OBS_ROUNDS = 5
BURST_WIDTH = 32


def rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def build_world(n_pages: int) -> dict:
    dataset = generate_swde("movie", n_sites=1, pages_per_site=n_pages,
                            seed=17)
    kb = seed_kb_for(dataset, 17)
    site = dataset.sites[0]
    documents = [page.document for page in site.pages]
    config = CeresConfig()
    result = CeresPipeline(kb, config).run(documents, documents)
    service = ExtractionService()
    service.add_site_model(SiteModel.from_result(site.name, config, result))
    return {
        "service": service,
        "site": site.name,
        "html": [page.html for page in site.pages],
    }


def post_extract(port: int, payload: dict, timeout: float = 60.0) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/extract", body=json.dumps(payload))
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def drive(
    server: ServingServer,
    world: dict,
    n_clients: int,
    requests_per_client: int,
    bench: MetricsRegistry,
) -> tuple[list[int], list[float], float]:
    """Closed-loop load: each client thread issues its requests
    back-to-back.  Returns (statuses, per-request latencies, wall)."""
    statuses: list[int] = []
    latencies: list[float] = []
    lock = threading.Lock()

    def client(offset: int) -> None:
        for index in range(requests_per_client):
            page = world["html"][(offset + index) % len(world["html"])]
            payload = {"site": world["site"],
                       "pages": [{"html": page, "url": f"c{offset}-{index}"}]}
            with bench.timer("bench.request_seconds") as timing:
                status = post_extract(server.port, payload)
            with lock:
                statuses.append(status)
                latencies.append(timing.elapsed)

    threads = [
        threading.Thread(target=client, args=(offset,))
        for offset in range(n_clients)
    ]
    with bench.timer("bench.drive_seconds") as wall:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return statuses, latencies, wall.elapsed


def run_steady(world: dict, n_clients: int, per_client: int,
               bench: MetricsRegistry) -> dict:
    config = ServingConfig(port=0, workers=2, batch_linger=0.005,
                           request_deadline=120.0)
    obs.enable(tracing=False, metrics=True)
    server = ServingServer(world["service"], config)
    server.start()
    try:
        # Warm the extractor pool outside timing.
        post_extract(server.port, {
            "site": world["site"],
            "pages": [{"html": world["html"][0], "url": "warm"}],
        })
        statuses, latencies, wall = drive(
            server, world, n_clients, per_client, bench
        )
        rss = rss_mib()
    finally:
        server.stop()
        obs.disable()
    total = len(statuses)
    return {
        "requests": total,
        "all_200": statuses.count(200) == total,
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p99_ms": percentile(latencies, 0.99) * 1000.0,
        "rps": total / wall if wall else 0.0,
        "rss_mib": rss,
    }


def run_burst(world: dict, bench: MetricsRegistry) -> dict:
    # batch_max_pages=1 pins each batch to a single request (no merging),
    # so the lone worker serializes the burst and its tail must find the
    # queue full.
    config = ServingConfig(port=0, workers=1, max_queue_depth=4,
                           batch_max_pages=1, request_deadline=120.0,
                           retry_after=0.5)
    obs.enable(tracing=False, metrics=True)
    server = ServingServer(world["service"], config)
    server.start()
    try:
        post_extract(server.port, {
            "site": world["site"],
            "pages": [{"html": world["html"][0], "url": "warm"}],
        })
        pages = [
            {"html": html, "url": f"b{index}"}
            for index, html in enumerate(world["html"])
        ]
        payload = {"site": world["site"], "pages": pages}
        statuses: list[int] = []
        lock = threading.Lock()

        def one() -> None:
            status = post_extract(server.port, payload)
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=one) for _ in range(BURST_WIDTH)]
        with bench.timer("bench.burst_seconds") as wall:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        counters = server.stats_payload()["metrics"]["counters"]
    finally:
        server.stop()
        obs.disable()
    shed = statuses.count(429)
    served = statuses.count(200)
    return {
        "burst": BURST_WIDTH,
        "served": served,
        "shed": shed,
        "answered": len(statuses),
        "shed_rate": shed / BURST_WIDTH,
        "counter_agrees": counters.get("serving.shed", 0) == shed,
        "burst_seconds": wall.elapsed,
    }


def run_obs_tax(world: dict, n_clients: int, per_client: int,
                bench: MetricsRegistry) -> dict:
    """Interleaved best-of-N: the same closed loop with the process-wide
    obs registry off vs. on."""

    def one_round(metrics_on: bool) -> float:
        if metrics_on:
            obs.enable(tracing=False, metrics=True)
        else:
            obs.disable()
        config = ServingConfig(port=0, workers=2, request_deadline=120.0)
        server = ServingServer(world["service"], config)
        server.start()
        try:
            post_extract(server.port, {
                "site": world["site"],
                "pages": [{"html": world["html"][0], "url": "warm"}],
            })
            statuses, _, wall = drive(
                server, world, n_clients, per_client, bench
            )
            assert all(status == 200 for status in statuses)
        finally:
            server.stop()
            obs.disable()
        return len(statuses) / wall

    disabled_best = enabled_best = 0.0
    for _ in range(OBS_ROUNDS):
        disabled_best = max(disabled_best, one_round(False))
        enabled_best = max(enabled_best, one_round(True))
    return {
        "obs_disabled_rps": disabled_best,
        "obs_enabled_rps": enabled_best,
        "obs_ratio": enabled_best / disabled_best if disabled_best else 0.0,
    }


def format_table(steady: dict, burst: dict, tax: dict) -> str:
    def verdict(ok: bool) -> str:
        return "MET" if ok else "MISSED"

    lines = [
        "Serving tier: latency, shedding, observability tax",
        f"  steady load            {steady['requests']} requests   "
        f"(all 200: {verdict(steady['all_200'])})",
        f"  latency p50            {steady['p50_ms']:8.1f} ms",
        f"  latency p99            {steady['p99_ms']:8.1f} ms",
        f"  throughput             {steady['rps']:8.1f} req/s",
        f"  resident set           {steady['rss_mib']:8.1f} MiB",
        f"  burst width            {burst['burst']} vs 1 worker + queue 4",
        f"  answered               {burst['answered']}/{burst['burst']}   "
        f"(gate all answered: "
        f"{verdict(burst['answered'] == burst['burst'])})",
        f"  served / shed          {burst['served']} / {burst['shed']}   "
        f"(gate shed >= 1: {verdict(burst['shed'] >= 1)})",
        f"  shed rate              {burst['shed_rate']:8.2f}",
        f"  serving.shed counter agrees      "
        f"{verdict(burst['counter_agrees'])}",
        f"  obs disabled           {tax['obs_disabled_rps']:8.1f} req/s",
        f"  obs enabled            {tax['obs_enabled_rps']:8.1f} req/s",
        f"  obs enabled/disabled   {tax['obs_ratio']:8.3f}    "
        f"(gate >= {OBS_MIN_RATIO:.2f}: "
        f"{verdict(tax['obs_ratio'] >= OBS_MIN_RATIO)})",
    ]
    return "\n".join(lines)


def correctness_failures(steady: dict, burst: dict) -> list[str]:
    """The gates of the steady and burst scenarios."""
    failures = []
    if not steady["all_200"]:
        failures.append("steady load saw a non-200 response")
    if burst["answered"] != burst["burst"]:
        failures.append("a burst request was never answered")
    if burst["shed"] < 1:
        failures.append("overload burst was never shed (backpressure dead)")
    if not burst["counter_agrees"]:
        failures.append("serving.shed counter disagrees with client 429s")
    return failures


def main() -> int:
    n_pages, n_clients, per_client = 48, 8, 12
    bench = MetricsRegistry()
    world = build_world(n_pages)
    steady = run_steady(world, n_clients, per_client, bench)
    burst = run_burst(world, bench)
    tax = run_obs_tax(world, n_clients, per_client, bench)

    report("serving", format_table(steady, burst, tax))
    report_metrics("serving", bench.snapshot())

    failures = correctness_failures(steady, burst)
    if tax["obs_ratio"] < OBS_MIN_RATIO:
        failures.append(
            f"obs overhead ratio {tax['obs_ratio']:.3f} below "
            f"{OBS_MIN_RATIO:.2f}"
        )
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
