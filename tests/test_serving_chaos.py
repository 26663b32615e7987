"""Chaos tests for ``repro serve-http``: a real subprocess, real
signals, injected faults — asserting the crash-safety contract from the
outside.

The contract under test:

* every request the server *accepts* is answered exactly once, even
  when SIGTERM lands mid-flight;
* SIGTERM drains (in-flight work finishes, the listener refuses new
  work) and the process exits 0;
* SIGKILL is survivable for the fleet: the port is released and
  nothing lingers.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_swde, seed_kb_for
from repro.runtime import ModelRegistry, SiteModel
from repro.testing.faults import ENV_VAR, FaultPlan, FaultSpec
from repro.transfer import collect_site_examples, train_global

REPO_ROOT = Path(__file__).resolve().parent.parent
PORT_MARKER = "serving on http://"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A registry directory on disk plus the trained site's raw HTML."""
    dataset = generate_swde("movie", n_sites=2, pages_per_site=10, seed=13)
    kb = seed_kb_for(dataset, 13)
    config = CeresConfig()
    site = dataset.sites[1]
    documents = [page.document for page in site.pages]
    result = CeresPipeline(kb, config).run(documents, documents)
    assert result.extractions
    registry_dir = tmp_path_factory.mktemp("registry")
    registry = ModelRegistry(registry_dir)
    registry.save(SiteModel.from_result(site.name, config, result))
    donor = dataset.sites[0]
    pool = collect_site_examples(
        donor.name, kb, [page.document for page in donor.pages], config
    )
    predicates = sorted(
        {example.label for example in pool.examples if example.label != "OTHER"}
    )
    registry.save_global(train_global([pool], predicates, config=config))
    return {
        "registry": registry_dir,
        "site": site.name,
        "html": [page.html for page in site.pages],
    }


class ServerProcess:
    """Launch ``repro serve-http`` and watch its stderr for the port."""

    def __init__(self, registry, *extra_args, fault_plan=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop(ENV_VAR, None)
        if fault_plan is not None:
            env[ENV_VAR] = fault_plan.to_json()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-http",
                "--registry", str(registry), "--port", "0", *extra_args,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines = []
        self.port = self._await_port(timeout=60.0)
        self._drainer = threading.Thread(target=self._drain_stderr)
        self._drainer.daemon = True
        self._drainer.start()

    def _await_port(self, timeout):
        started = time.monotonic()
        while True:
            line = self.proc.stderr.readline()
            if not line:
                raise AssertionError(
                    "server exited before announcing its port: "
                    + "".join(self.stderr_lines)
                )
            self.stderr_lines.append(line)
            if PORT_MARKER in line:
                address = line.split(PORT_MARKER, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if time.monotonic() - started > timeout:
                raise AssertionError(
                    "no port line within budget: " + "".join(self.stderr_lines)
                )

    def _drain_stderr(self):
        for line in self.proc.stderr:
            self.stderr_lines.append(line)

    def request(self, payload, timeout=30):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout)
        body = (
            payload if isinstance(payload, (str, bytes))
            else json.dumps(payload)
        )
        try:
            conn.request("POST", "/extract", body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def terminate_and_wait(self, timeout=30):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


@pytest.fixture()
def launch(world):
    spawned = []

    def _launch(*extra_args, fault_plan=None):
        server = ServerProcess(
            world["registry"], *extra_args, fault_plan=fault_plan
        )
        spawned.append(server)
        return server

    yield _launch
    for server in spawned:
        server.kill()


def _page_payload(world, index, url=None):
    return {
        "site": world["site"],
        "pages": [
            {"html": world["html"][index], "url": url or f"p{index}"}
        ],
    }


class TestSigterm:
    def test_mid_flight_request_survives_drain(self, world, launch):
        server = launch("--threads", "1", "--batch-linger", "0.3")
        results = []

        def fire(index):
            results.append(server.request(_page_payload(world, index)))

        # With linger on, the worker holds the first request open long
        # enough for SIGTERM to land while it is genuinely in flight.
        thread = threading.Thread(target=fire, args=(0,))
        thread.start()
        time.sleep(0.1)
        code = server.terminate_and_wait()
        thread.join(timeout=30)
        assert code == 0
        assert len(results) == 1
        status, data = results[0]
        assert status == 200
        assert data["extractions"] >= 1
        assert any("drained, exiting" in line for line in server.stderr_lines)

    def test_chaos_mix_every_accepted_request_answered_once(
        self, world, launch
    ):
        """Concurrent good, malformed, and poison traffic under an
        injected fault plan; SIGTERM lands mid-storm.  Every request
        that reached the server gets exactly one definitive reply."""
        plan = FaultPlan(
            [
                FaultSpec(
                    "serving.batch", site=world["site"],
                    action="raise-transient", times=1,
                ),
                FaultSpec(
                    "serving.handle", site=world["site"],
                    action="raise-overload", times=1, skip=2,
                ),
            ]
        )
        server = launch("--threads", "2", fault_plan=plan)
        bomb = "<div>" * 400 + "x" + "</div>" * 400
        payloads = [
            _page_payload(world, 0),
            _page_payload(world, 1),
            "{not json",
            {"site": world["site"], "pages": [{"html": bomb}]},
            _page_payload(world, 2),
            _page_payload(world, 3),
            _page_payload(world, 4),
        ]
        results = [None] * len(payloads)

        def fire(index):
            try:
                results[index] = server.request(payloads[index])
            except OSError:
                # Connection refused/reset: the drain won the race before
                # this request was accepted — a definitive non-answer.
                results[index] = ("refused", None)

        threads = [
            threading.Thread(target=fire, args=(index,))
            for index in range(len(payloads))
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        code = server.terminate_and_wait()
        for thread in threads:
            thread.join(timeout=30)
        assert code == 0
        # Exactly one result per request — no hangs, no double answers.
        assert all(result is not None for result in results)
        for payload, result in zip(payloads, results):
            status = result[0]
            if status == "refused":
                continue
            if payload == "{not json":
                assert status == 400
            elif isinstance(payload, dict) and payload["pages"][0][
                "html"
            ] == bomb:
                # 422 from the parse cap — unless the injected handle
                # fault or the drain intercepted it first.
                assert status in (422, 429, 503)
            else:
                # served, shed, injected-fault 503/429, or drained 503/504
                assert status in (200, 429, 503, 504)

    def test_sigterm_with_empty_queue_exits_promptly(self, world, launch):
        server = launch("--threads", "1")
        status, _ = server.request(_page_payload(world, 0))
        assert status == 200
        started = time.monotonic()
        code = server.terminate_and_wait(timeout=15)
        assert code == 0
        assert time.monotonic() - started < 10.0


class TestCollector:
    def test_stats_show_a_frozen_heap_and_no_request_garbage(self, world, launch):
        """serve-http freezes its start-up heap out of the collector's
        walk, and each request releases its parsed documents, so the
        collector finds (next to) nothing to free while requests flow.
        Trees left to the collector freed thousands of objects per
        request."""
        server = launch("--threads", "1")

        def gc_stats():
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                conn.request("GET", "/stats")
                response = conn.getresponse()
                assert response.status == 200
                return json.loads(response.read())["gc"]
            finally:
                conn.close()

        def collected(stats):
            return sum(generation["collected"] for generation in stats["generations"])

        status, _ = server.request(_page_payload(world, 0))  # loads the site
        assert status == 200
        before = gc_stats()
        for index in range(1, 6):
            status, data = server.request(_page_payload(world, index))
            assert status == 200 and data["extractions"] >= 1
        after = gc_stats()
        assert after["frozen"] > 0
        assert collected(after) - collected(before) < 100


class TestSigkill:
    def test_port_is_released_and_nothing_lingers(self, world, launch):
        server = launch("--threads", "1")
        status, _ = server.request(_page_payload(world, 0))
        assert status == 200
        server.proc.send_signal(signal.SIGKILL)
        assert server.proc.wait(timeout=10) == -signal.SIGKILL
        # The kernel reclaims the socket: new connections must fail fast,
        # not hang against a half-dead listener.
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=5
            )
            try:
                conn.request("GET", "/healthz")
                conn.getresponse()
            finally:
                conn.close()
