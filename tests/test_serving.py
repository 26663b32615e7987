"""The resilient serving tier: breakers, backpressure, deadlines,
micro-batching, and graceful drain.

The HTTP tests run a real :class:`ServingServer` on an ephemeral port
per test — the threading, admission, and exactly-once-response
machinery is the thing under test, so nothing is mocked below the
:class:`ExtractionService` boundary.
"""

import gc
import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro import obs
from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_swde, seed_kb_for
from repro.dom.node import ElementNode, TextNode
from repro.dom.parser import parse_html
from repro.runtime import ExtractionService, SiteModel
from repro.runtime.resilience import Deadline
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OFFER_ACCEPTED,
    OFFER_CLOSED,
    OFFER_FULL,
    OPEN,
    AdmissionQueue,
    BreakerBoard,
    CircuitBreaker,
    PendingRequest,
    ServingConfig,
    ServingServer,
)
from repro.serving import server as server_module
from repro.testing.faults import FaultPlan, FaultSpec, active
from repro.transfer import collect_site_examples, train_global


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def trained_world():
    """One trained site, its pages' raw HTML, and a global model."""
    dataset = generate_swde("movie", n_sites=2, pages_per_site=12, seed=11)
    kb = seed_kb_for(dataset, 11)
    site = dataset.sites[1]
    documents = [page.document for page in site.pages]
    config = CeresConfig()
    pipeline = CeresPipeline(kb, config)
    result = pipeline.run(documents, documents)
    assert result.extractions
    donor = dataset.sites[0]
    pool = collect_site_examples(
        donor.name, kb, [page.document for page in donor.pages], config
    )
    predicates = sorted(
        {example.label for example in pool.examples if example.label != "OTHER"}
    )
    global_model = train_global([pool], predicates, config=config)
    return {
        "site": site.name,
        "config": config,
        "site_model": SiteModel.from_result(site.name, config, result),
        "documents": documents,
        "html": [page.html for page in site.pages],
        "global_model": global_model,
    }


@pytest.fixture()
def service(trained_world):
    service = ExtractionService()
    service.add_site_model(trained_world["site_model"])
    service.set_global_model(trained_world["global_model"])
    return service


@pytest.fixture()
def serving(request, service):
    """A running server on an ephemeral port; torn down hard after the
    test.  Parametrize knobs via ``@pytest.mark.parametrize('serving',
    [dict(...)], indirect=True)``."""
    knobs = dict(
        port=0, workers=2, request_deadline=10.0, retry_after=0.5,
        drain_timeout=2.0,
    )
    knobs.update(getattr(request, "param", {}))
    config = ServingConfig(**knobs)
    obs.enable(tracing=False, metrics=True)
    server = ServingServer(service, config)
    server.start()
    yield server
    server.stop(timeout=10)
    obs.disable()


@pytest.fixture()
def zero_shot_serving(request, trained_world):
    """Like ``serving``, over a ``--transfer-fallback`` service (a site
    without a model is served zero-shot) and with tracing on; yields the
    server and its tracer."""
    service = ExtractionService(transfer_fallback=True)
    service.add_site_model(trained_world["site_model"])
    service.set_global_model(trained_world["global_model"])
    knobs = dict(port=0, workers=2, request_deadline=10.0, drain_timeout=2.0)
    knobs.update(getattr(request, "param", {}))
    tracer, _ = obs.enable(tracing=True, metrics=True)
    server = ServingServer(service, ServingConfig(**knobs))
    server.start()
    yield server, tracer
    server.stop(timeout=10)
    obs.disable()


#: A site no registry holds: ``zero_shot_serving`` serves it zero-shot.
UNSEEN_SITE = "never-seen.example"


def _post(port, payload, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = payload if isinstance(payload, (str, bytes)) else json.dumps(payload)
    conn.request("POST", "/extract", body=body)
    response = conn.getresponse()
    data = json.loads(response.read())
    headers = dict(response.getheaders())
    conn.close()
    return response.status, data, headers


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", path)
    response = conn.getresponse()
    data = json.loads(response.read())
    status = response.status
    conn.close()
    return status, data


def _request(world, n_pages=1):
    return {
        "site": world["site"],
        "pages": [
            {"html": html, "url": f"page-{index}"}
            for index, html in enumerate(world["html"][:n_pages])
        ],
    }


# ---------------------------------------------------------------------------
# circuit breaker (unit, fake clock)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_closed_until_consecutive_permanent_failures(self):
        breaker = CircuitBreaker(failures=3, clock=FakeClock())
        assert breaker.route() == "primary"
        assert breaker.record_failure("permanent") is False
        assert breaker.record_failure("permanent") is False
        assert breaker.phase == CLOSED
        assert breaker.record_failure("permanent") is True
        assert breaker.phase == OPEN
        assert breaker.route() == "fallback"

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failures=2, clock=FakeClock())
        breaker.record_failure("permanent")
        breaker.record_success()
        breaker.record_failure("permanent")
        assert breaker.phase == CLOSED  # streak broken: still closed

    @pytest.mark.parametrize("category", ["transient", "overload"])
    def test_non_permanent_failures_never_trip(self, category):
        breaker = CircuitBreaker(failures=1, clock=FakeClock())
        for _ in range(10):
            assert breaker.record_failure(category) is False
        assert breaker.phase == CLOSED

    def test_cooldown_gates_the_half_open_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=1, cooldown=30.0, clock=clock)
        breaker.record_failure("permanent")
        assert breaker.route() == "fallback"  # cooling down
        clock.advance(31.0)
        assert breaker.route() == "primary"  # the probe
        assert breaker.phase == HALF_OPEN
        assert breaker.route() == "fallback"  # one probe at a time

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=1, cooldown=1.0, clock=clock)
        breaker.record_failure("permanent")
        clock.advance(2.0)
        assert breaker.route() == "primary"
        breaker.record_success()
        assert breaker.phase == CLOSED
        assert breaker.route() == "primary"

    def test_probe_permanent_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=1, cooldown=1.0, clock=clock)
        breaker.record_failure("permanent")
        clock.advance(2.0)
        assert breaker.route() == "primary"
        assert breaker.record_failure("permanent") is True
        assert breaker.phase == OPEN
        assert breaker.route() == "fallback"  # cooldown restarted

    def test_probe_transient_failure_releases_the_slot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=1, cooldown=1.0, clock=clock)
        breaker.record_failure("permanent")
        clock.advance(2.0)
        assert breaker.route() == "primary"
        assert breaker.record_failure("transient") is False
        assert breaker.phase == HALF_OPEN
        assert breaker.route() == "primary"  # next request may probe again

    def test_multi_probe_closing(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failures=1, cooldown=1.0, probes=2, clock=clock
        )
        breaker.record_failure("permanent")
        clock.advance(2.0)
        assert breaker.route() == "primary"
        breaker.record_success()
        assert breaker.phase == HALF_OPEN  # one success is not enough
        assert breaker.route() == "primary"
        breaker.record_success()
        assert breaker.phase == CLOSED

    def test_snapshot_counts_openings(self):
        breaker = CircuitBreaker(failures=1, clock=FakeClock())
        breaker.record_failure("permanent")
        snapshot = breaker.snapshot()
        assert snapshot["phase"] == OPEN
        assert snapshot["opened_total"] == 1

    def test_board_lazily_creates_and_snapshots(self):
        board = BreakerBoard(failures=1)
        assert board.for_site("a") is board.for_site("a")
        board.for_site("a").record_failure("permanent")
        snapshot = board.snapshot()
        assert snapshot["a"]["phase"] == OPEN


# ---------------------------------------------------------------------------
# admission queue (unit)


def _pending(site, n_pages=1, threshold=None, seconds=None):
    return PendingRequest(
        site=site,
        pages=[("<p>x</p>", "p")] * n_pages,
        threshold=threshold,
        deadline=Deadline(seconds),
    )


class TestAdmissionQueue:
    def test_offer_verdicts(self):
        queue = AdmissionQueue(max_depth=2)
        assert queue.offer(_pending("a")) == OFFER_ACCEPTED
        assert queue.offer(_pending("a")) == OFFER_ACCEPTED
        assert queue.offer(_pending("a")) == OFFER_FULL
        queue.begin_drain()
        assert queue.offer(_pending("a")) == OFFER_CLOSED

    def test_take_batch_groups_same_site_and_threshold(self):
        queue = AdmissionQueue(max_depth=10)
        first = _pending("a", 2)
        second = _pending("a", 3)
        other_site = _pending("b", 1)
        other_threshold = _pending("a", 1, threshold=0.9)
        for request in (first, second, other_site, other_threshold):
            queue.offer(request)
        site, batch = queue.take_batch()
        assert site == "a"
        assert batch == [first, second]  # same (site, threshold) only

    def test_batch_page_cap(self):
        queue = AdmissionQueue(max_depth=10, batch_max_pages=4)
        first = _pending("a", 3)
        second = _pending("a", 3)  # 3 + 3 > 4: must wait for batch two
        queue.offer(first)
        queue.offer(second)
        _, batch = queue.take_batch()
        assert batch == [first]

    def test_oversized_single_request_still_ships(self):
        queue = AdmissionQueue(max_depth=10, batch_max_pages=4)
        big = _pending("a", 9)
        queue.offer(big)
        _, batch = queue.take_batch()
        assert batch == [big]

    def test_per_site_serialization(self):
        queue = AdmissionQueue(max_depth=10)
        queue.offer(_pending("a"))
        queue.offer(_pending("a"))
        queue.offer(_pending("b"))
        site_one, _ = queue.take_batch()
        assert site_one == "a"
        # "a" is claimed: the next batch must be "b", even though another
        # "a" request arrived first.
        queue.offer(_pending("a"))
        site_two, _ = queue.take_batch()
        assert site_two == "b"
        queue.finish_site("a")
        site_three, _ = queue.take_batch()
        assert site_three == "a"

    def test_stop_drains_then_signals_exit(self):
        queue = AdmissionQueue(max_depth=10)
        queue.offer(_pending("a"))
        queue.stop()
        assert queue.take_batch() is not None  # queued work still flows
        assert queue.take_batch() is None  # then workers are told to exit

    def test_wait_idle_and_abort(self):
        queue = AdmissionQueue(max_depth=10)
        queue.offer(_pending("a"))
        assert queue.wait_idle(0.05) is False
        aborted = queue.abort_pending()
        assert len(aborted) == 1
        assert queue.wait_idle(0.05) is True

    def test_exactly_once_fulfill_vs_forsake(self):
        request = _pending("a")
        assert request.fulfill(("ok", [], "site")) is True
        assert request.forsake() is False  # worker won
        late = _pending("a")
        assert late.forsake() is True
        assert late.fulfill(("ok", [], "site")) is False  # waiter won


# ---------------------------------------------------------------------------
# HTTP integration


class TestHttpServing:
    def test_round_trip_matches_direct_service(
        self, serving, service, trained_world
    ):
        world = trained_world
        status, data, _ = _post(serving.port, _request(world, n_pages=12))
        assert status == 200
        assert data["model"] == "site"
        assert data["pages"] == 12
        direct = service.extract_pages(world["site"], world["documents"])
        assert data["extractions"] == len(direct)
        row = data["rows"][0]
        assert set(row) >= {
            "site", "page", "subject", "predicate", "object", "confidence",
        }

    def test_each_request_parses_in_one_stage(self, serving, trained_world):
        """One ``stage.parse`` span (pages, bytes) and one
        ``stage.parse_seconds`` observation per request."""
        tracer, registry = obs.enable(tracing=True, metrics=True)
        payload = _request(trained_world, n_pages=3)
        status, _, _ = _post(serving.port, payload)
        assert status == 200
        spans = [span for span in tracer.export() if span["name"] == "stage.parse"]
        assert [span["attrs"] for span in spans] == [{
            "pages": 3,
            "bytes": sum(len(page["html"].encode()) for page in payload["pages"]),
        }]
        assert registry.snapshot()["histograms"]["stage.parse_seconds"]["count"] == 1

    def test_concurrent_single_page_requests_all_answered(
        self, serving, trained_world
    ):
        results = []
        lock = threading.Lock()

        def one(index):
            payload = {
                "site": trained_world["site"],
                "pages": [
                    {"html": trained_world["html"][index], "url": f"p{index}"}
                ],
            }
            status, data, _ = _post(serving.port, payload)
            with lock:
                results.append((index, status, data))

        threads = [
            threading.Thread(target=one, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(r[1] for r in results) == [200] * 8
        for index, _, data in results:
            for row in data["rows"]:
                assert row["page"] == f"p{index}"  # no cross-request bleed

    def test_health_endpoints(self, serving):
        assert _get(serving.port, "/healthz") == (200, {"status": "alive"})
        status, data = _get(serving.port, "/readyz")
        assert (status, data["status"]) == (200, "ready")
        status, data = _get(serving.port, "/stats")
        assert status == 200
        assert data["phase"] == "ready"
        assert "queue" in data and "breakers" in data and "metrics" in data

    def test_unknown_endpoint_404(self, serving):
        status, _ = _get(serving.port, "/nope")
        assert status == 404

    def test_malformed_json_400(self, serving):
        status, data, _ = _post(serving.port, "{nope")
        assert status == 400
        assert "JSON" in data["error"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("threshold", float("nan")),
            ("threshold", float("inf")),
            ("threshold", 2),
            ("threshold", -1),
            ("threshold", 10**400),
            ("deadline", float("nan")),
        ],
        ids=[
            "threshold-nan", "threshold-infinity", "threshold-2",
            "threshold-negative", "threshold-past-float-range", "deadline-nan",
        ],
    )
    def test_bad_number_field_400(self, serving, trained_world, field, value):
        """json reads ``NaN``/``Infinity`` literals and integers past float
        range: a field that is not a finite number, or a threshold outside
        [0, 1], is the client's error, not a 200 without rows (or with
        every candidate), nor a silently ignored deadline."""
        status, data, _ = _post(serving.port, {**_request(trained_world), field: value})
        assert status == 400
        assert f"'{field}'" in data["error"]

    @pytest.mark.parametrize(
        "serving, path, length, body, status",
        [
            ({}, "/extract", None, "", 411),
            ({}, "/extract", str(1 << 40), "", 413),
            ({}, "/extract", "-1", "", 400),
            (dict(request_deadline=0.5), "/extract", "100", "0123456789", 408),
            ({}, "/nope", "13", '{"site": "x"}', 404),
        ],
        ids=["missing", "oversized", "negative", "short-body", "unknown-path"],
        indirect=["serving"],
    )
    def test_bad_content_length_answered_then_closed(
        self, serving, path, length, body, status
    ):
        """The body is not read in full: the answer comes at once (a
        short body: once the request deadline passes) on a keep-alive
        connection, says it closes the connection, then hangs up."""
        head = f"POST {path} HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n"
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        with socket.create_connection(
            ("127.0.0.1", serving.port), timeout=1.0
        ) as conn:
            conn.sendall(f"{head}\r\n{body}".encode())
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        head = reply.split(b"\r\n\r\n", 1)[0]
        assert head.split(b" ", 2)[1] == str(status).encode()
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"

    @pytest.mark.parametrize(
        "framing",
        [
            lambda n: f"Content-Length: {n[:-1]}_{n[-1]}",
            lambda n: f"Content-Length: +{n}",
            lambda n: f"Content-Length: {n}\r\nContent-Length: {n}",
            lambda n: f"Transfer-Encoding: chunked\r\nContent-Length: {n}",
        ],
        ids=["underscore", "plus-sign", "repeated", "chunked-with-length"],
    )
    def test_ambiguous_framing_answered_400_then_closed(
        self, serving, trained_world, framing
    ):
        """A well-formed request under framing that ``int()`` of the
        first ``Content-Length`` would accept is refused: 400, then the
        connection closes with the body unread."""
        body = json.dumps(_request(trained_world)).encode()
        head = (
            "POST /extract HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n"
            f"{framing(str(len(body)))}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", serving.port), timeout=1.0
        ) as conn:
            conn.sendall(head.encode() + body)
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        head = reply.split(b"\r\n\r\n", 1)[0]
        assert head.split(b" ", 2)[1] == b"400"
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"

    @pytest.mark.parametrize(
        "serving", [dict(request_deadline=0.5)], indirect=True
    )
    def test_trickled_body_answered_408_within_the_deadline(self, serving):
        """The request deadline bounds the whole body, not each wait for
        data: an 8-byte body sent one byte every 0.2 s is answered 408
        and the connection closed before its last byte is due."""
        interval, length = 0.2, 8
        stop = threading.Event()

        def trickle(conn):
            for _ in range(length):
                try:
                    conn.sendall(b"x")
                except OSError:  # the server hung up
                    return
                if stop.wait(interval):
                    return

        with socket.create_connection(
            ("127.0.0.1", serving.port), timeout=5.0
        ) as conn:
            conn.sendall(
                b"POST /extract HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % length
            )
            start = time.monotonic()
            sender = threading.Thread(target=trickle, args=(conn,))
            sender.start()
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
            hung_up = time.monotonic() - start
            stop.set()
            sender.join(timeout=5)
        assert not sender.is_alive()
        head = reply.split(b"\r\n\r\n", 1)[0]
        assert head.split(b" ", 2)[1] == b"408"
        assert b"\r\nConnection: close\r\n" in head + b"\r\n"
        assert hung_up < (length - 1) * interval, hung_up

    def test_requests_on_one_connection_start_one_thread(
        self, serving, trained_world, monkeypatch
    ):
        """A request's deadline is a clock reading, not a timer: twenty
        requests on one keep-alive connection start one thread, the
        connection's handler."""
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        body = json.dumps(_request(trained_world))
        conn = http.client.HTTPConnection("127.0.0.1", serving.port, timeout=30)
        try:
            for _ in range(20):
                conn.request("POST", "/extract", body=body)
                response = conn.getresponse()
                response.read()
                assert response.status == 200
        finally:
            conn.close()
        assert len(started) == 1, started

    def test_missing_site_400(self, serving):
        status, _, _ = _post(serving.port, {"pages": [{"html": "<p>x</p>"}]})
        assert status == 400

    def test_pages_required_400(self, serving, trained_world):
        status, _, _ = _post(serving.port, {"site": trained_world["site"]})
        assert status == 400

    def test_depth_bomb_422_permanent(self, serving, trained_world):
        bomb = "<div>" * 400 + "x" + "</div>" * 400
        status, data, _ = _post(
            serving.port,
            {"site": trained_world["site"], "pages": [{"html": bomb}]},
        )
        assert status == 422
        assert data["category"] == "permanent"

    def test_malformed_marked_section_422_then_next_request(
        self, serving, trained_world
    ):
        """An unreadable ``<![`` section is the client's error: 422
        (it used to escape the parser as ``AssertionError``, a 500), and
        the keep-alive connection goes on to serve the next request."""
        conn = http.client.HTTPConnection("127.0.0.1", serving.port, timeout=30)
        try:
            bad = {
                "site": trained_world["site"],
                "pages": [
                    {"html": trained_world["html"][0]},
                    {"html": "<p><![foo]>x</p>"},
                ],
            }
            conn.request("POST", "/extract", body=json.dumps(bad))
            response = conn.getresponse()
            data = json.loads(response.read())
            assert response.status == 422
            assert data["category"] == "permanent"
            assert data["error"].startswith("pages[1]: unknown status keyword")
            conn.request("POST", "/extract", body=json.dumps(_request(trained_world)))
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        finally:
            conn.close()
        counters = serving.stats_payload()["metrics"]["counters"]
        assert counters["serving.parse_rejected"] == 1

    def test_unknown_site_is_permanent_500(self, serving):
        status, data, _ = _post(
            serving.port,
            {"site": "never-trained", "pages": [{"html": "<p>x</p>"}]},
        )
        assert status == 500
        assert data["category"] == "permanent"

    @pytest.mark.parametrize(
        "serving",
        [dict(workers=1, max_queue_depth=1, request_deadline=1.0)],
        indirect=True,
    )
    def test_full_queue_sheds_429_with_retry_after(
        self, serving, trained_world
    ):
        plan = FaultPlan(
            [
                FaultSpec(
                    "serving.batch", site=trained_world["site"],
                    action="hang", delay=30.0, times=1,
                )
            ]
        )
        with active(plan):
            payload = _request(trained_world)
            background = []

            def fire():
                background.append(_post(serving.port, payload))

            wedged = threading.Thread(target=fire)
            wedged.start()
            time.sleep(0.3)  # let the worker claim it and hang
            queued = threading.Thread(target=fire)
            queued.start()
            time.sleep(0.2)
            status, data, headers = _post(serving.port, payload)
            assert status == 429
            assert data["category"] == "overload"
            assert headers.get("Retry-After") == "1"
            wedged.join()
            queued.join()
        # Wedged and queued requests hit the 1s deadline: 504, exactly once.
        assert sorted(result[0] for result in background) == [504, 504]
        counters = serving.stats_payload()["metrics"]["counters"]
        assert counters["serving.shed"] == 1
        assert counters["serving.accepted"] == 2

    def test_client_deadline_can_only_shrink(self, serving, trained_world):
        payload = dict(_request(trained_world), deadline=120.0)
        status, _, _ = _post(serving.port, payload)
        assert status == 200  # capped at the server budget, still served

    def test_breaker_opens_then_serves_transfer_then_recloses(
        self, serving, trained_world
    ):
        site = trained_world["site"]
        serving.breakers._cooldown = 0.3  # fast half-open for the test
        plan = FaultPlan(
            [FaultSpec("serving.batch", site=site, action="raise", times=3)]
        )
        payload = _request(trained_world)
        with active(plan):
            for _ in range(3):
                status, data, _ = _post(serving.port, payload)
                assert status == 500
                assert data["category"] == "permanent"
            breaker = serving.breakers.for_site(site)
            assert breaker.phase == OPEN
            # Open: requests degrade to the zero-shot transfer model.
            status, data, _ = _post(serving.port, payload)
            assert status == 200
            assert data["model"] == "transfer"
            for row in data["rows"]:
                assert row["model"] == "transfer"
            time.sleep(0.4)  # cooldown elapses; faults are exhausted
            status, data, _ = _post(serving.port, payload)
            assert status == 200
            assert data["model"] == "site"
            assert breaker.phase == CLOSED
        counters = serving.stats_payload()["metrics"]["counters"]
        assert counters["serving.breaker_opened"] == 1
        assert counters["serving.fallback_requests"] == 1

    def test_service_level_transfer_fallback_labels_response(
        self, zero_shot_serving, trained_world
    ):
        """An unseen site served zero-shot by a --transfer-fallback
        service must say model="transfer" at the top level too, even
        though it went down the breaker's primary route."""
        server, _ = zero_shot_serving
        status, data, _ = _post(server.port, {
            "site": UNSEEN_SITE,
            "pages": [{"html": trained_world["html"][0], "url": "p0"}],
        })
        assert status == 200
        assert data["model"] == "transfer"
        assert all(row["model"] == "transfer" for row in data["rows"])

    def test_transient_faults_never_open_the_breaker(
        self, serving, trained_world
    ):
        site = trained_world["site"]
        plan = FaultPlan(
            [
                FaultSpec(
                    "serving.batch", site=site,
                    action="raise-transient", times=5,
                )
            ]
        )
        payload = _request(trained_world)
        with active(plan):
            for _ in range(5):
                status, data, _ = _post(serving.port, payload)
                assert status == 503
                assert data["category"] == "transient"
        assert serving.breakers.for_site(site).phase == CLOSED
        status, data, _ = _post(serving.port, payload)
        assert status == 200
        assert data["model"] == "site"

    def test_overload_faults_map_to_429(self, serving, trained_world):
        site = trained_world["site"]
        plan = FaultPlan(
            [
                FaultSpec(
                    "serving.batch", site=site,
                    action="raise-overload", times=1,
                )
            ]
        )
        with active(plan):
            status, data, headers = _post(
                serving.port, _request(trained_world)
            )
        assert status == 429
        assert data["category"] == "overload"
        assert "Retry-After" in headers
        assert serving.breakers.for_site(site).phase == CLOSED

    @pytest.mark.parametrize(
        "serving", [dict(batch_linger=0.15, workers=1)], indirect=True
    )
    def test_cross_request_micro_batching(self, serving, trained_world):
        """Concurrent single-page requests for one site score as one
        merged batch when linger is on."""
        results = []
        lock = threading.Lock()

        def one(index):
            payload = {
                "site": trained_world["site"],
                "pages": [
                    {"html": trained_world["html"][index], "url": f"p{index}"}
                ],
            }
            outcome = _post(serving.port, payload)
            with lock:
                results.append(outcome)

        threads = [
            threading.Thread(target=one, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result[0] == 200 for result in results)
        histograms = serving.stats_payload()["metrics"]["histograms"]
        batched = histograms["serving.batch_pages"]
        assert batched["max"] >= 2  # at least one merged batch
        counters = serving.stats_payload()["metrics"]["counters"]
        assert counters["serving.batches"] < 4


def _assert_one_batch_at_a_time(spans):
    """Every page was parsed inside a worker's ``serving.batch`` span,
    and no two of those spans overlap."""
    names = {span["span_id"]: span["name"] for span in spans}
    assert {
        names.get(span["parent_id"])
        for span in spans if span["name"] == "stage.parse"
    } == {"serving.batch"}
    roots = sorted(
        (span for span in spans if span["parent_id"] is None),
        key=lambda span: span["start"],
    )
    assert {span["name"] for span in roots} == {"serving.batch"}
    for earlier, later in zip(roots, roots[1:]):
        # start is wall-clock, duration perf_counter: allow 1 ms.
        ended = earlier["start"] + earlier["duration"]
        assert later["start"] >= ended - 1e-3, (earlier, later)


class TestLane:
    """Handlers only read, decode and validate; workers parse, score and
    answer one batch at a time, holding the server's lane."""

    def test_batches_compute_one_at_a_time(
        self, zero_shot_serving, trained_world
    ):
        """Concurrent requests for a trained and a zero-shot site, with a
        worker free for each: every page is parsed inside a worker's
        ``serving.batch`` span, and no two of those spans overlap."""
        server, tracer = zero_shot_serving
        statuses = []

        def one(index):
            site = trained_world["site"] if index % 2 else UNSEEN_SITE
            payload = dict(_request(trained_world, n_pages=4), site=site)
            statuses.append(_post(server.port, payload)[0])

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [200] * 8
        _assert_one_batch_at_a_time(tracer.export())

    @pytest.mark.parametrize("zero_shot_serving", [dict(workers=4)], indirect=True)
    def test_shared_global_model_under_contention(
        self, zero_shot_serving, trained_world
    ):
        """More workers than cores, three zero-shot sites sharing the
        global model's one feature-row walker, and a tiny switch
        interval: batches still compute one at a time, and every request
        gets the rows it gets alone."""
        server, tracer = zero_shot_serving
        sites = [trained_world["site"], "unseen-a.example", "unseen-b.example",
                 "unseen-c.example"]
        pages = _request(trained_world, n_pages=12)["pages"]
        payloads = [
            {"site": site, "pages": pages[start::3]}
            for site in sites for start in range(3)
        ]
        alone = [_post(server.port, payload)[1]["rows"] for payload in payloads]
        together = [None] * len(payloads)

        def one(index):
            together[index] = _post(server.port, payloads[index])[1]["rows"]

        threads = [threading.Thread(target=one, args=(i,)) for i in range(len(payloads))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert together == alone
        _assert_one_batch_at_a_time(tracer.export())

    def test_a_hung_batch_leaves_other_sites_served(
        self, zero_shot_serving, trained_world
    ):
        """The ``serving.batch`` fault point fires before the lane: a
        worker wedged there holds no lane, and the other worker serves
        another site meanwhile."""
        server, _ = zero_shot_serving
        plan = FaultPlan(
            [
                FaultSpec(
                    "serving.batch", site=trained_world["site"],
                    action="hang", delay=2.0, times=1,
                )
            ]
        )
        wedged = []
        with active(plan):
            thread = threading.Thread(
                target=lambda: wedged.append(
                    _post(server.port, _request(trained_world))
                )
            )
            thread.start()
            time.sleep(0.3)  # a worker claims it and hangs
            started = time.monotonic()
            status, data, _ = _post(
                server.port, dict(_request(trained_world), site=UNSEEN_SITE)
            )
            elapsed = time.monotonic() - started
            thread.join()
        assert (status, data["model"]) == (200, "transfer")
        assert elapsed < 1.5, elapsed
        assert wedged[0][0] == 200

    @pytest.mark.parametrize(
        "serving", [dict(workers=1, max_parse_nodes=2000)], indirect=True
    )
    def test_parse_refusal_answers_only_its_own_request(
        self, serving, trained_world
    ):
        """Two requests merged into one batch: the one whose page breaks
        ``max_parse_nodes`` is answered 422 without touching the breaker;
        the other is answered 200 with the rows it gets alone."""
        tracer, _ = obs.enable(tracing=True, metrics=True)
        site = trained_world["site"]
        html = trained_world["html"]
        good = {
            "site": site,
            "pages": [{"html": html[1], "url": "g1"}, {"html": html[2], "url": "g2"}],
        }
        bomb = {
            "site": site,
            "pages": [{"html": html[3], "url": "b3"}, {"html": "<p>x</p>" * 3000}],
        }
        plan = FaultPlan(
            [FaultSpec("serving.batch", site=site, action="hang", delay=1.0, times=1)]
        )
        results = {}

        def fire(name, payload):
            results[name] = _post(serving.port, payload)

        with active(plan):
            threads = []
            for name, payload in (
                ("held", _request(trained_world)), ("good", good), ("bomb", bomb)
            ):
                threads.append(threading.Thread(target=fire, args=(name, payload)))
                threads[-1].start()
                time.sleep(0.3)  # the worker claims "held" and hangs
            for thread in threads:
                thread.join()
        status, data, _ = results["bomb"]
        assert (status, data["category"]) == (422, "permanent")
        assert data["error"].startswith("pages[1]: ")
        assert results["held"][0] == results["good"][0] == 200
        spans = tracer.export()
        parses_per_batch = sorted(
            sum(
                1 for child in spans
                if child["name"] == "stage.parse"
                and child["parent_id"] == span["span_id"]
            )
            for span in spans if span["name"] == "serving.batch"
        )
        assert parses_per_batch == [1, 2]  # "good" and "bomb" merged
        status, alone, _ = _post(serving.port, good)
        assert status == 200
        assert results["good"][1]["rows"] == alone["rows"]
        counters = serving.stats_payload()["metrics"]["counters"]
        assert counters["serving.parse_rejected"] == 1
        assert counters["serving.accepted"] == counters["serving.responses"] == 4
        breaker = serving.breakers.for_site(site).snapshot()
        assert (breaker["phase"], breaker["consecutive_failures"]) == (CLOSED, 0)

    @pytest.mark.parametrize("serving", [dict(workers=1)], indirect=True)
    def test_queue_wait_observed_per_request_the_worker_ran(
        self, serving, trained_world
    ):
        """``serving.queue_wait_seconds`` observes admission to lane once
        per request a worker ran; a request that expired in the queue
        never ran."""
        plan = FaultPlan(
            [
                FaultSpec(
                    "serving.batch", site=trained_world["site"],
                    action="hang", delay=0.5, times=1,
                )
            ]
        )
        with active(plan):
            held = threading.Thread(
                target=_post, args=(serving.port, _request(trained_world))
            )
            held.start()
            time.sleep(0.2)  # the worker claims it and hangs
            expiring = dict(_request(trained_world), deadline=0.1)
            assert _post(serving.port, expiring)[0] == 504
            held.join()
        for _ in range(2):
            assert _post(serving.port, _request(trained_world))[0] == 200
        assert serving.queue.wait_idle(10.0)
        status, stats = _get(serving.port, "/stats")
        assert status == 200
        counters = stats["metrics"]["counters"]
        waits = stats["metrics"]["histograms"]["serving.queue_wait_seconds"]
        assert counters["serving.accepted"] == 4
        assert waits["count"] == counters["serving.primary_requests"] == 3
        assert waits["max"] >= 0.45  # the held request waited out the hang


def _live_dom_nodes() -> int:
    return sum(
        1 for obj in gc.get_objects() if isinstance(obj, (ElementNode, TextNode))
    )


def _tree_size(html: str) -> int:
    document = parse_html(html)
    size = sum(
        1 + sum(child.is_text for child in element.children)
        for element in document.iter_elements()
    )
    document.release()
    return size


class TestDocumentOwnership:
    """The worker that parses a batch releases its documents once the
    batch is answered, so the trees free by refcount, not by the
    collector."""

    def test_sequential_requests_leave_one_requests_worth_of_nodes(
        self, serving, trained_world
    ):
        payload = _request(trained_world, n_pages=2)
        body = json.dumps(payload)
        conn = http.client.HTTPConnection("127.0.0.1", serving.port, timeout=30)

        def post():
            conn.request("POST", "/extract", body=body)
            response = conn.getresponse()
            response.read()
            assert response.status == 200

        gc.collect()
        gc.disable()
        try:
            post()  # warm-up: builds the site's extractors
            after_one = _live_dom_nodes()
            for _ in range(20):
                post()
            after_twenty_one = _live_dom_nodes()
        finally:
            gc.enable()
            conn.close()
        one_request = sum(_tree_size(page["html"]) for page in payload["pages"])
        assert after_twenty_one - after_one <= one_request

    @pytest.mark.parametrize(
        "serving", [dict(workers=1, request_deadline=0.3)], indirect=True
    )
    def test_no_document_outlives_its_batch(
        self, serving, service, trained_world, monkeypatch
    ):
        """A request forsaken at its deadline while its batch scores is
        answered 504 by its handler; the worker still finishes the batch
        without error, and releases the documents it parsed, as it does
        an answered request's."""
        parsed = []

        def recording_parse(*args, **kwargs):
            document = parse_html(*args, **kwargs)
            parsed.append(document)
            return document

        extract = service.extract_pages
        slow = threading.Event()
        slow.set()

        def slow_once(*args, **kwargs):
            if slow.is_set():
                slow.clear()
                time.sleep(0.6)  # past the 0.3 s deadline, pages parsed
            return extract(*args, **kwargs)

        monkeypatch.setattr(server_module, "parse_html", recording_parse)
        monkeypatch.setattr(service, "extract_pages", slow_once)
        site = trained_world["site"]
        status, _, _ = _post(serving.port, _request(trained_world, n_pages=2))
        assert status == 504
        assert serving.queue.wait_idle(10.0)  # the late worker is done
        assert len(parsed) == 2
        assert all(document.root is None for document in parsed)
        counters = serving.stats_payload()["metrics"]["counters"]
        assert counters["serving.deadline_expired"] == 1
        assert counters["serving.primary_requests"] == 1
        assert not [name for name in counters if name.startswith("serving.errors_")]
        breaker = serving.breakers.for_site(site).snapshot()
        assert (breaker["phase"], breaker["consecutive_failures"]) == (CLOSED, 0)

        status, _, _ = _post(serving.port, _request(trained_world, n_pages=2))
        assert status == 200
        assert serving.queue.wait_idle(10.0)
        assert len(parsed) == 4
        assert all(document.root is None for document in parsed)


class TestDrain:
    @pytest.mark.parametrize(
        "serving", [dict(workers=1, batch_linger=0.05)], indirect=True
    )
    def test_drain_answers_every_accepted_request_exactly_once(
        self, serving, trained_world
    ):
        """SIGTERM semantics: accepted work flushes, new work gets 503,
        and the server stops cleanly."""
        results = []
        lock = threading.Lock()

        def one(index):
            payload = {
                "site": trained_world["site"],
                "pages": [
                    {
                        "html": trained_world["html"][index % 12],
                        "url": f"p{index}",
                    }
                ],
            }
            try:
                outcome = _post(serving.port, payload)
            except OSError as exc:
                outcome = ("connect-error", exc, None)
            with lock:
                results.append((index, outcome))

        threads = [
            threading.Thread(target=one, args=(index,)) for index in range(6)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # a few requests are queued or in flight
        serving.initiate_drain()
        for thread in threads:
            thread.join()
        assert serving.wait_stopped(timeout=10)
        assert serving.phase == "stopped"
        statuses = sorted(result[1][0] for result in results)
        # every request got exactly one definitive answer: served, or
        # refused because the drain won the race.
        assert len(statuses) == 6
        assert all(status in (200, 503) for status in statuses)
        counters = serving.stats_payload()["metrics"]["counters"]
        assert counters.get("serving.accepted", 0) == counters.get(
            "serving.responses", 0
        )

    def test_drain_is_idempotent_and_readyz_flips(self, serving):
        serving.initiate_drain()
        serving.initiate_drain()  # second call is a no-op
        assert serving.wait_stopped(timeout=10)
        assert serving.phase == "stopped"

    @pytest.mark.parametrize(
        "serving",
        [dict(workers=1, drain_timeout=0.5, request_deadline=5.0)],
        indirect=True,
    )
    def test_forced_drain_answers_stuck_work_503(
        self, serving, trained_world
    ):
        """A wedged worker cannot make drain hang past its budget: what
        is still queued gets a definitive 503."""
        site = trained_world["site"]
        plan = FaultPlan(
            [
                FaultSpec(
                    "serving.batch", site=site,
                    action="hang", delay=30.0, times=1,
                )
            ]
        )
        with active(plan):
            payload = _request(trained_world)
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(_post(serving.port, payload))
                )
                for _ in range(2)
            ]
            threads[0].start()
            time.sleep(0.3)  # worker claims and hangs
            threads[1].start()  # this one stays queued
            time.sleep(0.1)
            started = time.monotonic()
            serving.initiate_drain()
            assert serving.wait_stopped(timeout=10)
            elapsed = time.monotonic() - started
            for thread in threads:
                thread.join()
        assert elapsed < 8.0  # bounded by drain_timeout + join grace
        statuses = sorted(result[0] for result in results)
        # Both answered exactly once: the queued one 503 by forced drain,
        # the hung one 503/504 depending on who claimed it first.
        assert len(statuses) == 2
        assert all(status in (503, 504) for status in statuses)
