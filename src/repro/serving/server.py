"""The resilient HTTP serving tier in front of :class:`ExtractionService`.

``python -m repro serve-http`` starts a :class:`ServingServer`: a
stdlib-only threaded HTTP/JSON server designed around failure rather
than around the happy path.

* **Backpressure, not buffering.**  Admission goes through a bounded
  queue (:class:`~repro.serving.batching.AdmissionQueue`); when it is
  full the request is shed immediately with ``429`` + ``Retry-After``.
  Queue depth and shed counts surface through :mod:`repro.obs`.
* **Deadlines end-to-end.**  Every request carries a cooperative
  :class:`~repro.runtime.resilience.Deadline`; a request that cannot be
  answered in time gets ``504`` — from the worker if it is still
  queued, from its own handler thread if a worker wedged.
* **Per-site circuit breakers.**  Consecutive *permanent* failures of a
  site's warm path open its breaker
  (:class:`~repro.serving.breaker.CircuitBreaker`); while open, the
  site degrades to the zero-shot transfer model (rows tagged
  ``model="transfer"``) instead of 500ing every request.
* **Cross-request micro-batching.**  Workers pull all queued requests
  for one ``(site, threshold)`` at once, so scoring sees full batches
  even from single-page clients.
* **One batch computes at a time.**  Handler threads only read, decode
  and validate; a worker parses, scores and builds rows while it holds
  the server's one *lane* lock, so two batches never time-slice the
  interpreter and a request finishes after its own batch, not after
  every batch it overlapped.
* **Graceful drain.**  SIGTERM stops admission (503 for new work),
  flushes everything already accepted, then exits 0.  Every accepted
  request is answered exactly once, drain or no drain.

* **Documents free by refcount.**  The worker that parses a batch owns
  its documents and releases them
  (:meth:`~repro.dom.parser.Document.release`) once the batch is
  answered, forsaken requests' documents included, so the cyclic
  collector never has to find a request's trees.

Endpoints: ``POST /extract``, ``GET /healthz`` (process liveness),
``GET /readyz`` (admission state), ``GET /stats`` (queue, breakers,
metrics, cache residency, the garbage collector's counters).
"""

from __future__ import annotations

import gc
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro.core.config import CeresConfig
from repro.dom.parser import MarkedSectionError, ParseLimitError, parse_html
from repro.runtime.resilience import Deadline, classify_error
from repro.runtime.runner import extraction_row
from repro.serving.batching import (
    OFFER_ACCEPTED,
    OFFER_FULL,
    AdmissionQueue,
    PendingRequest,
)
from repro.serving.breaker import BreakerBoard
from repro.serving.config import ServingConfig
from repro.testing.faults import fault_point

__all__ = ["ServingServer"]

#: classify_error category -> HTTP status for a failed extraction.
_CATEGORY_STATUS = {"permanent": 500, "transient": 503, "overload": 429}

PHASE_READY = "ready"
PHASE_DRAINING = "draining"
PHASE_STOPPED = "stopped"


class _JsonReply(Exception):
    """Internal control flow: abort request handling with this response."""

    def __init__(
        self, status: int, payload: dict, retry_after: float | None = None
    ) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


class _HTTPServer(ThreadingHTTPServer):
    # One thread per connection; daemonized so a handler wedged by an
    # injected hang fault can never block process exit, and shutdown
    # does not wait on it either.
    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True
    app: "ServingServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _HTTPServer

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging goes through repro.obs, not stderr

    def _reply(
        self, status: int, payload: dict, retry_after: float | None = None
    ) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header("Retry-After", str(math.ceil(retry_after)))
            if self.close_connection:  # a keep-alive client must reconnect
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # The client hung up mid-response; nothing left to answer.
            self.close_connection = True

    def do_GET(self) -> None:
        app = self.server.app
        if self.path == "/healthz":
            self._reply(200, {"status": "alive"})
        elif self.path == "/readyz":
            phase = app.phase
            if phase == PHASE_READY:
                self._reply(200, {"status": PHASE_READY})
            else:
                self._reply(
                    503, {"status": phase}, retry_after=app.config.retry_after
                )
        elif self.path == "/stats":
            self._reply(200, app.stats_payload())
        else:
            self._reply(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:
        app = self.server.app
        if self.path != "/extract":
            self.close_connection = True  # body never read
            self._reply(404, {"error": f"no such endpoint: {self.path}"})
            return
        with obs.metrics().timer("serving.request_seconds"):
            try:
                status, payload, retry_after = app.handle_extract(self)
            except _JsonReply as reply:
                status = reply.status
                payload = reply.payload
                retry_after = reply.retry_after
            except Exception as exc:
                # Injected handler faults and genuine bugs end up here;
                # classify so chaos runs see the taxonomy on the wire.
                category = classify_error(exc)
                status = _CATEGORY_STATUS[category]
                payload = {
                    "error": f"{type(exc).__name__}: {exc}",
                    "category": category,
                }
                retry_after = (
                    app.config.retry_after if status in (429, 503) else None
                )
        self._reply(status, payload, retry_after)


class ServingServer:
    """Owns the HTTP listener, the admission queue, and the batch workers.

    Thread model: one handler thread per connection (reads, decodes and
    validates a request, admits a :class:`PendingRequest` and waits on
    it), ``config.workers`` batch workers (claim site batches), one
    acceptor thread running ``serve_forever``, and — once drain starts —
    one drain thread.  ``_lifecycle`` guards the request gauge and the
    phase machine.  ``_lane`` is held by the one worker that is
    computing: parsing its batch's pages, scoring them and answering
    its requests.  Everything CPU-bound runs in the lane, so batches
    never share the interpreter lock with each other.
    """

    def __init__(self, service, config: ServingConfig | None = None) -> None:
        self.service = service
        self.config = config or ServingConfig()
        parse_defaults = CeresConfig()
        self._max_parse_depth = (
            self.config.max_parse_depth
            if self.config.max_parse_depth is not None
            else parse_defaults.max_parse_depth
        )
        self._max_parse_nodes = (
            self.config.max_parse_nodes
            if self.config.max_parse_nodes is not None
            else parse_defaults.max_parse_nodes
        )
        self.queue = AdmissionQueue(
            max_depth=self.config.max_queue_depth,
            batch_max_pages=self.config.batch_max_pages,
            batch_linger=self.config.batch_linger,
        )
        self.breakers = BreakerBoard(
            failures=self.config.breaker_failures,
            cooldown=self.config.breaker_cooldown,
            probes=self.config.breaker_probes,
        )
        self._lifecycle = threading.Condition()
        self._lane = threading.Lock()
        self._phase = PHASE_READY
        self._inflight = 0
        self._workers: list[threading.Thread] = []
        self._acceptor: threading.Thread | None = None
        self._httpd: _HTTPServer | None = None
        self._stopped_event = threading.Event()
        self.port: int | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind, spawn workers, and start accepting (returns at once)."""
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.app = self
        self.port = self._httpd.server_address[1]
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"serving-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._acceptor = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serving-acceptor",
            daemon=True,
        )
        self._acceptor.start()

    @property
    def phase(self) -> str:
        with self._lifecycle:
            return self._phase

    def initiate_drain(self) -> None:
        """Begin graceful shutdown (idempotent, signal-handler safe).

        New work is refused with 503 immediately; already-accepted work
        keeps flowing.  A background thread completes the drain and
        flips the server to ``stopped``.
        """
        with self._lifecycle:
            if self._phase != PHASE_READY:
                return
            self._phase = PHASE_DRAINING
        self.queue.begin_drain()
        threading.Thread(
            target=self._drain, name="serving-drain", daemon=True
        ).start()

    def _drain(self) -> None:
        budget = Deadline(self.config.drain_timeout)
        clean = self.queue.wait_idle(budget.remaining())
        with self._lifecycle:
            idle = self._lifecycle.wait_for(
                self._no_inflight_locked, budget.remaining()
            )
        clean = clean and idle
        if not clean:
            # Forced drain: whatever is still queued gets a definitive
            # 503 now rather than a hang; in-flight batches keep their
            # workers (daemonized) and die with the process.
            for request in self.queue.abort_pending():
                if request.fulfill(
                    (
                        "error",
                        503,
                        "server shut down before the request could run",
                        "overload",
                    )
                ):
                    obs.metrics().inc("serving.drain_forced")
        try:
            fault_point("serving.drain")
        except Exception as exc:
            # An injected drain fault must not leave the process hanging
            # half-stopped; note it and finish shutting down anyway.
            obs.metrics().inc(f"serving.drain_errors_{classify_error(exc)}")
        self.queue.stop()
        for worker in self._workers:
            worker.join(timeout=2.0)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        with self._lifecycle:
            self._phase = PHASE_STOPPED
        self._stopped_event.set()

    def _no_inflight_locked(self) -> bool:
        # The wait_for predicate: called with _lifecycle held; the
        # re-entrant `with` keeps the lock discipline lexically checkable.
        with self._lifecycle:
            return self._inflight == 0

    def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until the drain completes; False if ``timeout`` passes
        first.  A signal interrupts the wait, so its handler still runs."""
        return self._stopped_event.wait(timeout)

    def stop(self, timeout: float = 10.0) -> bool:
        """Drain and wait for the server to stop (test convenience)."""
        self.initiate_drain()
        return self.wait_stopped(timeout)

    # -- request path (handler threads) ------------------------------------

    def handle_extract(self, handler: _Handler):
        """Validate, admit, wait, and shape one ``/extract`` response.

        Returns ``(status, payload, retry_after)``; raises
        :class:`_JsonReply` for early-out responses.  The handler parses
        no page: a worker does, in the lane (:meth:`_process_batch`).
        """
        payload = self._read_request(handler)
        site = payload.get("site")
        if not isinstance(site, str) or not site:
            raise _JsonReply(400, {"error": "body must carry a 'site' string"})
        fault_point("serving.handle", site=site)
        pages = self._page_list(payload)
        threshold = self._number_field(payload, "threshold")
        if threshold is not None and not 0.0 <= threshold <= 1.0:
            raise _JsonReply(400, {"error": "'threshold' must be within [0, 1]"})
        deadline_s = self.config.request_deadline
        client_deadline = self._number_field(payload, "deadline")
        if client_deadline is not None and client_deadline > 0:
            deadline_s = min(deadline_s, client_deadline)
        if self.phase != PHASE_READY:
            raise _JsonReply(
                503,
                {"error": "server is draining", "category": "overload"},
                retry_after=self.config.retry_after,
            )
        registry = obs.metrics()
        request = PendingRequest(
            site=site,
            pages=pages,
            threshold=threshold,
            deadline=Deadline(deadline_s),
        )
        verdict = self.queue.offer(request)
        if verdict == OFFER_FULL:
            registry.inc("serving.shed")
            raise _JsonReply(
                429,
                {"error": "admission queue is full", "category": "overload"},
                retry_after=self.config.retry_after,
            )
        if verdict != OFFER_ACCEPTED:
            raise _JsonReply(
                503,
                {"error": "server is draining", "category": "overload"},
                retry_after=self.config.retry_after,
            )
        registry.inc("serving.accepted")
        registry.observe("serving.queue_depth", self.queue.stats()["depth"])
        self._begin_request()
        try:
            fulfilled = request.wait()
            if not fulfilled and request.forsake():
                registry.inc("serving.deadline_expired")
                raise _JsonReply(
                    504,
                    {
                        "error": (
                            f"deadline of {deadline_s}s expired before "
                            "a worker could answer"
                        ),
                        "category": "overload",
                    },
                )
        finally:
            self._end_request()
        outcome = request.outcome
        registry.inc("serving.responses")
        if outcome[0] == "ok":
            _, rows, model = outcome
            return (
                200,
                {
                    "site": site,
                    "model": model,
                    "pages": len(pages),
                    "extractions": len(rows),
                    "rows": rows,
                },
                None,
            )
        _, status, message, category = outcome
        retry_after = (
            self.config.retry_after if status in (429, 503) else None
        )
        return status, {"error": message, "category": category}, retry_after

    def _read_request(self, handler: _Handler) -> dict:
        length = self._content_length(handler)
        if length > self.config.max_body_bytes:
            handler.close_connection = True  # refuse to read the body
            raise _JsonReply(
                413,
                {
                    "error": (
                        f"body of {length} bytes exceeds the "
                        f"{self.config.max_body_bytes}-byte limit"
                    )
                },
            )
        # The request budget bounds the whole body read (a client that
        # stops short of Content-Length, or trickles it, gets 408): the
        # socket timeout only bounds one wait for data, so it is re-armed
        # from the remaining budget before each chunk.  Idle keep-alive
        # waits between requests stay unbounded.
        budget = Deadline(self.config.request_deadline)
        chunks: list[bytes] = []
        unread = length
        try:
            while unread:
                left = budget.remaining()
                if not left:
                    raise TimeoutError
                handler.connection.settimeout(left)
                chunk = handler.rfile.read1(unread)
                if not chunk:  # EOF: the short body fails to parse below
                    break
                chunks.append(chunk)
                unread -= len(chunk)
        except TimeoutError:
            handler.close_connection = True  # the rest of the body is unread
            raise _JsonReply(
                408,
                {"error": f"body not received within {budget.seconds}s"},
            ) from None
        finally:
            handler.connection.settimeout(None)
        body = b"".join(chunks)
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise _JsonReply(
                400, {"error": f"body is not valid JSON: {exc}"}
            ) from None
        if not isinstance(payload, dict):
            raise _JsonReply(400, {"error": "body must be a JSON object"})
        return payload

    @staticmethod
    def _content_length(handler: _Handler) -> int:
        """The body's length, from exactly one ``Content-Length`` of ASCII
        digits.  Any other framing leaves where the body ends ambiguous:
        it is refused and the connection closed, the body unread."""
        headers = handler.headers
        lengths = headers.get_all("Content-Length", [])
        value = lengths[0].strip(" \t") if lengths else ""
        if "Transfer-Encoding" in headers:
            status, error = 400, "Transfer-Encoding is not supported"
        elif not lengths:
            status, error = 411, "Content-Length is required"
        elif len(lengths) > 1:
            status, error = 400, "Content-Length must appear exactly once"
        elif not (value.isascii() and value.isdigit()):
            # int() alone would take "+1", "1_0" and non-ASCII digits.
            status, error = 400, f"Content-Length {value!r} is not a number"
        else:
            try:
                return int(value)
            except ValueError:  # past int()'s digit limit, so past any cap
                status, error = 413, "Content-Length is too large"
        handler.close_connection = True
        raise _JsonReply(status, {"error": error})

    @staticmethod
    def _page_list(payload: dict) -> list[tuple[str, str]]:
        """The request's ``(html, url)`` pairs, shape-checked (400)."""
        pages = payload.get("pages")
        if not isinstance(pages, list) or not pages:
            raise _JsonReply(
                400, {"error": "body must carry a non-empty 'pages' list"}
            )
        listed = []
        for index, page in enumerate(pages):
            if not isinstance(page, dict) or not isinstance(
                page.get("html"), str
            ):
                raise _JsonReply(
                    400,
                    {"error": f"pages[{index}] must carry an 'html' string"},
                )
            listed.append((page["html"], str(page.get("url", f"page-{index}"))))
        return listed

    @staticmethod
    def _number_field(payload: dict, key: str) -> float | None:
        value = payload.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _JsonReply(400, {"error": f"'{key}' must be a number"})
        # json accepts NaN/Infinity literals and integers past float range.
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise _JsonReply(400, {"error": f"'{key}' must be a finite number"})
        return number

    def _begin_request(self) -> None:
        with self._lifecycle:
            self._inflight += 1

    def _end_request(self) -> None:
        with self._lifecycle:
            self._inflight -= 1
            self._lifecycle.notify_all()

    # -- introspection -----------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``/stats`` body: runbook view of the whole serving tier."""
        with self._lifecycle:
            phase = self._phase
            inflight = self._inflight
        return {
            "phase": phase,
            "inflight": inflight,
            "queue": self.queue.stats(),
            "breakers": self.breakers.snapshot(),
            "metrics": obs.metrics().snapshot(),
            "service": self.service.cache_stats(),
            "gc": {
                "frozen": gc.get_freeze_count(),
                "generations": gc.get_stats(),
            },
        }

    # -- batch path (worker threads) ---------------------------------------

    def _worker_loop(self) -> None:
        while True:
            claimed = self.queue.take_batch()
            if claimed is None:
                return
            site, batch = claimed
            try:
                self._process_batch(site, batch)
            finally:
                self.queue.finish_site(site)

    def _process_batch(self, site: str, batch: list) -> None:
        registry = obs.metrics()
        breaker = self.breakers.for_site(site)
        route = breaker.route()
        try:
            if route == "primary":
                # Before the lane: an injected hang wedges this worker,
                # as one stuck before computing would, and no other.
                fault_point("serving.batch", site=site)
            with self._lane:
                computed = self._compute_batch(site, batch, route)
        except Exception as exc:
            category = classify_error(exc)
            if route == "primary":
                if breaker.record_failure(category):
                    registry.inc("serving.breaker_opened")
                registry.inc(f"serving.errors_{category}")
                outcome = (
                    "error",
                    _CATEGORY_STATUS[category],
                    f"{type(exc).__name__}: {exc}",
                    category,
                )
            else:
                registry.inc(f"serving.fallback_errors_{category}")
                outcome = (
                    "error",
                    503,
                    (
                        f"circuit breaker open for {site!r} and the zero-shot "
                        f"fallback failed: {type(exc).__name__}: {exc}"
                    ),
                    "overload",
                )
            for request in batch:  # answered ones (504, 422) stay answered
                request.fulfill(outcome)
            return
        if route != "primary":
            return
        if computed:
            breaker.record_success()
        else:
            # Every request expired or was refused before scoring.  A
            # non-permanent report never counts, and it hands back a
            # half-open breaker's probe slot, which nothing exercised.
            breaker.record_failure("overload")

    def _compute_batch(self, site: str, batch: list, route: str) -> bool:
        """Parse, score and answer *batch* (called holding the lane).

        Returns False when no request was left to score.  The documents
        parsed here are released before returning, whatever happened:
        a request forsaken at its deadline no longer reads them.
        """
        registry = obs.metrics()
        live: list = []
        merged: list = []
        offsets: list[int] = []
        try:
            with obs.span("serving.batch", site=site, route=route) as span:
                now = time.monotonic()
                for request in batch:
                    if request.deadline.expired():
                        if request.fulfill(
                            (
                                "error",
                                504,
                                "request expired while queued",
                                "overload",
                            )
                        ):
                            registry.inc("serving.deadline_expired_queued")
                        continue
                    registry.observe(
                        "serving.queue_wait_seconds", now - request.admitted
                    )
                    documents = self._parse_pages(request)
                    if documents is not None:
                        live.append(request)
                        offsets.append(len(merged))
                        merged.extend(documents)
                if not live:
                    return False
                span.set(pages=len(merged))
                registry.inc("serving.batches")
                registry.observe("serving.batch_pages", len(merged))
                threshold = live[0].threshold
                if route == "primary":
                    extractions = self.service.extract_pages(
                        site, merged, threshold
                    )
                    registry.inc("serving.primary_requests", len(live))
                    # The primary route still serves zero-shot when the
                    # service has --transfer-fallback on and no model for
                    # this site.
                    label = (
                        "site" if self.service.has_site_model(site)
                        else "transfer"
                    )
                else:
                    extractions = self.service.extract_pages_transfer(
                        site, merged, threshold
                    )
                    registry.inc("serving.fallback_requests", len(live))
                    label = "transfer"
                self._fulfill_split(
                    live, offsets, merged, extractions, site, label
                )
                return True
        finally:
            for document in merged:
                document.release()

    def _parse_pages(self, request: PendingRequest) -> list | None:
        """*request*'s pages as documents, or None once a page the parser
        refuses has answered the request 422."""
        documents = []
        with obs.stage("stage.parse", pages=len(request.pages)) as stage:
            for index, (html, url) in enumerate(request.pages):
                try:
                    documents.append(
                        parse_html(
                            html,
                            url=url,
                            max_depth=self._max_parse_depth,
                            max_nodes=self._max_parse_nodes,
                        )
                    )
                except (ParseLimitError, MarkedSectionError) as exc:
                    obs.metrics().inc("serving.parse_rejected")
                    request.fulfill(
                        ("error", 422, f"pages[{index}]: {exc}", "permanent")
                    )
                    for document in documents:  # the pages before it
                        document.release()
                    return None
            if obs.tracing_enabled():
                stage.set(bytes=sum(
                    len(html.encode("utf-8", "surrogatepass"))
                    for html, _ in request.pages
                ))
        return documents

    @staticmethod
    def _fulfill_split(
        live: list, offsets: list[int], merged: list, extractions: list,
        site: str, model: str,
    ) -> None:
        """Route each extraction back to the request that sent its page."""
        # The extractions themselves are the provenance of record: a
        # service-level --transfer-fallback can serve an unseen site
        # zero-shot even on the breaker's primary route, and then the
        # top-level label must say "transfer" like the rows do.
        provenances = {getattr(e, "model", "site") for e in extractions}
        if len(provenances) == 1:
            model = provenances.pop()
        per_request: list[list[dict]] = [[] for _ in live]
        bounds = offsets[1:] + [len(merged)]
        owner = 0
        for extraction in sorted(extractions, key=lambda e: e.page_index):
            while extraction.page_index >= bounds[owner]:
                owner += 1
            per_request[owner].append(
                extraction_row(
                    extraction, merged[extraction.page_index].url, site
                )
            )
        for request, rows in zip(live, per_request):
            request.fulfill(("ok", rows, model))
