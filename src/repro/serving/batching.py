"""Bounded admission queue with cross-request micro-batching.

The HTTP handler threads *produce* :class:`PendingRequest`s; a small
pool of batch workers *consumes* them.  Two properties matter more than
throughput:

* **Bounded memory** — :meth:`AdmissionQueue.offer` never blocks and
  never grows past ``max_depth``; a full queue is the caller's signal
  to shed (HTTP 429).
* **Exactly one response per accepted request** — a request is answered
  either by the worker (:meth:`PendingRequest.fulfill`) or by its
  waiting handler claiming it back on deadline
  (:meth:`PendingRequest.forsake`), never both, never zero times.  Both
  sides race through one flag under the request's own lock.

Batching: workers pull *all* queued requests for one ``(site,
threshold)`` pair at once (up to ``batch_max_pages`` pages) so the
scoring engine sees full batches even when every client sends one page.
A claimed site stays claimed until its batch is answered, so one site's
batches never overlap.  Claims are per site; the server computes one
batch at a time across all workers (its *lane*, see
:class:`~repro.serving.server.ServingServer`), so a second worker waits
there, not here, while another site's batch computes.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.runtime.resilience import Deadline

__all__ = [
    "OFFER_ACCEPTED",
    "OFFER_CLOSED",
    "OFFER_FULL",
    "AdmissionQueue",
    "PendingRequest",
]

OFFER_ACCEPTED = "accepted"
OFFER_FULL = "full"
OFFER_CLOSED = "closed"


class PendingRequest:
    """One admitted ``/extract`` request, in flight between threads.

    *pages* are the request's raw ``(html, url)`` pairs; the worker that
    claims the request parses them.  The *outcome* is an opaque tuple
    the server interprets; the queue only guarantees the exactly-once
    handoff.
    """

    __slots__ = (
        "site",
        "pages",
        "threshold",
        "deadline",
        "admitted",
        "outcome",
        "_lock",
        "_event",
        "_answered",
    )

    def __init__(
        self,
        site: str,
        pages: list[tuple[str, str]],
        threshold: float | None,
        deadline: Deadline,
    ) -> None:
        self.site = site
        self.pages = pages
        self.threshold = threshold
        self.deadline = deadline
        #: monotonic clock reading at admission (the queue wait's start).
        self.admitted = time.monotonic()
        self.outcome = None
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._answered = False

    def fulfill(self, outcome) -> bool:
        """Worker side: deliver *outcome*.  False if the waiter gave up."""
        with self._lock:
            if self._answered:
                return False
            self._answered = True
            self.outcome = outcome
        self._event.set()
        return True

    def forsake(self) -> bool:
        """Waiter side: reclaim the request (deadline expired).

        True means the waiter now owns the response (the worker will
        see ``fulfill`` fail and drop its result); False means a worker
        answered first and ``outcome`` is set.
        """
        with self._lock:
            if self._answered:
                return False
            self._answered = True
            return True

    def wait(self, grace: float = 0.05) -> bool:
        """Block until fulfilled or the deadline (+*grace*) passes."""
        return self.deadline.wait(self._event, grace=grace)

    def batch_key(self) -> tuple[str, float | None]:
        return (self.site, self.threshold)


class AdmissionQueue:
    """Bounded FIFO of :class:`PendingRequest` with per-site claims."""

    def __init__(
        self,
        max_depth: int = 64,
        batch_max_pages: int = 64,
        batch_linger: float = 0.0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if batch_max_pages < 1:
            raise ValueError("batch_max_pages must be >= 1")
        self._max_depth = max_depth
        self._batch_max_pages = batch_max_pages
        self._batch_linger = batch_linger
        self._lock = threading.Condition()
        self._pending: deque[PendingRequest] = deque()
        self._active_sites: set[str] = set()
        self._draining = False
        self._stopped = False

    # --- producer side (HTTP handler threads) ---

    def offer(self, request: PendingRequest) -> str:
        """Try to admit *request*; never blocks.

        Returns :data:`OFFER_ACCEPTED`, :data:`OFFER_FULL` (shed with
        429), or :data:`OFFER_CLOSED` (draining/stopped, answer 503).
        """
        with self._lock:
            if self._draining or self._stopped:
                return OFFER_CLOSED
            if len(self._pending) >= self._max_depth:
                return OFFER_FULL
            self._pending.append(request)
            self._lock.notify()
            return OFFER_ACCEPTED

    # --- consumer side (batch workers) ---

    def take_batch(self) -> tuple[str, list[PendingRequest]] | None:
        """Claim the next same-``(site, threshold)`` batch, or None to exit.

        Blocks until a request for an unclaimed site is available.  The
        claimed site stays marked active — serializing it — until the
        worker calls :meth:`finish_site`.  Returns None only once the
        queue is stopped and empty.
        """
        with self._lock:
            while True:
                head = self._pick_unclaimed_locked()
                if head is not None:
                    break
                if self._stopped and not self._pending:
                    return None
                self._lock.wait(0.1)
            self._active_sites.add(head.site)
            if self._batch_linger > 0 and not self._stopped:
                # One bounded wait for same-site stragglers, so a burst
                # of single-page requests scores as one batch.
                self._lock.wait(self._batch_linger)
            batch = self._collect_batch_locked(head)
        return head.site, batch

    def _pick_unclaimed_locked(self) -> PendingRequest | None:
        # Called with the lock held; the re-entrant `with` (Condition
        # wraps an RLock) keeps the lock discipline lexically checkable.
        with self._lock:
            for request in self._pending:
                if request.site not in self._active_sites:
                    return request
            return None

    def _collect_batch_locked(self, head: PendingRequest) -> list[PendingRequest]:
        with self._lock:
            key = head.batch_key()
            batch: list[PendingRequest] = []
            pages = 0
            kept: deque[PendingRequest] = deque()
            for request in self._pending:
                if (
                    request.batch_key() == key
                    and pages + len(request.pages) <= self._batch_max_pages
                ):
                    batch.append(request)
                    pages += len(request.pages)
                else:
                    kept.append(request)
            if not batch:  # head alone exceeds the page cap: take just it
                batch.append(head)
                kept.remove(head)
            self._pending.clear()
            self._pending.extend(kept)
            return batch

    def finish_site(self, site: str) -> None:
        """Release the per-site claim taken by :meth:`take_batch`."""
        with self._lock:
            self._active_sites.discard(site)
            self._lock.notify_all()

    # --- lifecycle (drain / stop) ---

    def begin_drain(self) -> None:
        """Stop admitting; queued work keeps flowing to workers."""
        with self._lock:
            self._draining = True
            self._lock.notify_all()

    def stop(self) -> None:
        """Tell workers to exit once the queue is empty."""
        with self._lock:
            self._draining = True
            self._stopped = True
            self._lock.notify_all()

    def abort_pending(self) -> list[PendingRequest]:
        """Forced drain: claim back everything still queued."""
        with self._lock:
            aborted = list(self._pending)
            self._pending.clear()
            self._lock.notify_all()
        return aborted

    def wait_idle(self, timeout: float) -> bool:
        """Wait until nothing is queued or claimed; False on timeout."""
        with self._lock:
            return self._lock.wait_for(self._idle_locked, timeout)

    def _idle_locked(self) -> bool:
        # The wait_for predicate: called with the lock held, re-entered
        # like _pick_unclaimed_locked.
        with self._lock:
            return not self._pending and not self._active_sites

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._pending),
                "max_depth": self._max_depth,
                "active_sites": sorted(self._active_sites),
                "draining": self._draining,
                "stopped": self._stopped,
            }
