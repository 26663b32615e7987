"""Knobs for the resilient online serving tier (``serve-http``).

The CLI generates one ``serve-http`` flag per field (``--max-queue-depth``
for ``max_queue_depth``; ``workers`` is ``--threads``), with the type
and default declared here.  Defaults are sized for a laptop-scale
deployment and are deliberately conservative about memory (bounded
queue) and latency (short linger).  :class:`ServingConfig` is frozen —
the server reads it from many threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from threading import TIMEOUT_MAX

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """All knobs of the HTTP serving tier, validated at construction."""

    # --- wire ---
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (the bound port is printed on
    #: startup and exposed as :attr:`ServingServer.port`).
    port: int = 8080
    #: Largest accepted request body; beyond it the request is answered
    #: 413 without being read.
    max_body_bytes: int = 16 << 20

    # --- admission / backpressure ---
    #: Batch worker threads.  Each claims one site's batch; the server
    #: computes (parses, scores, answers) one batch at a time across all
    #: of them, so more workers buy no parallel compute.  A second worker
    #: keeps other sites served while one is wedged before computing,
    #: and holds its next batch claimed while the current one computes.
    workers: int = 2
    #: Bounded admission queue depth (requests).  A full queue sheds new
    #: work with 429 + ``Retry-After`` instead of queueing unboundedly.
    max_queue_depth: int = 64
    #: ``Retry-After`` value (seconds) sent with shed (429) and
    #: draining (503) responses.
    retry_after: float = 1.0

    # --- deadlines ---
    #: Per-request wall-clock budget, enqueue to response.  A request
    #: whose budget runs out is answered 504 — by the worker if it is
    #: still queued, by the handler if the worker is wedged.  Clients
    #: may request *less* via a ``deadline`` body field, never more.
    #: The same budget bounds reading the whole request body: a body
    #: not received in full within it is answered 408.
    request_deadline: float = 30.0

    # --- cross-request micro-batching ---
    #: Page cap per merged batch fed to the scoring engine.
    batch_max_pages: int = 64
    #: After claiming a batch, wait up to this long for more same-site
    #: requests to arrive before scoring (0 disables).  Trades a little
    #: latency for fuller batches: one CSR matrix and one matmul per
    #: cluster model (``CeresModel.score_pages``).
    batch_linger: float = 0.0

    # --- per-site circuit breakers ---
    #: Consecutive *permanent* failures that open a site's breaker
    #: (transient/overload failures never count).
    breaker_failures: int = 3
    #: Seconds an open breaker waits before letting a probe through
    #: (open → half-open).
    breaker_cooldown: float = 30.0
    #: Consecutive successful probes required to close a half-open
    #: breaker.
    breaker_probes: int = 1

    # --- graceful drain ---
    #: Seconds the SIGTERM drain waits for queued + in-flight work
    #: before force-answering what remains with 503 and exiting anyway.
    drain_timeout: float = 30.0

    # --- hostile-input parse caps (>= 1; None → CeresConfig defaults) ---
    max_parse_depth: int | None = None
    max_parse_nodes: int | None = None

    def __post_init__(self) -> None:
        # Every float field is a duration in seconds.  The range check
        # also refuses NaN; its top is the longest wait a lock or a
        # socket timeout accepts.
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(field.default, float) and not (
                0 <= value <= TIMEOUT_MAX
            ):
                raise ValueError(
                    f"{field.name} must be in 0..{TIMEOUT_MAX:.0f} seconds"
                )
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0..65535")
        if self.max_body_bytes < 0:
            raise ValueError("max_body_bytes must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.batch_max_pages < 1:
            raise ValueError("batch_max_pages must be >= 1")
        if self.request_deadline <= 0:
            raise ValueError("request_deadline must be > 0 seconds")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_probes < 1:
            raise ValueError("breaker_probes must be >= 1")
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be > 0 seconds")
        for name in ("max_parse_depth", "max_parse_nodes"):
            cap = getattr(self, name)
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be >= 1")
