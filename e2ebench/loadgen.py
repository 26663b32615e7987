"""The load generator: one process, one thread, a few keep-alive sockets.

Requests arrive pre-encoded (:class:`inputs.Request`), so the timed phase
only writes bytes and reads responses and the generator barely competes
with the server for the host's cores.  A ``selectors`` loop multiplexes
the connections; each carries at most one request at a time (HTTP/1.1
without pipelining), so in an open loop a request that comes due while
every connection is busy waits in the generator — and its latency still
counts from its *due* time, so a server stall delays everything behind
it exactly as users would see.

Latency, lateness and backlog all use ``time.monotonic``; the
benchmark's own durations go through ``repro.obs`` timers.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass

import stats

#: seconds a stopped phase waits for in-flight responses before it marks
#: them failed and drops their connections.
DRAIN_TIMEOUT = 30.0


@dataclass
class Outcome:
    """What happened to one request of a phase."""

    request: object
    due: float
    sent: float | None = None
    done: float | None = None
    #: HTTP status; 0 when the request failed on the wire.
    status: int = 0
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        """Due time to full response; infinite for a failed request, so
        failures count as latency misses."""
        if not self.ok or self.done is None:
            return float("inf")
        return (self.done - self.due) * 1000.0


@dataclass
class Phase:
    """One open- or closed-loop phase: its outcomes (sent requests only)
    and how late the generator itself ran."""

    outcomes: list
    started: float
    ended: float
    lateness_max_s: float = 0.0
    stopped_early: bool = False

    @property
    def latencies_ms(self) -> list:
        return [outcome.latency_ms for outcome in self.outcomes]

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    def pages_per_s(self) -> float:
        pages = sum(len(o.request.pages) for o in self.outcomes if o.ok)
        elapsed = self.ended - self.started
        return pages / elapsed if elapsed > 0 else 0.0


class _Conn:
    __slots__ = ("sock", "outcome", "buffer", "idle_since")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.outcome: Outcome | None = None
        self.buffer = bytearray()
        self.idle_since = now


def parse_response(buffer: bytes) -> tuple[int, bytes, int, bool] | None:
    """``(status, body, consumed, close)`` once ``buffer`` holds a whole
    response with a Content-Length body, else None."""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = bytes(buffer[:head_end]).decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    close = False
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "connection" and value.strip().lower() == "close":
            close = True
    end = head_end + 4 + length
    if len(buffer) < end:
        return None
    return status, bytes(buffer[head_end + 4:end]), end, close


class LoadGenerator:
    """Drives ``connections`` keep-alive connections to ``port``."""

    def __init__(self, port: int, connections: int) -> None:
        self.port = port
        self.connections = connections
        self._selector = selectors.DefaultSelector()
        self._conns: list[_Conn] = []
        now = time.monotonic()
        for _ in range(connections):
            self._conns.append(self._connect(now))

    def _connect(self, now: float) -> _Conn:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=10)
        conn = _Conn(sock, now)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        return conn

    def _replace(self, conn: _Conn, now: float) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self._conns[self._conns.index(conn)] = self._connect(now)

    def close(self) -> None:
        for conn in self._conns:
            self._selector.unregister(conn.sock)
            conn.sock.close()
        self._conns = []
        self._selector.close()

    # -- phases --------------------------------------------------------------

    def open_loop(
        self, requests: list, rate: float, miss_limit_ms: float | None = None
    ) -> Phase:
        """Send ``requests`` evenly spaced at ``rate`` per second.

        With ``miss_limit_ms``, the phase stops sending once more than
        :data:`stats.TAIL_BEYOND` requests have missed that latency
        limit — the tail can no longer meet it (a failing ladder rung).
        Unsent requests are left out of the returned outcomes.
        """
        start = time.monotonic() + 0.005
        dues = [start + index / rate for index in range(len(requests))]
        return self._drive(requests, dues, None, miss_limit_ms)

    def closed_loop(self, requests: list, seconds: float) -> Phase:
        """Each connection sends its next request as soon as the previous
        response is complete, for ``seconds`` (or until ``requests`` run
        out).  Latency is then send-to-response."""
        return self._drive(requests, None, time.monotonic() + seconds, None)

    def _drive(self, requests, dues, stop_at, miss_limit_ms) -> Phase:
        outcomes: list[Outcome] = []
        waiting: deque[Outcome] = deque()
        next_index = 0
        started = time.monotonic()
        lateness = 0.0
        stopping = False
        stopped_early = False
        drain_deadline: float | None = None
        in_flight = 0
        while True:
            now = time.monotonic()
            if not stopping:
                if dues is not None:
                    while next_index < len(requests) and dues[next_index] <= now:
                        waiting.append(
                            Outcome(requests[next_index], dues[next_index])
                        )
                        next_index += 1
                    if next_index == len(requests) and not waiting:
                        stopping = True
                elif now >= stop_at or (
                    next_index >= len(requests) and not waiting
                ):
                    stopping = True
                if miss_limit_ms is not None and self._misses(
                    outcomes, waiting, now, miss_limit_ms
                ) > stats.TAIL_BEYOND:
                    stopping = stopped_early = True
            if stopping:
                waiting.clear()
                if in_flight == 0:
                    break
                if drain_deadline is None:
                    drain_deadline = now + DRAIN_TIMEOUT
                elif now >= drain_deadline:
                    for conn in list(self._conns):
                        if conn.outcome is not None:
                            conn.outcome = None
                            self._replace(conn, now)
                    break
            for conn in self._conns:
                if stopping or conn.outcome is not None:
                    continue
                if not waiting and dues is None and next_index < len(requests):
                    waiting.append(Outcome(requests[next_index], now))
                    next_index += 1
                if not waiting:
                    break
                outcome = waiting.popleft()
                send_time = time.monotonic()
                lateness = max(
                    lateness, send_time - max(outcome.due, conn.idle_since)
                )
                outcome.sent = send_time
                if dues is None:
                    outcome.due = send_time
                outcomes.append(outcome)
                try:
                    conn.sock.sendall(outcome.request.wire)
                except OSError:
                    outcome.done = time.monotonic()
                    self._replace(conn, outcome.done)
                    continue
                conn.outcome = outcome
                in_flight += 1
            if dues is not None and not stopping and next_index < len(requests):
                timeout = max(0.0, dues[next_index] - time.monotonic())
            else:
                timeout = 0.05
            for key, _ in self._selector.select(timeout):
                in_flight -= self._receive(key.data)
        return Phase(outcomes, started, time.monotonic(), lateness, stopped_early)

    @staticmethod
    def _misses(outcomes, waiting, now: float, limit_ms: float) -> int:
        limit = limit_ms / 1000.0
        missed = sum(
            1
            for outcome in outcomes
            if (outcome.done is not None and not outcome.ok)
            or (outcome.done or now) - outcome.due > limit
        )
        return missed + sum(1 for outcome in waiting if now - outcome.due > limit)

    def _receive(self, conn: _Conn) -> int:
        """Read from a readable connection; returns responses completed
        (or failed) by this read."""
        now = time.monotonic()
        try:
            data = conn.sock.recv(1 << 20)
        except OSError:
            data = b""
        if not data:
            # The server closed the connection: whatever it carried failed.
            finished = 0
            if conn.outcome is not None:
                conn.outcome.done = now
                finished = 1
            self._replace(conn, now)
            return finished
        conn.buffer += data
        parsed = parse_response(conn.buffer)
        if parsed is None:
            return 0
        status, body, consumed, close = parsed
        del conn.buffer[:consumed]
        outcome = conn.outcome
        conn.outcome = None
        conn.idle_since = now
        if outcome is None:
            return 0
        outcome.status, outcome.body, outcome.done = status, body, now
        if close:
            self._replace(conn, now)
        return 1


def _finite(value: float) -> float | None:
    return None if value == float("inf") else value


def merge(phases: list) -> Phase:
    """Chunks of one phase run at different times, as one phase whose
    duration is the sum of theirs."""
    return Phase(
        [outcome for phase in phases for outcome in phase.outcomes],
        0.0,
        sum(phase.ended - phase.started for phase in phases),
        max(phase.lateness_max_s for phase in phases),
        any(phase.stopped_early for phase in phases),
    )


def roundtrip(port: int, request) -> Outcome:
    """One request on a fresh connection (set-up warm-ups)."""
    generator = LoadGenerator(port, 1)
    try:
        return generator.closed_loop([request], 60.0).outcomes[0]
    finally:
        generator.close()


def ladder(
    generator: LoadGenerator,
    take,
    give_back,
    *,
    start_rate: float,
    ratio: float,
    per_rung: int,
    limit_ms: float,
    refine_steps: int,
    max_rate: float,
    collect: list | None = None,
) -> dict:
    """Find the highest rate whose tail stays within ``limit_ms`` with
    every request answered 200 and no growing backlog.

    A rate fails only if two rungs at it fail in a row, so one stall of
    the shared host cannot end the climb.  The geometric climb from
    ``start_rate`` stops at the first failing rate (or ``max_rate``); if
    the first rate already fails the ladder steps down instead.
    ``refine_steps`` log-space bisections then narrow the gap between the
    highest pass and the failure above it.  ``take(n)`` draws fresh
    requests (None: supply exhausted); ``give_back`` returns those a rung
    stopped before sending; every sent request's outcome is appended to
    ``collect``, in send order.
    """
    rungs = []

    def rung(rate: float) -> bool | None:
        requests = take(per_rung)
        if requests is None:
            return None
        phase = generator.open_loop(requests, rate, limit_ms)
        give_back(requests[len(phase.outcomes):])
        if collect is not None:
            collect.extend(phase.outcomes)
        latencies = phase.latencies_ms
        value, percentile, _ = stats.tail(latencies)
        dues = [o.due for o in phase.outcomes]
        done = [o.done if o.ok else None for o in phase.outcomes]
        passed = (
            not phase.stopped_early
            and phase.failed == 0
            and value <= limit_ms
            and not stats.backlog_grows(dues, done, generator.connections)
        )
        rungs.append(
            {
                "rate": rate,
                "passed": passed,
                "sent": len(phase.outcomes),
                "failed": phase.failed,
                "p50_ms": _finite(stats.median(latencies)),
                "tail_ms": _finite(value),
                "tail_pct": percentile,
                "lateness_ms": phase.lateness_max_s * 1000.0,
            }
        )
        return passed

    def trial(rate: float) -> bool | None:
        verdict = rung(rate)
        return rung(rate) if verdict is False else verdict

    highest_pass = None
    failed_above = None
    exhausted = False
    rate = start_rate
    while rate <= max_rate:
        verdict = trial(rate)
        if verdict is None:
            exhausted = True
            break
        if not verdict:
            failed_above = rate
            break
        highest_pass = rate
        rate *= ratio
    rate = start_rate / ratio
    while highest_pass is None and not exhausted and rate >= 0.5:
        verdict = trial(rate)
        exhausted = verdict is None
        if verdict:
            highest_pass = rate
        rate /= ratio
    if highest_pass is not None and failed_above is not None:
        high = failed_above
        for _ in range(refine_steps):
            middle = (highest_pass * high) ** 0.5
            verdict = trial(middle)
            if verdict is None:
                exhausted = True
                break
            if verdict:
                highest_pass = middle
            else:
                high = middle
    return {
        "max_rps": highest_pass or 0.0,
        "rungs": rungs,
        "supply_exhausted": exhausted,
    }
