"""Fault-tolerant corpus runs: the crash-safe run journal and the
hardened-worker primitives (:mod:`repro.runtime.runner` wires them in).

CERES ran over 439K CommonCrawl sites; at that scale worker crashes,
hung pages, torn writes, and interrupted runs are the norm, not the
exception.  This module gives ``run_corpus`` the machinery to survive
them:

* :class:`RunJournal` — a write-ahead JSONL journal under a per-run
  directory.  Appends are single-``write`` + ``fsync`` (so a SIGKILL
  never interleaves two records), replay tolerates exactly one torn
  trailing line (the record being appended when the process died), and
  per-site extraction rows land in ``rows/<site>.jsonl`` via temp file +
  ``fsync`` + atomic rename.  Sites are keyed by a content fingerprint
  of their pages plus a config fingerprint, so ``--resume`` re-runs a
  site iff its inputs (or the config) changed.
* :func:`backoff_delay` / :func:`sleep_backoff` — bounded exponential
  backoff with *deterministic* jitter (seeded by the retry key, so chaos
  tests replay exactly).  ``sleep_backoff`` is the **only** sanctioned
  retry sleep in the codebase; CI greps for bare ``time.sleep`` retry
  loops elsewhere.
* :func:`deadline` — a per-site wall-clock timeout.  SIGALRM-based on
  the main thread, where the alarm is deliverable: the one preemptive
  mechanism, and the only way to stop a site wedged inside a worker.
  Off the main thread it degrades to a :class:`Deadline` checked when
  the block exits.
* :class:`Deadline` — the one cooperative mechanism: a plain
  monotonic-clock budget usable from *any* thread (the serving tier's
  request handlers, batch workers and drain).  Code checks it at safe
  points and sizes its blocking waits by it; nothing runs in the
  background.
* :func:`classify_error` — transient (worth retrying: timeouts,
  connection resets, ENOSPC-style OS hiccups, injected transient
  faults) vs overload (the system is busy, not broken: bounded queues
  full, EAGAIN/EBUSY contention — retry later, never trip a breaker)
  vs permanent (retrying cannot help: missing files, value errors,
  injected permanent faults).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import random
import signal
import tempfile
import threading
import time
from pathlib import Path
from typing import Collection, Iterable, Iterator, TextIO
from urllib.parse import quote

from repro.testing.faults import (
    FaultError,
    OverloadFaultError,
    TransientFaultError,
    fault_point,
)

__all__ = [
    "Deadline",
    "JournalError",
    "OverloadError",
    "RunJournal",
    "SiteTimeoutError",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUARANTINED",
    "STATE_RUNNING",
    "atomic_write",
    "backoff_delay",
    "classify_error",
    "config_fingerprint",
    "deadline",
    "fsync_directory",
    "site_fingerprint",
    "sleep_backoff",
]


class SiteTimeoutError(TimeoutError):
    """A site exceeded its wall-clock budget (see :func:`deadline`)."""


class OverloadError(RuntimeError):
    """The system is too busy to take the work right now.

    Raised by bounded admission paths (the serving tier's queue, a
    breaker open with no fallback).  Classified ``"overload"`` by
    :func:`classify_error`: worth retrying *later* (it is not broken),
    but never counted toward a circuit breaker and never treated as a
    permanent failure.
    """


class JournalError(ValueError):
    """The run journal is unusable: corrupt, config-mismatched, or a
    fresh run was pointed at an existing journal without ``resume``."""


# -- error classification ----------------------------------------------------

#: OS-level errnos worth retrying: flaky resources that can clear on
#: their own.  Missing files (ENOENT & friends) are *not* here —
#: retrying a nonexistent pages directory cannot help.
_TRANSIENT_ERRNOS = frozenset(
    {
        errno.EINTR,
        errno.EIO,
        errno.ENOSPC,
        errno.ESTALE,
        errno.ETIMEDOUT,
    }
)

#: OS-level errnos meaning "busy", not "broken": the resource exists and
#: works, there is just contention for it right now.  Distinct from
#: transient so shed/breaker decisions never conflate load with damage.
_OVERLOAD_ERRNOS = frozenset({errno.EAGAIN, errno.EBUSY})


def classify_error(exc: BaseException) -> str:
    """``"transient"`` (retry with backoff), ``"overload"`` (busy — back
    off and retry later, never trips a breaker), or ``"permanent"``
    (retrying cannot help).

    Injected faults carry their own classification
    (:class:`TransientFaultError` / :class:`OverloadFaultError` vs
    :class:`FaultError`); timeouts and connection failures are
    transient; OS errors split into contended-resource (overload) and
    flaky-resource (transient) errnos; everything else — logic errors,
    missing inputs, malformed data — is permanent.
    """
    if isinstance(exc, OverloadFaultError):
        return "overload"
    if isinstance(exc, TransientFaultError):
        return "transient"
    if isinstance(exc, FaultError):
        return "permanent"
    if isinstance(exc, OverloadError):
        return "overload"
    if isinstance(exc, (FileNotFoundError, NotADirectoryError,
                        IsADirectoryError, PermissionError)):
        return "permanent"
    if isinstance(exc, (TimeoutError, ConnectionError, InterruptedError)):
        return "transient"
    if isinstance(exc, OSError):
        if exc.errno in _OVERLOAD_ERRNOS:
            return "overload"
        return "transient" if exc.errno in _TRANSIENT_ERRNOS else "permanent"
    return "permanent"


# -- retry backoff -----------------------------------------------------------


def backoff_delay(
    attempt: int, *, base: float = 0.5, cap: float = 30.0, key: str = ""
) -> float:
    """Delay before retry ``attempt + 1`` (``attempt`` counts from 1).

    Exponential window ``base * 2**(attempt-1)`` capped at ``cap``, with
    jitter drawn uniformly from the window's upper half.  The jitter is
    *deterministic* — seeded by ``(key, attempt)`` — so a replayed chaos
    run sleeps exactly as long as the original, while distinct sites
    still decorrelate (each site passes its own key).
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    window = min(cap, base * (2.0 ** (attempt - 1)))
    rng = random.Random(f"{key}\x00{attempt}")
    return window * (0.5 + 0.5 * rng.random())


def sleep_backoff(
    attempt: int, *, base: float = 0.5, cap: float = 30.0, key: str = ""
) -> float:
    """Sleep :func:`backoff_delay` and return the delay slept.

    The only sanctioned retry sleep in the codebase — CI greps for bare
    ``time.sleep`` retry loops outside this helper.
    """
    delay = backoff_delay(attempt, base=base, cap=cap, key=key)
    time.sleep(delay)
    return delay


# -- wall-clock deadlines ----------------------------------------------------


class Deadline:
    """A monotonic-clock cooperative deadline, usable from any thread.

    Unlike :func:`deadline` (SIGALRM — main-thread-only, preemptive),
    a ``Deadline`` never interrupts anything by itself: code *checks* it
    at safe points (:meth:`check`, :meth:`expired`) and sizes its
    blocking waits by :meth:`remaining` (or waits through :meth:`wait`).
    ``seconds`` None/<= 0 makes it unbounded: its checks never fire.
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float | None) -> None:
        if seconds is not None and seconds <= 0:
            seconds = None
        #: the budget this deadline was created with (None = unbounded).
        self.seconds = seconds
        self._expires_at = (
            None if seconds is None else time.monotonic() + seconds
        )

    def remaining(self) -> float | None:
        """Seconds left (never negative); ``None`` when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        """Whether the budget is exhausted."""
        return self.remaining() == 0.0

    def check(self) -> None:
        """Raise :class:`SiteTimeoutError` if the budget is exhausted."""
        if self.expired():
            raise SiteTimeoutError(f"deadline of {self.seconds}s exceeded")

    def wait(self, event: threading.Event, grace: float = 0.0) -> bool:
        """Wait for ``event`` up to the remaining budget (+ ``grace``).

        Returns whether the event was set — ``False`` means the deadline
        ran out first.  With no budget, waits indefinitely.
        """
        left = self.remaining()
        return event.wait(None if left is None else left + grace)


@contextlib.contextmanager
def deadline(seconds: float | None) -> Iterator[Deadline | None]:
    """Raise :class:`SiteTimeoutError` if the block outlives ``seconds``.

    SIGALRM-based on the main thread, so it interrupts blocking waits (a
    hung page read, an injected ``hang`` fault sleeping in C ``sleep``);
    both ``run_corpus`` inline mode and pool workers run site work on
    their process's main thread, where the alarm is deliverable.  Off
    the main thread (or without SIGALRM) it degrades to a cooperative
    :class:`Deadline`: the block cannot be preempted, but an overrun is
    still detected — and raised — when the block exits, and the yielded
    :class:`Deadline` lets cooperative code check mid-flight.  A no-op
    when ``seconds`` is None/<= 0.
    """
    if seconds is None or seconds <= 0:
        yield None
        return
    usable = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        handle = Deadline(seconds)
        yield handle
        handle.check()
        return

    def _expire(signum, frame):  # noqa: ARG001 — signal handler signature
        raise SiteTimeoutError(
            f"wall-clock budget of {seconds}s exceeded"
        )

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- fingerprints ------------------------------------------------------------


def config_fingerprint(
    config_data: dict,
    threshold: float | None = None,
    kb_sha256: str | None = None,
) -> str:
    """Hash of everything that shapes a site's output besides its pages:
    the config, the threshold and the seed KB (the sha256 of its file)."""
    payload = json.dumps(
        {"config": config_data, "threshold": threshold, "kb": kb_sha256},
        sort_keys=True, ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def site_fingerprint(page_paths: Iterable[Path]) -> str:
    """Content hash of a site's page files (names + bytes, in order).

    Any edit, addition, removal, or rename of a page changes the
    fingerprint, so ``--resume`` re-runs exactly the sites whose inputs
    changed.
    """
    digest = hashlib.sha256()
    for path in page_paths:
        digest.update(path.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()


# -- durable-write helpers ---------------------------------------------------


def fsync_directory(path: Path | str) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some filesystems refuse directory fsync; the rename
    itself is still atomic there.
    """
    with contextlib.suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


@contextlib.contextmanager
def atomic_write(
    path: Path | str,
    *,
    fault: str | None = None,
    fault_fields: dict | None = None,
) -> Iterator[TextIO]:
    """Write ``path`` atomically: temp file + fsync + ``os.replace``.

    Yields a text handle onto a uniquely-named temp file in ``path``'s
    directory (unique per call, not per PID: concurrent saves from
    threads of one process must not interleave into a torn artifact).
    On clean exit the handle is flushed and fsynced before the rename —
    ``os.replace`` is only atomic about *names*; without the fsync a
    crash after the rename could still surface an empty or torn file
    under the final path — then the directory entry itself is persisted.
    On any failure the temp file is removed and the previous contents of
    ``path`` remain untouched.

    ``fault`` names an optional :func:`repro.testing.faults.fault_point`
    fired between close and rename (with ``path=<temp>`` so corrupt-write
    fault actions scribble on the staged file, never the live one).
    """
    path = Path(path)
    descriptor, temp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".tmp"
    )
    try:
        handle = os.fdopen(descriptor, "w", encoding="utf-8")
        try:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            handle.close()
        if fault is not None:
            fault_point(fault, path=temp, **(fault_fields or {}))
        os.replace(temp, path)
        fsync_directory(path.parent)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


# -- the run journal ---------------------------------------------------------

STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_QUARANTINED = "quarantined"

#: Journal schema revision (bumped on incompatible record changes).
JOURNAL_VERSION = 1


def _site_key(site: str) -> str:
    """Filesystem-safe, reversible key (same scheme as the registry)."""
    return quote(site, safe="")


class RunJournal:
    """Write-ahead journal for one corpus run directory.

    Layout::

        <run_dir>/
            journal.jsonl          # append-only state records
            rows/<site>.jsonl      # per-site extraction rows (atomic)

    Record shapes (one JSON object per line)::

        {"event": "run", "journal_version": 1, "config_hash": ..., "resume": ...}
        {"event": "site", "site": S, "state": "running", "fingerprint": F}
        {"event": "site", "site": S, "state": "done"|"failed"|"quarantined",
         "fingerprint": F, "report": {...trimmed SiteReport...}}

    Every append is a single ``write`` + flush + ``fsync``, so a record
    is either fully on disk or (for the one being written at the moment
    of death) a torn trailing line that :meth:`replay` discards.  A torn
    line anywhere *else* means real corruption and raises
    :class:`JournalError`.
    """

    JOURNAL_NAME = "journal.jsonl"
    ROWS_DIR = "rows"

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / self.JOURNAL_NAME
        self.rows_dir = self.run_dir / self.ROWS_DIR
        self._handle: TextIO | None = None

    # -- lifecycle ---------------------------------------------------------

    def open(
        self,
        *,
        config_hash: str,
        resume: bool = False,
        report_fields: Collection[str] = (),
    ) -> dict[str, dict]:
        """Create/replay the journal; returns each site's last record.

        A fresh run refuses an existing journal (pass ``resume=True`` to
        continue one); a resumed run refuses a journal written under a
        different config hash — silently mixing configs would make the
        "resumed ≡ uninterrupted" guarantee a lie.  ``report_fields``
        names the keys a site record's ``report`` may carry.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.rows_dir.mkdir(exist_ok=True)
        states: dict[str, dict] = {}
        if self.path.exists():
            if not resume:
                raise JournalError(
                    f"{self.path} already exists — resume the run "
                    f"(--resume) or point --run-dir at a fresh directory"
                )
            for line, record in self._numbered_records():
                if record.get("event") == "run":
                    found = record.get("config_hash")
                    if found != config_hash:
                        raise JournalError(
                            f"{self.path} was written under a different "
                            f"config (hash {found!r}, current "
                            f"{config_hash!r}) — a resumed run must use "
                            f"the original config and seed KB, or start a "
                            f"fresh run-dir"
                        )
                elif record.get("event") == "site":
                    unknown = sorted(set(record.get("report", {})) - set(report_fields))
                    if unknown:
                        raise JournalError(
                            f"{self.path}:{line}: unknown site report keys {unknown}"
                        )
                    states[record["site"]] = record
        self._handle = open(self.path, "a", encoding="utf-8")
        fsync_directory(self.run_dir)
        self._append(
            {
                "event": "run",
                "journal_version": JOURNAL_VERSION,
                "config_hash": config_hash,
                "resume": resume,
            }
        )
        return states

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appends -----------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._handle is None:
            raise JournalError("journal is not open (call open() first)")
        fault_point("journal.append", site=record.get("site"))
        # One write + fsync per record: the line is fully durable before
        # the caller proceeds, and a crash tears at most the final line.
        self._handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_site(self, site: str, state: str, **fields) -> None:
        """Append one site-state record (write-ahead: callers record
        ``running`` *before* dispatching work)."""
        self._append({"event": "site", "site": site, "state": state, **fields})

    # -- replay ------------------------------------------------------------

    def replay(self) -> list[dict]:
        """All durable records, oldest first; a torn final line (the
        append in flight when the process died) is discarded."""
        return [record for _, record in self._numbered_records()]

    def _numbered_records(self) -> list[tuple[int, dict]]:
        """``(line number, record)`` for :meth:`replay`.  Any line but a
        torn final one that is not a record of the shapes above — a JSON
        object; site events with string ``site`` and ``state`` and, if
        any, a ``report`` object — raises :class:`JournalError` naming
        ``path:line``."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        lines = data.splitlines()
        records: list[tuple[int, dict]] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            where = f"{self.path}:{index + 1}"
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if index == len(lines) - 1:
                    break  # torn tail — the crash-interrupted append
                raise JournalError(f"{where}: corrupt journal record: {exc}") from exc
            if not isinstance(record, dict):
                raise JournalError(f"{where}: journal record is not an object")
            if record.get("event") == "site":
                for key in ("site", "state"):
                    if not isinstance(record.get(key), str):
                        raise JournalError(f"{where}: site record has no string {key!r}")
                if not isinstance(record.get("report", {}), dict):
                    raise JournalError(f"{where}: site report is not an object")
            records.append((index + 1, record))
        return records

    # -- per-site rows -----------------------------------------------------

    def rows_path(self, site: str) -> Path:
        return self.rows_dir / (_site_key(site) + ".jsonl")

    def write_rows(self, site: str, rows: Iterable[dict]) -> Path:
        """Atomically persist a site's extraction rows (temp + fsync +
        rename): readers see the old rows or all the new ones, never a
        torn file."""
        path = self.rows_path(site)
        with atomic_write(
            path, fault="rows.write", fault_fields={"site": site}
        ) as handle:
            for row in rows:
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")
        return path

    def read_rows_text(self, site: str) -> str:
        """A site's persisted rows, verbatim (JSONL text)."""
        return self.rows_path(site).read_text(encoding="utf-8")

    def read_rows(self, site: str) -> list[dict]:
        # Rows end in "\n" only; str.splitlines would also split a value
        # holding U+2028 or U+0085, which json.dumps leaves unescaped.
        return [
            json.loads(line)
            for line in self.read_rows_text(site).split("\n")
            if line.strip()
        ]
