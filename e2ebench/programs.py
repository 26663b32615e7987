"""Launching the program the way a user does: ``python -m repro ...``.

The program gets the environment a user has, minus the knobs that would
hide its behaviour: no BLAS/OpenMP thread-count override and no pinned
hash seed, whatever the caller's shell exports.  Every launch is waited
for with ``os.wait4``, whose resource usage covers the process and the
workers it reaped, so peak memory includes ``run-corpus``'s pool.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

#: environment variables stripped from every program launch.
SCRUBBED_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "PYTHONHASHSEED",
)
#: seconds any single launch may take before the benchmark kills it.
LAUNCH_TIMEOUT = 150.0


def program_env(source_root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(source_root)
    return env


@dataclass
class Exit:
    code: int
    seconds: float
    peak_rss_mib: float


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); returns its exit
    code and the peak RSS in MiB of it and its reaped descendants."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Cli:
    """Runs CLI commands from one source tree, logging stderr to files."""

    def __init__(self, source_root: Path, log_dir: Path, timings) -> None:
        self.env = program_env(source_root)
        self.log_dir = log_dir
        self.timings = timings
        self._launches = 0

    def command(self, args) -> list[str]:
        return [sys.executable, "-m", "repro", *map(str, args)]

    def run(self, args, timer: str, cwd: Path) -> Exit:
        """Run one command to completion, timing launch to exit."""
        self._launches += 1
        log = self.log_dir / f"launch{self._launches:03d}.log"
        with open(log, "wb") as sink, self.timings.timer(timer) as timing:
            proc = subprocess.Popen(
                self.command(args), cwd=cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=sink,
            )
            code, rss = _reap(proc, LAUNCH_TIMEOUT)
        if code != 0:
            raise RuntimeError(
                f"`repro {' '.join(map(str, args))}` exited {code}:\n"
                + log.read_text(errors="replace")[-3000:]
            )
        return Exit(code, timing.elapsed, rss)


class Server:
    """One ``serve-http`` process; ``start`` returns once it accepts."""

    def __init__(self, cli: Cli, args, cwd: Path) -> None:
        self.cli = cli
        self.args = ["serve-http", "--port", "0", "--threads", "2", *args]
        self.cwd = cwd
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.log: list[str] = []
        self._drainer: threading.Thread | None = None

    def start(self) -> float:
        """Launch and wait for the ready line; returns launch-to-ready s."""
        with self.cli.timings.timer("bench.server_start") as timing:
            self.proc = subprocess.Popen(
                self.cli.command(self.args), cwd=self.cwd, env=self.cli.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            watchdog = threading.Timer(LAUNCH_TIMEOUT, self.proc.kill)
            watchdog.start()
            try:
                for line in self.proc.stderr:
                    self.log.append(line)
                    if "serving on http://" in line:
                        address = line.split("http://", 1)[1].split()[0]
                        self.port = int(address.rsplit(":", 1)[1])
                        break
            finally:
                watchdog.cancel()
        if self.port is None:
            self.proc.wait()
            raise RuntimeError("serve-http never became ready:\n" + "".join(self.log))
        self._drainer = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drainer.start()
        return timing.elapsed

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> Exit:
        """SIGTERM (graceful drain) and reap; returns exit and peak RSS."""
        if self.proc is None or self.proc.returncode is not None:
            return Exit(self.proc.returncode if self.proc else 0, 0.0, 0.0)
        self.proc.send_signal(signal.SIGTERM)
        code, rss = _reap(self.proc, 60.0)
        if self._drainer is not None:
            self._drainer.join(timeout=10)
        self.proc.stderr.close()
        return Exit(code, 0.0, rss)

    def kill(self) -> None:
        """Last-resort cleanup on an aborted run."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            _reap(self.proc, 30.0)
