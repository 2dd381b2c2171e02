"""The ``python -m repro serve --listen`` child process of ``wire_zipf``.

Every wait is bounded and every exit path reaps the child: readiness is
the ``serving on HOST:PORT`` line followed by an answered ``ping``;
``stop`` asks for a graceful drain (SIGINT, what Ctrl-C sends) and
kills the process if it does not leave in time.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

from repro.net import QueryClient
from repro.utils.errors import ReproError

_SERVING = re.compile(r"serving on (\S+):(\d+)")


class ServerProcess:
    """One warm-started serving child bound to an ephemeral local port."""

    def __init__(self, peg_path: str, snapshot_dir: str, source_dir: str,
                 cache_size: int) -> None:
        self.command = [
            sys.executable, "-m", "repro", "serve", peg_path,
            "--snapshot", snapshot_dir, "--listen", "127.0.0.1:0",
            "--workers", "1", "--cache-size", str(cache_size),
        ]
        self.env = dict(os.environ, PYTHONPATH=source_dir, PYTHONUNBUFFERED="1")
        self.process: subprocess.Popen | None = None
        self.address: tuple | None = None
        self._lines: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None
        self.output: list = []

    def start(self, timeout: float = 60.0) -> tuple:
        """Spawn the child and wait until it answers a ping."""
        deadline = time.monotonic() + timeout
        self.process = subprocess.Popen(
            self.command, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(
            target=self._pump, name="e2e-server-output", daemon=True
        )
        self._reader.start()
        try:
            self.address = self._await_listen_line(deadline)
            self._await_ping(deadline)
        except BaseException:
            self.stop()
            raise
        return self.address

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_listen_line(self, deadline: float) -> tuple:
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(
                    "server child never reported its address; output:\n"
                    + "".join(self.output[-20:])
                )
            self.output.append(line)
            found = _SERVING.search(line)
            if found:
                return found.group(1), int(found.group(2))

    def _await_ping(self, deadline: float) -> None:
        host, port = self.address
        while True:
            try:
                with QueryClient(host, port, connect_timeout=1.0,
                                 request_timeout=5.0, max_retries=0) as client:
                    if client.ping():
                        return
            except (ReproError, OSError):
                pass
            if time.monotonic() >= deadline:
                raise RuntimeError("server child never answered a ping")
            time.sleep(0.02)

    def cpu_seconds(self) -> float:
        """Seconds the running child, all its threads, has spent on a CPU.

        Read off the child's process CPU-time clock, whose id is what
        ``clock_getcpuclockid(3)`` computes from the pid.
        """
        return time.clock_gettime((~self.process.pid << 3) | 2)

    def stop(self, timeout: float = 15.0) -> None:
        """Drain and reap the child; kill it if it will not go. Idempotent."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        process.stdout.close()
