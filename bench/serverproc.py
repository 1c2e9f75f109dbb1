"""Lifecycle of the ``python -m repro serve`` child the ``serve_*`` workloads
drive, and the minimal HTTP/1.1 client they drive it with.

The child binds port 0 and prints its URL; :class:`ServeChild` parses it
from the child's stdout, polls ``/healthz``, and on :meth:`ServeChild.stop`
sends SIGTERM and requires a clean drain (exit code 0), hard-killing after
a timeout.  A failed start raises — it is never a silent skip.
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

_URL_RE = re.compile(rb"serving http://([0-9.]+):(\d+)/query")


class ServerError(RuntimeError):
    """The child failed to start, answer, or drain."""


def http_request(
    address: Tuple[str, int], method: str, path: str, body: bytes = b"",
    timeout: float = 30.0,
) -> Tuple[int, bytes, float]:
    """One request on a fresh connection (the server answers
    ``Connection: close``).  Returns ``(status, body, connect_seconds)``."""
    start = time.perf_counter()
    sock = socket.create_connection(address, timeout=timeout)
    connect = time.perf_counter() - start
    try:
        head = (
            "%s %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: application/json\r\n"
            "Content-Length: %d\r\nConnection: close\r\n\r\n"
            % (method, path, address[0], address[1], len(body))
        ).encode("latin-1")
        sock.sendall(head + body)
        chunks: List[bytes] = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(header.split(b" ", 2)[1])
    except (IndexError, ValueError):
        raise ServerError("malformed HTTP response: %r" % raw[:80]) from None
    return status, payload, connect


class ServeChild:
    """One ``repro serve`` process over a triples file."""

    def __init__(self, repo_root: str, triples_path: str, log_path: str):
        self.repo_root = repo_root
        self.triples_path = triples_path
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.peak_rss_mb = 0.0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the child and return once ``/healthz`` answers 200."""
        env = dict(os.environ)
        src = os.path.join(self.repo_root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # No bytecode files: every start pays the same import cost, and
        # nothing is written under src/.
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PYTHONUNBUFFERED"] = "1"
        for name in ("REPRO_BACKEND", "REPRO_KERNELS", "REPRO_SHARDS"):
            env.pop(name, None)
        log = open(self.log_path, "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", self.triples_path,
                 "--backend", "memory", "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
                env=env, cwd=self.repo_root,
            )
        finally:
            log.close()
        deadline = time.monotonic() + timeout
        try:
            self.address = self._read_address(deadline)
            while True:
                try:
                    status, _, _ = http_request(self.address, "GET", "/healthz", timeout=2.0)
                    if status == 200:
                        return
                except OSError:
                    pass
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise ServerError("server never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise

    def _read_address(self, deadline: float) -> Tuple[str, int]:
        fd = self.proc.stdout.fileno()
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.05)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                seen += chunk
                match = _URL_RE.search(seen)
                if match:
                    return match.group(1).decode("ascii"), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise ServerError(
            "server printed no URL (exit code %r); stderr tail: %s"
            % (self.proc.poll(), self._log_tail())
        )

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-800:].decode("utf-8", "replace")
        except OSError:
            return ""

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes, float]:
        return http_request(self.address, method, path, body)

    def sample_rss(self) -> float:
        """The child's resident-set high-water mark so far, in MB."""
        if self.proc is None:
            return self.peak_rss_mb
        try:
            with open("/proc/%d/status" % self.proc.pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return self.peak_rss_mb

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM, wait for the graceful drain, require exit code 0."""
        proc = self.proc
        if proc is None:
            return
        self.sample_rss()
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
                raise ServerError("server did not drain within %gs" % timeout)
        code = proc.returncode
        self._close()
        if code != 0:
            raise ServerError(
                "server exited with code %r; stderr tail: %s" % (code, self._log_tail())
            )

    def kill(self) -> None:
        """Hard stop (failed start, drain timeout, interrupted run)."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` → value for every sample line of an exposition."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out
