"""Loopback stand-in for the remote embedding and chat endpoints.

POST /embed answers {"texts": [...]} with MockEmbedder vectors and POST /chat
answers {"messages": [...]} with the OverlapMockClient's answer to the user
message, so a remote run computes what the mock run computes. Each request
waits a fixed latency first.

A small share of requests fails on purpose: an HTTP 500, or (for chat) an
answer with no <answer> block. Whether a request fails is a hash of its body
and of how many times that body has been seen, and a request that failed is
never failed again on its next occurrence, so every retry succeeds and the
outputs stay deterministic.

Answers are memoised by request body, so after a warm-up pass a request
costs its caller the latency plus transport, not this process's compute.
GET /stats returns the counters; POST /reset clears them and the
occurrence memory. Run as:

    python3 bench/stub.py [--failure-share 0.02]

It binds 127.0.0.1 on a free port, prints "PORT <n>" on stdout, and exits
when its parent process goes away. StubProcess starts it and talks to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the mock embedder's dimension, in the stub and in every workload config,
# so remote and mock runs compute the same vectors
EMBED_DIM = 256
LATENCY_S = 0.001
FAILURE_SHARE = 0.02
UNPARSEABLE = "<analysis>\nThe evidence is inconclusive.\n</analysis>"


class StubState:
    def __init__(self, failure_share: float):
        from causeway.embed import MockEmbedder
        from causeway.reason import OverlapMockClient

        self.failure_share = failure_share
        self.embedder = MockEmbedder(dim=EMBED_DIM)
        self.client = OverlapMockClient()
        self.lock = threading.Lock()
        self.answers: dict[bytes, bytes] = {}
        self.reset()

    def _answer(self, key: bytes, compute) -> bytes:
        """The encoded answer to a request body, computed once: a real
        endpoint costs the caller its latency, not this process's compute."""
        answer = self.answers.get(key)
        if answer is None:
            answer = self.answers[key] = json.dumps(compute()).encode("utf-8")
        return answer

    def reset(self) -> None:
        with self.lock:
            self.seen: dict[bytes, tuple[int, bool]] = {}
            self.stats: Counter = Counter()
            self.service_s = 0.0

    def draw(self, path: str, body: bytes, fail_below: float) -> float | None:
        """A uniform number in [0, 1) for this occurrence of the body, or
        None when the previous occurrence was failed on purpose. Draws under
        fail_below count as failed."""
        key = hashlib.sha256(path.encode() + b"\0" + body).digest()
        with self.lock:
            n, failed_last = self.seen.get(key, (0, False))
            u = None
            if not failed_last:
                h = hashlib.sha256(key + n.to_bytes(8, "big")).digest()
                u = int.from_bytes(h[:8], "big") / 2.0**64
            self.seen[key] = (n + 1, u is not None and u < fail_below)
        return u

    def handle(self, path: str, body: bytes) -> tuple[int, dict | bytes]:
        payload = json.loads(body)
        kinds = 2 if path == "/chat" else 1  # chat also fails by an unparseable answer
        u = self.draw(path, body, kinds * self.failure_share)
        time.sleep(LATENCY_S)
        if path == "/embed":
            self.count(embed_requests=1, embed_texts=len(payload["texts"]))
            if u is not None and u < self.failure_share:
                self.count(embed_injected_500=1)
                return 500, {"error": "injected"}
            return 200, self._answer(body, lambda: {"vectors": [v.tolist() for v in self.embedder.embed_texts(payload["texts"])]})
        if path == "/chat":
            self.count(chat_requests=1)
            if u is not None and u < self.failure_share:
                self.count(chat_injected_500=1)
                return 500, {"error": "injected"}
            if u is not None and u < 2 * self.failure_share:
                self.count(chat_injected_unparseable=1)
                return 200, {"content": UNPARSEABLE}
            return 200, self._answer(body, lambda: {"content": self.client.complete(payload["messages"][-1]["content"])})
        return 404, {"error": f"unknown path {path}"}

    def count(self, **deltas: int) -> None:
        with self.lock:
            self.stats.update(deltas)

    def snapshot(self) -> dict:
        with self.lock:
            return {**self.stats, "service_s": self.service_s}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; without TCP_NODELAY the second
    # waits on the client's delayed ACK, adding tens of ms to every request
    disable_nagle_algorithm = True

    def _reply(self, status: int, obj: dict | bytes) -> None:
        data = obj if isinstance(obj, bytes) else json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path == "/stats":
            self._reply(200, self.server.state.snapshot())
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):  # noqa: N802 (http.server API)
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        state: StubState = self.server.state
        if self.path == "/reset":
            state.reset()
            self._reply(200, {})
            return
        status, obj = state.handle(self.path, body)
        self._reply(status, obj)
        with state.lock:
            state.service_s += time.perf_counter() - start

    def log_message(self, *args):
        pass


class StubProcess:
    """The stub as a child process of the benchmark."""

    def __init__(self, failure_share: float = FAILURE_SHARE):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--failure-share", str(failure_share)],
            cwd=SRC.parent, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("the stub did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(urllib.request.Request(self.url + path, data=data), timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _exit_with_parent(server: ThreadingHTTPServer, parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    server.shutdown()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--failure-share", type=float, default=FAILURE_SHARE,
                        help="share of requests failed on purpose per failure kind")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.state = StubState(args.failure_share)
    threading.Thread(target=_exit_with_parent, args=(server, os.getppid()), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
