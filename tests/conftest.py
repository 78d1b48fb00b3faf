from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        status, payload, *extra = self.server.responder(self.path, body, dict(self.headers))
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class FakeServer:
    """Tiny local HTTP endpoint whose behaviour tests swap per case. A
    responder takes (path, body, headers) and returns (status, body) or
    (status, body, extra response headers)."""

    def __init__(self):
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.responder = lambda path, body, headers: (200, {})
        # a short poll interval keeps shutdown() from waiting out the 0.5 s default
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True)
        self._thread.start()
        self.requests: list[dict] = []

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def set_responder(self, fn) -> None:
        def wrapped(path, body, headers):
            self.requests.append({"path": path, "body": body, "headers": headers})
            return fn(path, body, headers)

        self._server.responder = wrapped

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def fake_server():
    server = FakeServer()
    yield server
    server.close()
