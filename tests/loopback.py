"""A loopback JSON server standing in for the HTTP providers in tests."""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator


class JsonHandler(BaseHTTPRequestHandler):
    """Records each POST in `server.calls` and answers with what
    `server.responder(path, payload)` returns: a status and a body, JSON
    unless it is bytes."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.calls.append({
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "agent": self.headers.get("User-Agent"),
            "payload": payload,
            "client_port": self.client_address[1],
        })
        status, body = self.server.responder(self.path, payload)
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", "/moved")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):  # keep test output quiet
        pass


@contextmanager
def serving(responder=lambda path, payload: (200, {})) -> Iterator[tuple[object, str]]:
    """A `JsonHandler` server on an ephemeral 127.0.0.1 port and its base
    URL, shut down on exit."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), JsonHandler)
    server.calls = []
    server.responder = responder
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class InFlight:
    """A responder that holds each POST to `path` for `hold_s` seconds
    before `responder` answers it, and keeps in `peak` the most such POSTs
    it held at once. Other paths go straight to `responder`."""

    def __init__(self, responder, path: str, hold_s: float) -> None:
        self.responder = responder
        self.path = path
        self.hold_s = hold_s
        self.peak = 0
        self._held = 0
        self._lock = threading.Lock()

    def __call__(self, path, payload):
        if path != self.path:
            return self.responder(path, payload)
        with self._lock:
            self._held += 1
            self.peak = max(self.peak, self._held)
        try:
            time.sleep(self.hold_s)
            return self.responder(path, payload)
        finally:
            with self._lock:
                self._held -= 1
