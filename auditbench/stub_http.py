#!/usr/bin/env python3
"""Single-threaded loopback HTTP stub model for the http adapter.

Usage: ``python3 auditbench/stub_http.py``; it prints its port on the first
stdout line and serves until terminated.

``POST /predict`` takes ``{"texts": [...]}`` and answers
``{"probabilities": [...]}`` scored with ``keyword_probability`` from
``tests/stub_model.py``. ``GET /stats`` answers the cumulative
``{"calls", "texts", "busy_s"}`` over all predict requests, where ``busy_s``
covers decoding the body, scoring and encoding the answer. The server
speaks HTTP/1.1, so a client that keeps its connection open can reuse it.
"""

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stub_model import keyword_probability  # noqa: E402


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 60

    def _answer(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        if self.path != "/predict":
            self._answer(404, {"error": "unknown path"})
            return
        start = time.perf_counter()
        texts = json.loads(raw)["texts"]
        body = json.dumps({"probabilities": [keyword_probability(t) for t in texts]})
        body = body.encode("utf-8")
        stats = self.server.stats
        stats["busy_s"] += time.perf_counter() - start
        stats["calls"] += 1
        stats["texts"] += len(texts)
        self._send(200, body)

    def do_GET(self):
        if self.path != "/stats":
            self._answer(404, {"error": "unknown path"})
            return
        self._answer(200, self.server.stats)

    def log_message(self, format, *args):
        pass


def make_server(port: int = 0) -> HTTPServer:
    server = HTTPServer(("127.0.0.1", port), StubHandler)
    server.stats = {"calls": 0, "texts": 0, "busy_s": 0.0}
    return server


def main() -> int:
    server = make_server()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
