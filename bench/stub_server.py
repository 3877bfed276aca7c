"""Model-server stub for the remote workload, run in its own process.

Serves ``POST /v1/generate`` from ``RuleBackend`` over HTTP/1.1 with
keep-alive, after a fixed injected delay per request that stands in for
model compute. It counts requests served and the TCP connections that
carried them; ``GET /stats`` returns both. A pooled client shows here as
fewer connections per request.

Usage: ``python3 bench/stub_server.py SRC ANSWERS.json DELAY_MS``. The bound
port is printed as ``PORT <n>`` on the first line of standard output.
"""
from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def main(src: str, answers_path: str, delay_ms: float) -> None:
    sys.path.insert(0, src)
    from reflectrag.prompts import PromptSegment, SegmentKind
    from reflectrag.synth import RuleBackend

    with open(answers_path, encoding="utf-8") as fh:
        tables = json.load(fh)
    backend = RuleBackend(
        {q: tuple(a) for q, a in tables["answers_by_question"].items()},
        tables["direct_answers"],
    )
    delay = delay_ms / 1e3
    lock = threading.Lock()
    counts = {"requests": 0, "connections": 0}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            # Headers and body go out in separate writes; without this a
            # keep-alive client waits out a delayed ACK on every response.
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.served = 0

        def _send(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 (http.server API)
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            with lock:
                body = json.dumps(counts).encode("utf-8")
            self._send(200, body)

        def do_POST(self):  # noqa: N802 (http.server API)
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path != "/v1/generate":
                self._send(404, b"{}")
                return
            payload = json.loads(raw)
            prompt = [PromptSegment(SegmentKind(s["kind"]), s["payload"])
                      for s in payload["segments"]]
            allowed = payload.get("allowed_tokens")
            result = backend.constrained_generate(
                prompt,
                allowed=None if allowed is None else frozenset(allowed),
                max_tokens=payload.get("max_tokens"),
            )
            body = json.dumps({
                "tokens": list(result.tokens),
                "chosen_logprobs": list(result.chosen_logprobs),
                "candidates": [dict(c) for c in result.candidate_logprobs],
            }).encode("utf-8")
            time.sleep(delay)
            with lock:
                counts["requests"] += 1
                counts["connections"] += int(self.served == 0)
            self.served += 1
            self._send(200, body)

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
