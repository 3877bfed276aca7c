#!/usr/bin/env python3
"""Reference model server for the remote wire protocol.

Serves POST /v1/generate backed by the deterministic rule backend over a
dataset file, so `reflectrag --backend remote` can be exercised end to end
without any model weights:

    python scripts/run_stub_server.py --dataset data/synth/dataset.jsonl --port 8008
    REFLECTIVA_ENDPOINT=http://127.0.0.1:8008 reflectrag eval \
        --kb data/synth/kb.jsonl --index data/synth/index.jsonl \
        --dataset data/synth/dataset.jsonl --backend remote --out out/remote

The first line of output names the endpoint it bound; with ``--port 0``
that is a free port the system chose. It speaks HTTP/1.1 with keep-alive
and answers the requests of one connection in order, so clients may
pipeline them. A request body that is not JSON or has the wrong shape gets
HTTP 400, and a well-formed step that the backend cannot produce gets HTTP
422; both carry a JSON ``{"error": ...}`` body.
"""
from __future__ import annotations

import argparse
import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from reflectrag.backend import BackendError, serve_generate
from reflectrag.samples import load_samples
from reflectrag.synth import RuleBackend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8008)
    args = parser.parse_args()

    backend = RuleBackend.from_samples(load_samples(args.dataset))

    class Handler(BaseHTTPRequestHandler):
        # Keep-alive, so a client reuses its connection and may pipeline;
        # requests on one connection are answered in the order they arrived.
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            # Headers and body go out in separate writes; without this a
            # keep-alive client waits out a delayed ACK on every response.
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def do_POST(self):  # noqa: N802 (http.server API)
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path != "/v1/generate":
                self.send_error(404)
                return
            try:
                status, reply = 200, serve_generate(backend, json.loads(raw))
            except ValueError as exc:  # not JSON, malformed, or a prompt without a question
                status, reply = 400, {"error": str(exc)}
            except BackendError as exc:  # a well-formed step the backend cannot produce
                status, reply = 422, {"error": str(exc)}
            body = json.dumps(reply).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except ConnectionError:  # the client hung up before the reply
                self.close_connection = True

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer((args.host, args.port), Handler)
    host, port = server.server_address[:2]
    print(f"serving /v1/generate on http://{host}:{port} (Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
