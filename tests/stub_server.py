"""In-process HTTP stub implementing the remote wire protocols for tests."""
from __future__ import annotations

import contextlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

Handler = Callable[[str, dict], "tuple[int, dict | bytes] | tuple[int, dict | bytes, dict]"]


class StubServer:
    """Serves POST requests through a user handler: (path, payload) ->
    (status, body), or (status, body, headers).

    ``body`` is sent as JSON, or verbatim when it is ``bytes``. The
    ``headers`` dict goes out with it; ``Connection: close`` closes the
    connection after the reply. With ``keep_alive`` the stub speaks HTTP/1.1
    and keeps connections open between requests; otherwise each response
    closes its connection. ``connections`` counts the connections accepted.
    ``requests`` holds every (path, payload) in the order the stub read
    them, ``bodies`` the raw bytes of each of those request bodies, and
    ``by_connection`` each connection's payloads in that order,
    one list per connection. A handler that raises gets HTTP 500, and its
    exception goes to ``errors`` and fails the ``with`` block on exit, which
    waits for every handler to return, so an exception raised after the
    client gave up still counts. Use as a context manager; ``endpoint`` is
    the base URL.
    """

    def __init__(self, handler: Handler, keep_alive: bool = False):
        self.handler = handler
        self.requests: list[tuple[str, dict]] = []
        self.bodies: list[bytes] = []
        self.connections = 0
        self.by_connection: list[list[dict]] = []
        self.errors: list[Exception] = []
        self._open: set[socket.socket] = set()
        self._closing = False
        self._lock = threading.Lock()
        outer = self

        class _RequestHandler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self):
                super().setup()
                # Headers and body go out in separate writes; without this a
                # keep-alive client waits out a delayed ACK on every response.
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with outer._lock:
                    outer.connections += 1
                    self.arrivals: list[dict] = []
                    outer.by_connection.append(self.arrivals)
                    outer._open.add(self.connection)
                    if outer._closing:  # accepted before shutdown, set up after
                        with contextlib.suppress(OSError):
                            self.connection.shutdown(socket.SHUT_RDWR)

            def finish(self):
                with outer._lock:
                    outer._open.discard(self.connection)
                super().finish()

            def do_POST(self):  # noqa: N802 (http.server API)
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    raw = self.rfile.read(length)
                    payload = json.loads(raw or b"{}")
                    with outer._lock:  # so requests[i] and bodies[i] agree
                        outer.requests.append((self.path, payload))
                        outer.bodies.append(raw)
                    self.arrivals.append(payload)
                    status, body, *headers = outer.handler(self.path, payload)
                except Exception as exc:  # noqa: BLE001 - __exit__ fails the test
                    outer.errors.append(exc)
                    status, body, headers = 500, {"error": repr(exc)}, []
                data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    for name, value in (headers[0] if headers else {}).items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)
                except ConnectionError:  # the client hung up, e.g. on a timeout
                    self.close_connection = True

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _RequestHandler)
        # server_close() joins the handler threads (block_on_close).
        self._server.daemon_threads = False
        # shutdown() waits for serve_forever to poll; the default 0.5 s poll
        # would cost every test that starts a server half a second.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def drop_connections(self) -> None:
        """Close every open connection without notice, as an idle timeout does."""
        with self._lock:
            open_sockets = list(self._open)
        for sock in open_sockets:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        with self._lock:
            self._closing = True
        self.drop_connections()  # idle keep-alive handlers return on EOF
        self._server.server_close()
        if self.errors and exc[0] is None:
            raise AssertionError(f"stub handler raised: {self.errors!r}")
