"""Connection reuse, stale-connection recovery, proxying and concurrency of
the shared JSON transport, against the in-process stub, and its reading of
the wire format, against a raw-socket server that replays canned bytes."""
import contextlib
import http.client
import io
import itertools
import json
import re
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from reflectrag import _http
from reflectrag._http import RemoteServiceError, TransportError, post_json

from stub_server import StubServer


def encode(payload) -> bytes:
    return json.dumps(payload).encode()


def encode_all(payloads) -> list[bytes]:
    return [encode(p) for p in payloads]


def echo(path, payload):
    return 200, {"path": path, "payload": payload}


def test_sequential_calls_share_one_connection():
    with StubServer(echo, keep_alive=True) as server:
        for i in range(5):
            body = post_json(f"{server.endpoint}/v1/embed", encode({"i": i}), timeout=5)
            assert body == {"path": "/v1/embed", "payload": {"i": i}}
        assert server.connections == 1


def test_connection_dropped_while_idle_is_replaced_without_an_attempt():
    with StubServer(echo, keep_alive=True) as server:
        url = f"{server.endpoint}/v1/embed"
        assert post_json(url, encode({"i": 0}), timeout=5)["payload"] == {"i": 0}
        server.drop_connections()
        # One attempt and no backoff: only the immediate reconnect can succeed.
        assert post_json(url, encode({"i": 1}), timeout=5, max_retries=1)["payload"] == {"i": 1}
        assert server.connections == 2


def test_http_proxy_receives_absolute_form_target(monkeypatch):
    with StubServer(echo, keep_alive=True) as proxy:
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, proxy.endpoint)
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        url = "http://model-server.invalid:8008/v1/generate?x=1"
        body = post_json(url, encode({"i": 0}), timeout=5, max_retries=1)
    assert body["path"] == url


def test_concurrent_calls_never_share_a_connection():
    workers, calls = 8, 25
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with StubServer(echo, keep_alive=True) as server:
            url = f"{server.endpoint}/v1/embed"

            def run(worker):
                for i in range(calls):
                    payload = {"worker": worker, "i": i}
                    assert post_json(url, encode(payload), timeout=10)["payload"] == payload

            with ThreadPoolExecutor(workers) as pool:
                for future in [pool.submit(run, w) for w in range(workers)]:
                    future.result(timeout=60)
            assert len(server.requests) == workers * calls
            assert server.connections <= workers
    finally:
        sys.setswitchinterval(switch)


class CannedServer:
    """Raw-socket server that answers the n-th request with the n-th canned reply.

    A reply is ``(bytes, close)``: the bytes go out verbatim, and the server
    closes the connection after them when ``close`` is true. One connection
    is served at a time. ``heads`` holds each request's head, up to its
    blank line; ``connections`` counts the connections accepted.
    """

    def __init__(self, *replies: tuple[bytes, bool]):
        self.replies = list(replies)
        self.heads: list[bytes] = []
        self.connections = 0
        self._conn = None
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def endpoint(self) -> str:
        return "http://127.0.0.1:%d" % self._listener.getsockname()[1]

    def _serve(self):
        while True:
            try:
                self._conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with self._conn, self._conn.makefile("rb") as rfile:
                while self.replies:
                    head = b""
                    while (line := rfile.readline()) not in (b"\r\n", b""):
                        head += line
                    if not line:  # the client closed the connection
                        break
                    rfile.read(int(re.search(rb"Content-Length: (\d+)", head)[1]))
                    self.heads.append(head)
                    reply, close = self.replies.pop(0)
                    self._conn.sendall(reply)
                    if close:
                        break

    def __enter__(self) -> "CannedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        for sock in (self._listener, self._conn):  # wakes a blocked accept or read
            with contextlib.suppress(AttributeError, OSError):
                sock.shutdown(socket.SHUT_RDWR)
        self._thread.join(timeout=5)
        self._listener.close()
        assert not self._thread.is_alive()


def ok(version: bytes = b"1.1") -> bytes:
    return b'HTTP/%s 200 OK\r\nContent-Length: 9\r\n\r\n{"ok": 1}' % version


@pytest.mark.parametrize(
    "reply",
    [
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"4;ext=1\r\n{\"ok\r\n5\r\n\": 1}\r\n0\r\nX-Trailer: t\r\n\r\n", False),
        (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{\"ok\": 1}", True),
        (b"HTTP/1.1 100 Continue\r\n\r\n" + ok(), False),
    ],
    ids=["chunked", "http10-close-framed", "interim-100"],
)
def test_body_framing(reply):
    with CannedServer(reply) as server:
        assert post_json(server.endpoint + "/v1/x", b"{}", timeout=5, max_retries=1) == {"ok": 1}


def test_no_content_response_has_no_body():
    with CannedServer((b"HTTP/1.1 204 No Content\r\n\r\n", False), (ok(), False)) as server:
        origin, target = _http._route(server.endpoint + "/v1/x")
        assert origin.post(target, b"{}", 5) == (204, b"")
        assert origin.post(target, b"{}", 5) == (200, b'{"ok": 1}')
        assert server.connections == 1


def test_keep_alive_rules_decide_pooling():
    # The server keeps every connection open: only the client's reading of
    # the headers decides whether it sends its next request on the same one.
    replies = [
        (ok(), False),  # HTTP/1.1 stays open by default
        (ok().replace(b"OK\r\n", b"OK\r\nConnection: close\r\n"), False),
        (ok(version=b"1.0").replace(b"OK\r\n", b"OK\r\nConnection: keep-alive\r\n"), False),
        (ok(version=b"1.0"), False),  # HTTP/1.0 closes by default
        (ok(), False),
    ]
    with CannedServer(*replies) as server:
        for _ in replies:
            reply = post_json(server.endpoint + "/v1/x", b"{}", timeout=5, max_retries=1)
            assert reply == {"ok": 1}
        assert server.connections == 3


def header_line(size: int) -> bytes:
    """A header line of ``size`` bytes, its CRLF included."""
    return b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n")) + b"\r\n"


STATUS = b"HTTP/1.1 200 OK\r\n"
CHUNKED = STATUS + b"Transfer-Encoding: chunked\r\n\r\n"


@pytest.mark.parametrize(
    "reply, error",
    [
        (STATUS + b"Content-Length: 20\r\n\r\n{\"ok\": 1}", http.client.IncompleteRead),
        (CHUNKED + b"9\r\n{\"ok\":", http.client.IncompleteRead),
        (CHUNKED + b"-9\r\n", http.client.HTTPException),
        (b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n", http.client.BadStatusLine),
        (STATUS + header_line(65537) + b"\r\n", http.client.LineTooLong),
        (STATUS + b"X: 1\r\n" * 101 + b"\r\n{}", http.client.HTTPException),
        (STATUS + b"Content-Length: -1\r\n\r\n{}", http.client.HTTPException),
        (STATUS + b"Content-Length: 2.0\r\n\r\n{}", http.client.HTTPException),
        (b"", http.client.RemoteDisconnected),
    ],
    ids=["truncated-body", "truncated-chunk", "negative-chunk-size", "garbled-status-line",
         "65537-byte-header-line", "101-headers", "negative-length", "non-integer-length",
         "no-response"],
)
def test_broken_response_raises_and_is_retried(reply, error):
    with CannedServer((reply, True), (reply, True), (reply, True)) as server:
        origin, target = _http._route(server.endpoint + "/v1/x")
        with pytest.raises(error):
            origin.post(target, b"{}", 5)
        with pytest.raises(TransportError) as exc_info:
            post_json(server.endpoint + "/v1/x", b"{}", timeout=5, max_retries=2, backoff=0)
        assert exc_info.value.attempts == 2
        assert len(server.heads) == server.connections == 3


def test_header_limits_are_inclusive():
    reply = STATUS + header_line(65536) + b"X: 1\r\n" * 98 + b"Content-Length: 2\r\n\r\n{}"
    with CannedServer((reply, False)) as server:
        assert post_json(server.endpoint + "/v1/x", b"{}", timeout=5, max_retries=1) == {}


def test_redirect_is_neither_followed_nor_retried():
    reply = b"HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\nContent-Length: 2\r\n\r\n{}"
    with CannedServer((reply, False), (ok(), False)) as server:
        with pytest.raises(RemoteServiceError, match="302"):
            post_json(server.endpoint + "/v1/x", b"{}", timeout=5, max_retries=3)
        assert len(server.heads) == 1


def test_host_names_the_origin(monkeypatch):
    with CannedServer((ok(), False)) as server:
        post_json(server.endpoint + "/v1/x?q=1", encode({"i": 0}), timeout=5, max_retries=1)
        host = server.endpoint.removeprefix("http://").encode()
        assert server.heads[0].split(b"\r\n")[:2] == [b"POST /v1/x?q=1 HTTP/1.1", b"Host: " + host]
    with CannedServer((ok(), False)) as proxy:
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, proxy.endpoint)
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        url = "http://host-check.invalid:8009/v1/generate"
        post_json(url, encode({"i": 0}), timeout=5, max_retries=1)
        assert proxy.heads[0].split(b"\r\n")[:2] == [
            b"POST " + url.encode() + b" HTTP/1.1", b"Host: host-check.invalid:8009"
        ]


def test_url_with_whitespace_is_refused():
    with pytest.raises(ValueError, match="unsupported URL"):
        post_json("http://127.0.0.1:9/v1/x HTTP/1.1\r\nX-Injected: 1", b"{}", timeout=5)


def numbered(i: int, head: bytes = b"") -> bytes:
    """A 200 reply whose JSON body is ``{"i": i}``, with ``head`` among its headers."""
    body = b'{"i": %d}' % i
    return b"HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s" % (head, len(body), body)


def test_pipeline_windows_share_one_connection():
    count = 2 * _http.MAX_PIPELINE + 3
    with StubServer(echo, keep_alive=True) as server:
        origin, target = _http._route(server.endpoint + "/v1/embed")
        replies = origin.post_all(target, [b'{"i": %d}' % i for i in range(count)], 5)
        assert [json.loads(data)["payload"] for _, data in replies] == [{"i": i} for i in range(count)]
        assert [p for _, p in server.requests] == [{"i": i} for i in range(count)]
        assert server.connections == 1


def lane_runs(count: int) -> list[list[int]]:
    """The entries of each lane of a ``count``-entry pipeline."""
    lanes = min(_http.LANES, count)
    cuts = [count * k // lanes for k in range(lanes + 1)]
    return [list(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]


def arrivals(server: StubServer) -> list[list[int]]:
    """Each connection's entries in the order they arrived, connections sorted."""
    return sorted([p["i"] for p in payloads] for payloads in server.by_connection)


def test_lanes_carry_contiguous_runs_and_join_the_replies_in_order():
    count = _http.LANES * _http.MAX_PIPELINE + 3
    with StubServer(echo, keep_alive=True) as server:
        client = _http.ServiceClient(server.endpoint, timeout=5, max_retries=1)
        results = client.post_all("/v1/embed", encode_all([{"i": i} for i in range(count)]))
        assert [r["payload"] for r in results] == [{"i": i} for i in range(count)]
        assert arrivals(server) == lane_runs(count)
        assert [len(run) for run in lane_runs(count)] == [32, 33, 33, 33]


def test_lanes_are_served_at_once():
    barrier = threading.Barrier(_http.LANES, timeout=2)
    arrived = itertools.count()

    def handler(path, payload):
        if next(arrived) < _http.LANES:
            barrier.wait()  # passes only once every lane's first request is in
        return 200, payload

    payloads = [{"i": i} for i in range(2 * _http.LANES)]
    with StubServer(handler, keep_alive=True) as server:
        client = _http.ServiceClient(server.endpoint, timeout=5, max_retries=1)
        assert client.post_all("/v1/x", encode_all(payloads)) == payloads
        assert len(server.requests) == len(payloads)


def test_lanes_to_a_stalled_server_cost_one_timeout():
    # Nothing accepts: the kernel completes the handshakes and takes the
    # requests, and no reply ever comes.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        endpoint = "http://127.0.0.1:%d" % listener.getsockname()[1]
        client = _http.ServiceClient(endpoint, timeout=0.2, max_retries=1)
        began = time.monotonic()
        results = client.post_all("/v1/x", encode_all([{"i": i} for i in range(8)]))
        elapsed = time.monotonic() - began
        listener.setblocking(False)
        received = b""
        with contextlib.suppress(BlockingIOError):
            while True:
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(1)
                    while chunk := conn.recv(65536):
                        received += chunk
    # One timeout for the lanes, one for entry 0 sent again: as on one connection.
    assert elapsed < 0.6
    assert received.count(b"POST ") == 8 + 1
    assert isinstance(results[0], TransportError) and "timed out" in results[0].last_error
    assert all(r is results[0] for r in results)


def test_an_interrupt_while_reading_closes_every_started_lane(monkeypatch):
    class Interrupt(BaseException):
        pass

    read, reads, opened = _http._read_response, itertools.count(), []

    def interrupted(rfile):
        if next(reads) == 2:  # the first reply of the second lane
            raise Interrupt
        return read(rfile)

    monkeypatch.setattr(_http, "_read_response", interrupted)
    with StubServer(echo, keep_alive=True) as server:
        origin, target = _http._route(server.endpoint + "/v1/x")
        connect = origin._connect
        monkeypatch.setattr(origin, "_connect", lambda t: opened.append(connect(t)) or opened[-1])
        with pytest.raises(Interrupt):
            origin.post_lanes(target, [b"{}"] * 8, 5)
        assert len(opened) == _http.LANES
        # The first lane was read and went back to the pool; the rest are closed.
        assert origin._idle == opened[:1]
        assert [sock.fileno() == -1 for sock, _ in opened] == [False, True, True, True]


def test_idle_pool_keeps_a_connection_for_every_lane_of_every_caller():
    threads, rounds, entries = 8, 5, 16

    def handler(path, payload):
        time.sleep(0.002)
        return 200, payload

    with StubServer(handler, keep_alive=True) as server:
        client = _http.ServiceClient(server.endpoint, timeout=10, max_retries=1)
        barrier = threading.Barrier(threads, timeout=10)

        def run(worker):
            for r in range(rounds):
                barrier.wait()
                payloads = [{"worker": worker, "round": r, "i": i} for i in range(entries)]
                assert client.post_all("/v1/x", encode_all(payloads)) == payloads

        with ThreadPoolExecutor(threads) as pool:
            for future in [pool.submit(run, w) for w in range(threads)]:
                future.result(timeout=60)
        assert len(server.requests) == threads * rounds * entries
        assert server.connections <= threads * _http.LANES


def test_pipeline_reads_each_window_before_writing_the_next():
    writes = []

    class Socket:
        def sendall(self, data):
            writes.append(data.count(b"POST "))

    count = 2 * _http.MAX_PIPELINE + 3
    requests = [b"POST /v1/x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"] * count
    replies = []
    assert _http._pipeline(Socket(), io.BytesIO(numbered(0) * count), requests, replies)
    assert writes == [_http.MAX_PIPELINE, _http.MAX_PIPELINE, 3]
    assert replies == [(200, b'{"i": 0}')] * count


def test_pipeline_closed_after_reply_k_resends_the_rest():
    def handler(path, payload):
        if payload["i"] == 0:
            return 200, payload, {"Connection": "close"}
        return 200, payload

    payloads = [{"i": i} for i in range(2 * _http.LANES)]
    with StubServer(handler, keep_alive=True) as server:
        client = _http.ServiceClient(server.endpoint, timeout=5, max_retries=1)
        assert client.post_all("/v1/x", encode_all(payloads)) == payloads
        # Entry 1 was written behind entry 0, on the connection that reply
        # closed; it went again on its own, on a pooled connection, once
        # every lane was read.
        assert lane_runs(len(payloads))[0] == [0, 1]
        assert [0] in arrivals(server)
        assert sorted(p["i"] for _, p in server.requests) == list(range(len(payloads)))
        assert server.requests[-1][1] == {"i": 1}
        assert server.connections == _http.LANES


def test_pipeline_retries_only_the_5xx_entry_and_keeps_a_4xx_entry_as_its_error():
    failed = set()

    def handler(path, payload):
        if payload["i"] == 1 and 1 not in failed:
            failed.add(1)
            return 503, {"error": "busy"}
        if payload["i"] == 2:
            return 404, {"error": "no such route"}
        return 200, payload

    with StubServer(handler, keep_alive=True) as server:
        client = _http.ServiceClient(server.endpoint, timeout=5, max_retries=2, backoff=0)
        results = client.post_all("/v1/x", encode_all([{"i": i} for i in range(4)]))
        arrived = [p["i"] for _, p in server.requests]
        # The lanes arrive in any order; the resend comes after all of them.
        assert sorted(arrived[:4]) == [0, 1, 2, 3] and arrived[4:] == [1]
    assert results[0] == {"i": 0} and results[1] == {"i": 1} and results[3] == {"i": 3}
    assert isinstance(results[2], RemoteServiceError) and results[2].status == 404


def test_pipeline_resends_an_entry_with_the_bytes_it_was_first_sent_with():
    failed = set()

    def handler(path, payload):
        if payload["i"] not in failed:
            failed.add(payload["i"])
            return 503, {"error": "busy"}
        return 200, payload

    # Not as json.dumps writes them: a body that were encoded again would differ.
    bodies = [b'{"i":%d,  "s":"\\u00e9"}' % i for i in range(3)]
    with StubServer(handler, keep_alive=True) as server:
        client = _http.ServiceClient(server.endpoint, timeout=5, max_retries=2, backoff=0)
        assert client.post_all("/v1/x", bodies) == [{"i": i, "s": "\u00e9"} for i in range(3)]
    assert sorted(server.bodies[:3]) == bodies and server.bodies[3:] == bodies


def test_pipeline_stops_resending_at_the_first_transport_error():
    with StubServer(lambda path, payload: (503, {}), keep_alive=True) as server:
        client = _http.ServiceClient(server.endpoint, timeout=5, max_retries=3, backoff=0)
        results = client.post_all("/v1/x", encode_all([{"i": i} for i in range(5)]))
        # Five pipelined over the lanes, in any order, then entry 0 alone
        # with its retry budget of three.
        arrived = [p["i"] for _, p in server.requests]
        assert sorted(arrived[:5]) == [0, 1, 2, 3, 4] and arrived[5:] == [0, 0, 0]
    assert isinstance(results[0], TransportError) and results[0].attempts == 3
    assert all(r is results[0] for r in results)


def test_pipeline_to_a_dead_server_costs_one_resend():
    client = _http.ServiceClient("http://127.0.0.1:1", timeout=0.2, max_retries=2, backoff=0)
    results = client.post_all("/v1/x", encode_all([{"i": i} for i in range(4)]))
    assert isinstance(results[0], TransportError) and results[0].attempts == 2
    assert all(r is results[0] for r in results)


def test_pipeline_on_a_connection_dropped_while_idle_is_replaced_without_an_attempt():
    with StubServer(echo, keep_alive=True) as server:
        origin, target = _http._route(server.endpoint + "/v1/embed")
        bodies = [b'{"i": %d}' % i for i in range(3)]
        assert [status for status, _ in origin.post_all(target, bodies, 5)] == [200] * 3
        server.drop_connections()
        # No exception entry: the stale connection was replaced inside the exchange.
        replies = origin.post_all(target, bodies, 5)
        assert [status for status, _ in replies] == [200] * 3
        assert server.connections == 2
        assert len(server.requests) == 6


def test_pipeline_whose_first_write_fails_on_a_pooled_connection_is_replaced_without_an_attempt():
    with StubServer(echo, keep_alive=True) as server:
        origin, target = _http._route(server.endpoint + "/v1/embed")
        assert origin.post(target, b'{"i": 0}', 5)[0] == 200
        origin._idle[-1][0].shutdown(socket.SHUT_WR)  # the next write on it fails
        assert origin.post(target, b'{"i": 1}', 5)[0] == 200
        assert server.connections == 2


def test_pipeline_reply_that_breaks_ends_the_exchange():
    replies = [(numbered(0), False), (b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n", True)]
    with CannedServer(*replies) as server:
        origin, target = _http._route(server.endpoint + "/v1/x")
        first, second, third = origin.post_all(target, [b"{}"] * 3, 5)
        assert first == (200, b'{"i": 0}')
        assert isinstance(second, http.client.BadStatusLine) and third is second
