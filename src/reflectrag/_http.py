"""JSON-over-HTTP transport shared by the remote clients.

A :class:`ServiceClient` holds one service's endpoint, timeout and retry
policy; the remote backend, reranker and embedder send through one. Each of
them encodes its own request bodies, and the transport carries those bytes
as they are, resends included; it decodes the JSON of each reply.

Calls reuse keep-alive connections from one process-wide pool per
(scheme, host, port). The pool keeps every connection given back to it, and
a connection is opened only when none is idle, so a run holds as many TCP
connections as it once had in use at the same time (``--jobs`` times
:data:`LANES` for ``eval``), not one per request, until
:func:`close_idle_connections` closes them (the CLI does when a command
returns). Proxy settings
(``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY``) and the CA bundle
(``REQUESTS_CA_BUNDLE``, ``CURL_CA_BUNDLE``) are read from the environment
once per (scheme, host, port).

``http.client`` only opens connections (TLS, ``CONNECT`` tunnelling,
``TCP_NODELAY``). A request is a head built once per origin, its
``Content-Length`` and the body, and it goes out in one write together with
the requests pipelined after it. The response reader accepts HTTP/1.0
and HTTP/1.1, skips interim 1xx responses, and reads a body framed by
``Content-Length``, ``chunked`` encoding, or the server closing the
connection. A connection goes back to the pool unless the response closes
it: ``Connection: close`` in HTTP/1.1, no ``Connection: keep-alive`` in
HTTP/1.0, or a close-framed body. A status, header or chunk-size line over
65,536 bytes, more than 100 headers, a garbled status line, a negative or
non-integer ``Content-Length`` and a short body raise the
``http.client`` exception for it, and count as a failed attempt.

Retries transport-level failures (connection errors, timeouts, the broken
responses above, 5xx) with exponential backoff; other non-2xx responses,
redirects included, fail immediately. A pooled connection that the server
closed while it sat idle is replaced at once, without counting as an
attempt.

:meth:`ServiceClient.post_all` pipelines independent requests (RFC 9112
§9.3.2). It deals them over up to :data:`LANES` connections in contiguous
lanes, and writes up to :data:`MAX_PIPELINE` requests of every lane before
reading any reply. A server must answer the requests of a connection in the
order they arrived, as every HTTP/1.1 server does; one that serves each
connection on its own thread, as most do, then works on the lanes at once.
A server that closes the connection after a reply, HTTP/1.0 servers
included, gets the unanswered rest again one request at a time.
"""
from __future__ import annotations

import base64
import functools
import http.client
import json
import logging
import os
import socket
import ssl
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import BinaryIO, Sequence
from urllib.parse import unquote, urlsplit

logger = logging.getLogger(__name__)

# Pipelined requests written before their replies are read, so the client
# never blocks on a write while the server blocks on replies nobody reads.
MAX_PIPELINE = 32
# Connections one ServiceClient.post_all deals its requests over. A server
# answers one connection's requests one at a time, so each lane is served
# beside the others; against the bench's stub, eight lanes gave no more
# throughput than four.
LANES = 4
# Longest status, header or chunk-size line, and most headers, in a response.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class TransportError(Exception):
    """Remote service unreachable after retries."""

    def __init__(self, url: str, attempts: int, last_error: str):
        super().__init__(
            f"request to {url} failed after {attempts} attempt(s): {last_error}"
        )
        self.url = url
        self.attempts = attempts
        self.last_error = last_error


class RemoteServiceError(Exception):
    """Remote service answered with a non-retryable error."""

    def __init__(self, url: str, status: int, body: str):
        super().__init__(f"{url} returned HTTP {status}: {body[:200]}")
        self.status = status


class MalformedResponseError(RemoteServiceError):
    """Remote service answered 2xx with a body that is not a JSON object."""


class _Origin:
    """Idle connections to one (scheme, host, port), and how to open more."""

    def __init__(self, scheme: str, host: str, port: int):
        headers = {"Content-Type": "application/json", "Accept": "application/json"}
        self._idle: list[tuple[socket.socket, BinaryIO]] = []
        self._lock = threading.Lock()
        self._https = scheme == "https"
        self._context = None
        if self._https:
            cafile = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            if cafile and os.path.isdir(cafile):
                self._context = ssl.create_default_context(capath=cafile)
            else:
                self._context = ssl.create_default_context(cafile=cafile or None)
        self._address = (host, port)
        self._tunnel: tuple[str, int, dict] | None = None
        netloc = f"[{host}]" if ":" in host else host
        # Prefix that turns a path into the request target: empty for a
        # direct connection, the origin for an absolute-form proxy request.
        self.target_prefix = ""
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and not urllib.request.proxy_bypass(host):
            parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            proxy_headers = {}
            if parts.username is not None:
                creds = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(creds.encode("utf-8")).decode("ascii")
                )
            self._address = (parts.hostname, parts.port or 80)
            if self._https:
                self._tunnel = (host, port, proxy_headers)
            else:
                headers.update(proxy_headers)
                self.target_prefix = f"http://{netloc}:{port}"
        if port != (443 if self._https else 80):
            netloc = f"{netloc}:{port}"
        headers = {"Host": netloc if netloc.isascii() else netloc.encode("idna").decode()} | headers
        # Everything of a request after its target, up to the Content-Length value.
        self._head = (
            " HTTP/1.1\r\n" + "".join(f"{k}: {v}\r\n" for k, v in headers.items())
            + "Content-Length: "
        ).encode("ascii")

    def _connect(self, timeout: float) -> tuple[socket.socket, BinaryIO]:
        # http.client opens the socket: TCP_NODELAY, TLS and CONNECT tunnelling.
        if self._https:
            conn = http.client.HTTPSConnection(
                *self._address, timeout=timeout, context=self._context
            )
        else:
            conn = http.client.HTTPConnection(*self._address, timeout=timeout)
        if self._tunnel is not None:
            host, port, headers = self._tunnel
            conn.set_tunnel(host, port, headers=headers)
        conn.connect()
        return conn.sock, conn.sock.makefile("rb")

    def _borrow(self, timeout: float) -> tuple[socket.socket, BinaryIO, bool]:
        with self._lock:
            idle = self._idle.pop() if self._idle else None
        if idle is None:
            return *self._connect(timeout), False
        idle[0].settimeout(timeout)
        return *idle, True

    def _release(self, sock: socket.socket, rfile: BinaryIO) -> None:
        with self._lock:
            self._idle.append((sock, rfile))

    def post(self, target: str, body: bytes, timeout: float) -> tuple[int, bytes]:
        """One request/response exchange; returns (status, response body)."""
        (reply,) = self.post_all(target, [body], timeout)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def post_all(
        self, target: str, bodies: Sequence[bytes], timeout: float
    ) -> list[tuple[int, bytes] | Exception]:
        """Pipelined exchanges on one connection; returns (status, response
        body) per request, in order. A reply that closes the connection, or a
        broken one, ends the exchange: each request from there on gets the
        exception that left it unanswered."""
        try:
            lane = self.start(target, bodies, timeout)
        except (OSError, http.client.HTTPException) as exc:
            return [exc] * len(bodies)
        return self.finish(lane, timeout)

    def post_lanes(
        self, target: str, bodies: Sequence[bytes], timeout: float
    ) -> list[tuple[int, bytes] | Exception]:
        """:meth:`post_all` dealt over up to :data:`LANES` connections: the
        bodies are cut into contiguous lanes whose sizes differ by at most
        one, every lane is started before any is finished, and the replies
        are joined in order. A lane that cannot connect, or whose reply
        times out, ends the exchange: the lanes not yet started or read get
        its error, so a dead or stalled server costs what one pipeline does."""
        if not bodies:
            return []
        count = min(LANES, len(bodies))
        cuts = [len(bodies) * i // count for i in range(count + 1)]
        lanes: list[_Lane] = []
        replies: list[tuple[int, bytes] | Exception] = []
        error: Exception | None = None
        try:
            for lo, hi in zip(cuts, cuts[1:]):
                try:
                    lanes.append(self.start(target, bodies[lo:hi], timeout))
                except (OSError, http.client.HTTPException) as exc:
                    error = exc
                    break
            while lanes:
                replies += self.finish(lanes.pop(0), timeout)
                if isinstance(replies[-1], TimeoutError):
                    error = replies[-1]
                    break
        finally:
            for lane in lanes:  # a lane the exchange ended, or left on an interrupt
                _close(lane.sock, lane.rfile)
        return replies + [error] * (len(bodies) - len(replies))

    def start(self, target: str, bodies: Sequence[bytes], timeout: float) -> _Lane:
        """Borrows a connection and writes the first :data:`MAX_PIPELINE`
        requests on it; raises when no connection can be had. The replies
        are read by :meth:`finish`."""
        prefix = target.encode("ascii")
        requests = [b"POST %s%s%d\r\n\r\n%s" % (prefix, self._head, len(b), b) for b in bodies]
        lane = _Lane(requests, *self._borrow(timeout))
        try:
            lane.sock.sendall(b"".join(requests[:MAX_PIPELINE]))
        except OSError as exc:
            lane.error = exc  # finish meets it where it meets a failed read
        except BaseException:
            _close(lane.sock, lane.rfile)
            raise
        return lane

    def finish(self, lane: _Lane, timeout: float) -> list[tuple[int, bytes] | Exception]:
        """Reads the replies of a started lane, writing its later windows,
        and gives its connection back; returns what :meth:`post_all` does."""
        requests, sock, rfile = lane.requests, lane.sock, lane.rfile
        replies: list[tuple[int, bytes] | Exception] = []
        try:
            try:
                if lane.error is not None:
                    raise lane.error
                keep_alive = _pipeline(
                    sock, rfile, requests, replies, sent=min(len(requests), MAX_PIPELINE)
                )
            except ConnectionError:
                if not lane.reused or replies:
                    raise
                # The server closed this connection while it was idle.
                _close(sock, rfile)
                sock, rfile = self._connect(timeout)
                keep_alive = _pipeline(sock, rfile, requests, replies)
        except (OSError, http.client.HTTPException) as exc:
            _close(sock, rfile)
            return replies + [exc] * (len(requests) - len(replies))
        except BaseException:
            _close(sock, rfile)
            raise
        if keep_alive:
            self._release(sock, rfile)
            return replies
        _close(sock, rfile)
        unanswered = http.client.RemoteDisconnected("connection closed by an earlier reply")
        return replies + [unanswered] * (len(requests) - len(replies))


@dataclass
class _Lane:
    """A pipeline whose first window is written on its borrowed connection,
    or whose write raised ``error``."""

    requests: list[bytes]
    sock: socket.socket
    rfile: BinaryIO
    reused: bool
    error: OSError | None = None


def _pipeline(
    sock: socket.socket, rfile: BinaryIO, requests: list[bytes], replies: list, sent: int = 0
) -> bool:
    """Sends the requests that ``replies`` does not answer yet, at most
    :data:`MAX_PIPELINE` per write, and appends each reply; the first
    ``sent`` of them are written already. Returns whether the connection
    stays open."""
    while len(replies) < len(requests):
        if not sent:
            window = requests[len(replies):len(replies) + MAX_PIPELINE]
            sock.sendall(b"".join(window))
            sent = len(window)
        for _ in range(sent):
            status, data, keep_alive = _read_response(rfile)
            replies.append((status, data))
            if not keep_alive:
                return False
        sent = 0
    return True


def _close(sock: socket.socket, rfile: BinaryIO) -> None:
    rfile.close()
    sock.close()


def _read_line(rfile: BinaryIO, what: str) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_exactly(rfile: BinaryIO, size: int) -> bytes:
    data = rfile.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_response(rfile: BinaryIO) -> tuple[int, bytes, bool]:
    """Read one response; returns (status, body, whether the connection stays open)."""
    status = 100
    while status < 200:  # skip interim responses
        line = _read_line(rfile, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        version, _, rest = line.partition(b" ")
        if not (version.startswith(b"HTTP/1.") and rest[:3].isdigit() and not rest[3:4].strip()):
            raise http.client.BadStatusLine(line.decode("iso-8859-1"))
        status = int(rest[:3])
        headers = {}
        for _ in range(_MAX_HEADERS + 1):
            if not (line := _read_line(rfile, "header line")).strip():
                break
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
    connection = headers.get(b"connection", b"").lower()
    if version == b"HTTP/1.0":
        keep_alive = b"keep-alive" in connection
    else:
        keep_alive = b"close" not in connection
    if status in (204, 304):
        return status, b"", keep_alive
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []
        while True:
            size = _read_line(rfile, "chunk size").split(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise http.client.HTTPException(f"invalid chunk size {size!r}")
            if not (size := int(size, 16)):
                break
            chunks.append(_read_exactly(rfile, size + 2)[:-2])  # the chunk and its CRLF
        while _read_line(rfile, "trailer line").strip():
            pass
        return status, b"".join(chunks), keep_alive
    length = headers.get(b"content-length")
    if length is None:
        return status, rfile.read(), False
    if not length.isdigit():
        raise http.client.HTTPException(f"invalid Content-Length {length!r}")
    return status, _read_exactly(rfile, int(length)), keep_alive


_origins: dict[tuple[str, str, int], _Origin] = {}
_origins_lock = threading.Lock()


def close_idle_connections() -> None:
    """Close every origin's idle pooled connections; a later call opens new
    ones as needed."""
    with _origins_lock:
        origins = list(_origins.values())
    for origin in origins:
        with origin._lock:
            idle, origin._idle = origin._idle, []
        for sock, rfile in idle:
            _close(sock, rfile)


@functools.lru_cache(maxsize=64)
def _route(url: str) -> tuple[_Origin, str]:
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"unsupported URL {url!r}: expected http:// or https://")
    if any(c <= " " or c == "\x7f" for c in url):
        raise ValueError(f"unsupported URL {url!r}: contains whitespace or control characters")
    try:
        port = parts.port  # not a number, or out of range: ValueError
    except ValueError as exc:
        raise ValueError(f"unsupported URL {url!r}: {exc}") from None
    key = (parts.scheme, parts.hostname, port or (443 if parts.scheme == "https" else 80))
    with _origins_lock:
        origin = _origins.get(key)
        if origin is None:
            origin = _origins[key] = _Origin(*key)
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    return origin, origin.target_prefix + path


def _decode(url: str, status: int, data: bytes) -> dict:
    """The JSON object of a reply below 500; a 3xx or 4xx raises
    :class:`RemoteServiceError`."""
    if status >= 300:
        raise RemoteServiceError(url, status, data.decode("utf-8", "replace"))
    try:
        body = json.loads(data)
    except ValueError:  # also covers bodies that are not UTF-8
        body = None
    if not isinstance(body, dict):
        raise MalformedResponseError(
            url, status, "body is not a JSON object: " + data[:200].decode("utf-8", "replace")
        )
    return body


def post_json(
    url: str,
    body: bytes,
    timeout: float = 30.0,
    max_retries: int = 3,
    backoff: float = 0.25,
) -> dict:
    """POST the encoded JSON ``body`` to ``url`` with retries; returns the
    JSON object of the reply."""
    origin, target = _route(url)
    attempts = 0
    last_error = "no attempt made"
    while attempts < max(1, max_retries):
        attempts += 1
        try:
            status, data = origin.post(target, body, timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_error = str(exc) or type(exc).__name__
        else:
            if status < 500:
                return _decode(url, status, data)
            last_error = f"HTTP {status}"
        if attempts < max(1, max_retries):
            delay = backoff * (2 ** (attempts - 1))
            logger.debug("retrying %s in %.2fs (%s)", url, delay, last_error)
            time.sleep(delay)
    raise TransportError(url, attempts, last_error)


class ServiceClient:
    """Endpoint, timeout and retry policy of one remote service."""

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.25,
    ):
        self.endpoint = endpoint.rstrip("/")
        _route(self.endpoint)  # a malformed endpoint fails here, not at the first request
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def post(self, route: str, body: bytes) -> dict:
        """POST the encoded JSON ``body`` to ``{endpoint}{route}``; returns
        the JSON object of the reply."""
        return post_json(
            self.endpoint + route, body, self.timeout, self.max_retries, self.backoff
        )

    def post_all(self, route: str, bodies: Sequence[bytes]) -> list[dict | Exception]:
        """POST every encoded body to ``{endpoint}{route}`` pipelined over up to
        :data:`LANES` connections (:meth:`_Origin.post_lanes`); returns, in
        order, each JSON object or the error of its entry.

        A 3xx or 4xx reply, and a 2xx body that is not a JSON object, is that
        entry's :class:`RemoteServiceError`. Unanswered and 5xx entries are
        sent again one at a time through :func:`post_json`, in order, each
        with its retry budget and the bytes it was first sent with; the first
        :class:`TransportError` ends that, and every later entry still to send
        carries it.
        """
        url = self.endpoint + route
        origin, target = _route(url)
        replies = origin.post_lanes(target, bodies, self.timeout)
        results: list[dict | Exception] = []
        failed: TransportError | None = None
        for body, reply in zip(bodies, replies):
            try:
                if not isinstance(reply, Exception) and reply[0] < 500:
                    results.append(_decode(url, *reply))
                elif failed is not None:
                    results.append(failed)
                else:
                    results.append(self.post(route, body))
            except TransportError as exc:
                results.append(failed := exc)
            except RemoteServiceError as exc:
                results.append(exc)
        return results
