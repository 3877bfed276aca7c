"""JSON-over-HTTP transport shared by the remote clients.

A :class:`ServiceClient` holds one service's endpoint, timeout and retry
policy; the remote backend, reranker and embedder send through one.

Calls reuse keep-alive connections from one process-wide pool per
(scheme, host, port), so a run opens about as many TCP connections as it
has concurrent requests, not one per request. Proxy settings
(``HTTP_PROXY``, ``HTTPS_PROXY``, ``NO_PROXY``) and the CA bundle
(``REQUESTS_CA_BUNDLE``, ``CURL_CA_BUNDLE``) are read from the environment
once per (scheme, host, port).

Retries transport-level failures (connection errors, timeouts, 5xx) with
exponential backoff; other non-2xx responses fail immediately. A pooled
connection that the server closed while it sat idle is replaced at once,
without counting as an attempt.
"""
from __future__ import annotations

import base64
import http.client
import json
import logging
import os
import ssl
import threading
import time
import urllib.request
from urllib.parse import unquote, urlsplit

logger = logging.getLogger(__name__)

# Idle connections kept per origin. More concurrent callers still work; the
# surplus connections are closed when they are returned.
MAX_IDLE_PER_ORIGIN = 16


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
        self._headers = {"Content-Type": "application/json", "Accept": "application/json"}
        self._idle: list[http.client.HTTPConnection] = []
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
                self._headers.update(proxy_headers)
                netloc = f"[{host}]" if ":" in host else host
                self.target_prefix = f"http://{netloc}:{port}"

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        if self._https:
            conn = http.client.HTTPSConnection(
                *self._address, timeout=timeout, context=self._context
            )
        else:
            conn = http.client.HTTPConnection(*self._address, timeout=timeout)
        if self._tunnel is not None:
            host, port, headers = self._tunnel
            conn.set_tunnel(host, port, headers=headers)
        return conn

    def _borrow(self, timeout: float) -> tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            return self._connect(timeout), False
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        return conn, True

    def _release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < MAX_IDLE_PER_ORIGIN:
                self._idle.append(conn)
                return
        conn.close()

    def post(self, target: str, body: bytes, timeout: float) -> tuple[int, bytes]:
        """One request/response exchange; returns (status, response body)."""
        conn, reused = self._borrow(timeout)
        try:
            try:
                conn.request("POST", target, body, self._headers)
                resp = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The server closed this connection while it was idle.
                conn.close()
                conn = self._connect(timeout)
                conn.request("POST", target, body, self._headers)
                resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._release(conn)
        return resp.status, data


_origins: dict[tuple[str, str, int], _Origin] = {}
_origins_lock = threading.Lock()


def _route(url: str) -> tuple[_Origin, str]:
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"unsupported URL {url!r}: expected http:// or https://")
    key = (parts.scheme, parts.hostname, parts.port or (443 if parts.scheme == "https" else 80))
    with _origins_lock:
        origin = _origins.get(key)
        if origin is None:
            origin = _origins[key] = _Origin(*key)
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    return origin, origin.target_prefix + path


def _decode(url: str, status: int, data: bytes) -> dict:
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
    payload: dict,
    timeout: float = 30.0,
    max_retries: int = 3,
    backoff: float = 0.25,
) -> dict:
    origin, target = _route(url)
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    attempts = 0
    last_error = "no attempt made"
    while attempts < max(1, max_retries):
        attempts += 1
        try:
            status, data = origin.post(target, body, timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_error = str(exc) or type(exc).__name__
        else:
            if status >= 500:
                last_error = f"HTTP {status}"
            elif status >= 300:
                raise RemoteServiceError(url, status, data.decode("utf-8", "replace"))
            else:
                return _decode(url, status, data)
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
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def post(self, route: str, payload: dict) -> dict:
        """POST ``payload`` to ``{endpoint}{route}``; returns the JSON object."""
        return post_json(
            self.endpoint + route, payload, self.timeout, self.max_retries, self.backoff
        )
