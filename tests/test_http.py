"""Connection reuse, stale-connection recovery, proxying and concurrency of
the shared JSON transport, against the in-process stub."""
import sys
from concurrent.futures import ThreadPoolExecutor

from reflectrag._http import post_json

from stub_server import StubServer


def echo(path, payload):
    return 200, {"path": path, "payload": payload}


def test_sequential_calls_share_one_connection():
    with StubServer(echo, keep_alive=True) as server:
        for i in range(5):
            body = post_json(f"{server.endpoint}/v1/embed", {"i": i}, timeout=5)
            assert body == {"path": "/v1/embed", "payload": {"i": i}}
        assert server.connections == 1


def test_connection_dropped_while_idle_is_replaced_without_an_attempt():
    with StubServer(echo, keep_alive=True) as server:
        url = f"{server.endpoint}/v1/embed"
        assert post_json(url, {"i": 0}, timeout=5)["payload"] == {"i": 0}
        server.drop_connections()
        # One attempt and no backoff: only the immediate reconnect can succeed.
        assert post_json(url, {"i": 1}, timeout=5, max_retries=1)["payload"] == {"i": 1}
        assert server.connections == 2


def test_http_proxy_receives_absolute_form_target(monkeypatch):
    with StubServer(echo, keep_alive=True) as proxy:
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, proxy.endpoint)
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        url = "http://model-server.invalid:8008/v1/generate?x=1"
        body = post_json(url, {"i": 0}, timeout=5, max_retries=1)
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
                    assert post_json(url, payload, timeout=10)["payload"] == payload

            with ThreadPoolExecutor(workers) as pool:
                for future in [pool.submit(run, w) for w in range(workers)]:
                    future.result(timeout=60)
            assert len(server.requests) == workers * calls
            assert server.connections <= workers
    finally:
        sys.setswitchinterval(switch)
