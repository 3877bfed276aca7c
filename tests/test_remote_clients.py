"""Wire-format tests for the auxiliary remote adapters (embedder, reranker)
and the shared ServiceClient against an in-process stub."""
import time

import numpy as np
import pytest

from reflectrag import _http
from reflectrag._http import RemoteServiceError, ServiceClient
from reflectrag.engine import RemotePassageReranker, RerankerError, apply_external_reranker
from reflectrag.index import EmbedderError, RemoteTextEmbedder, RetrievalMode, build_index
from reflectrag.kb import Passage
from reflectrag.samples import QuerySample
from reflectrag.synth import make_synthetic_suite

from stub_server import StubServer


def make_sample():
    return QuerySample(
        id="s", question="who built it", image_ref="img", image_embedding=None,
        gold_answers=("a",), gold_doc_id=None, dataset="d", split="test",
    )


def client(server):
    return ServiceClient(server.endpoint, timeout=5, max_retries=1)


def test_service_client_posts_through_post_json(monkeypatch):
    # Tracing wraps the module-level post_json to see every request.
    sent = []
    monkeypatch.setattr(_http, "post_json", lambda *args: sent.append(args) or {"ok": 1})
    body = ServiceClient("http://svc:9/", timeout=2.5, max_retries=4, backoff=0.5).post(
        "/v1/embed", b'{"texts": []}'
    )
    assert body == {"ok": 1}
    assert sent == [("http://svc:9/v1/embed", b'{"texts": []}', 2.5, 4, 0.5)]


def test_remote_embedder_round_trip():
    def handler(path, payload):
        assert path == "/v1/embed"
        assert payload == {"texts": ["Some Title"]}
        return 200, {"embeddings": [[0.6, 0.8]]}

    with StubServer(handler) as server:
        embedder = RemoteTextEmbedder(client(server))
        vec = embedder.embed("Some Title")
    assert np.allclose(vec, [0.6, 0.8])


@pytest.mark.parametrize("vector", [["0.6", "0.8"], [True, False]], ids=["strings", "bools"])
def test_remote_embedding_of_wrong_json_type_fails_the_index(vector):
    suite = make_synthetic_suite(num_docs=2, num_fact_samples=1, num_noret_samples=0, seed=3)
    with StubServer(lambda p, b: (200, {"embeddings": [vector]})) as server:
        with pytest.raises(EmbedderError):
            build_index(suite.kb, RetrievalMode.TEXTUAL_TITLE, RemoteTextEmbedder(client(server)))


def test_remote_reranker_round_trip_and_validation():
    passages = [Passage("d", i, f"p{i}") for i in range(3)]

    def handler(path, payload):
        assert path == "/v1/rerank"
        assert [p["section_index"] for p in payload["passages"]] == [0, 1, 2]
        return 200, {"order": [2, 0, 1]}

    with StubServer(handler) as server:
        reranker = RemotePassageReranker(client(server))
        reordered = apply_external_reranker(reranker, make_sample(), passages)
    assert [p.section_index for p in reordered] == [2, 0, 1]

    # A duplicated entry, and negative indices that would wrap around.
    for bad_order in ([0, 0, 1], [-1, -2, -3]):
        with StubServer(lambda p, b: (200, {"order": bad_order})) as server:
            reranker = RemotePassageReranker(client(server))
            with pytest.raises(RerankerError, match="not a permutation"):
                apply_external_reranker(reranker, make_sample(), passages)


def test_post_json_client_error_is_not_retried():
    calls = {"n": 0}

    def handler(path, payload):
        calls["n"] += 1
        return 404, {"error": "nope"}

    with StubServer(handler) as server:
        with pytest.raises(RemoteServiceError, match="404"):
            ServiceClient(server.endpoint, timeout=5, max_retries=3).post("/v1/embed", b"{}")
    assert calls["n"] == 1


def test_stub_answers_a_raising_handler_with_500_and_fails_its_block():
    def broken(path, payload):
        raise KeyError("no such route")

    with pytest.raises(AssertionError, match="KeyError"):
        with StubServer(broken) as server:
            with pytest.raises(_http.TransportError, match="HTTP 500"):
                client(server).post("/v1/embed", b"{}")
    assert len(server.errors) == 1


def test_stub_fails_its_block_on_a_handler_that_raises_after_the_client_left():
    def late(path, payload):
        time.sleep(0.3)
        raise KeyError("raised after the client timed out")

    with pytest.raises(AssertionError, match="after the client timed out"):
        with StubServer(late) as server:
            with pytest.raises(_http.TransportError):
                ServiceClient(server.endpoint, timeout=0.1, max_retries=1).post("/v1/embed", b"{}")
    assert len(server.errors) == 1
