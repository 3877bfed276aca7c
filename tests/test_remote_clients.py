"""Wire-format tests for the auxiliary remote clients (embedder, annotator,
reranker, answer judge) against an in-process stub."""
import numpy as np
import pytest

from reflectrag._http import RemoteServiceError, post_json
from reflectrag.engine import RemotePassageReranker, RerankerError, apply_external_reranker
from reflectrag.forge import RemoteAnnotator
from reflectrag.harness import RemoteAnswerJudge
from reflectrag.index import RemoteTextEmbedder
from reflectrag.kb import Passage
from reflectrag.samples import QuerySample

from stub_server import StubServer


def make_sample():
    return QuerySample(
        id="s", question="who built it", image_ref="img", image_embedding=None,
        gold_answers=("a",), gold_doc_id=None, dataset="d", split="test",
    )


def test_remote_embedder_round_trip():
    def handler(path, payload):
        assert path == "/v1/embed"
        assert payload == {"texts": ["Some Title"]}
        return 200, {"embeddings": [[0.6, 0.8]]}

    with StubServer(handler) as server:
        embedder = RemoteTextEmbedder(server.endpoint, timeout=5, max_retries=1)
        vec = embedder.embed("Some Title")
    assert np.allclose(vec, [0.6, 0.8])


def test_remote_annotator_round_trip():
    def handler(path, payload):
        assert path == "/v1/annotate"
        assert payload["question"] == "who built it"
        assert payload["answer"] == "Mason Guild"
        assert payload["captions"] == ["a stone bridge"]
        return 200, {"relevant": "Mason" in payload["passage"]}

    with StubServer(handler) as server:
        annotator = RemoteAnnotator(server.endpoint, timeout=5, max_retries=1)
        assert annotator.is_relevant(
            "who built it", ["Mason Guild"], "built by the Mason Guild",
            captions=["a stone bridge"],
        )
        assert not annotator.is_relevant(
            "who built it", ["Mason Guild"], "irrelevant", captions=["a stone bridge"]
        )


@pytest.mark.parametrize("relevant", ["false", 0, 1, None])
def test_remote_annotator_rejects_non_boolean_relevant(relevant):
    with StubServer(lambda p, b: (200, {"relevant": relevant})) as server:
        annotator = RemoteAnnotator(server.endpoint, timeout=5, max_retries=1)
        with pytest.raises(ValueError, match="JSON boolean"):
            annotator.is_relevant("q", ["a"], "passage")


def test_remote_reranker_round_trip_and_validation():
    passages = [Passage("d", i, f"p{i}") for i in range(3)]

    def handler(path, payload):
        assert path == "/v1/rerank"
        assert [p["section_index"] for p in payload["passages"]] == [0, 1, 2]
        return 200, {"order": [2, 0, 1]}

    with StubServer(handler) as server:
        reranker = RemotePassageReranker(server.endpoint, timeout=5, max_retries=1)
        reordered = apply_external_reranker(reranker, make_sample(), passages)
    assert [p.section_index for p in reordered] == [2, 0, 1]

    # A duplicated entry, and negative indices that would wrap around.
    for bad_order in ([0, 0, 1], [-1, -2, -3]):
        with StubServer(lambda p, b: (200, {"order": bad_order})) as server:
            reranker = RemotePassageReranker(server.endpoint, timeout=5, max_retries=1)
            with pytest.raises(RerankerError, match="not a permutation"):
                apply_external_reranker(reranker, make_sample(), passages)


def test_remote_judge_round_trip():
    def handler(path, payload):
        assert path == "/v1/judge"
        assert payload["question"] == "q"
        assert payload["ground_truth_answer"] == "gold"
        assert payload["predicted_answer"] == "pred"
        assert "# Question: q" in payload["prompt"]
        assert payload["prompt"].startswith("You are trying to evaluate the alignment")
        return 200, {"score": 87, "reason": "close enough"}

    with StubServer(handler) as server:
        judge = RemoteAnswerJudge(server.endpoint, timeout=5, max_retries=1)
        verdict = judge.judge("q", "caption", "gold", "pred")
    assert verdict == {"score": 87.0, "reason": "close enough"}


def test_remote_judge_rejects_out_of_range_score():
    with StubServer(lambda p, b: (200, {"score": 150, "reason": ""})) as server:
        judge = RemoteAnswerJudge(server.endpoint, timeout=5, max_retries=1)
        with pytest.raises(ValueError, match="out of range"):
            judge.judge("q", "c", "g", "p")


def test_post_json_client_error_is_not_retried():
    calls = {"n": 0}

    def handler(path, payload):
        calls["n"] += 1
        return 404, {"error": "nope"}

    with StubServer(handler) as server:
        with pytest.raises(RemoteServiceError, match="404"):
            post_json(f"{server.endpoint}/v1/embed", {}, timeout=5, max_retries=3)
    assert calls["n"] == 1
