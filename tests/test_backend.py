import json
import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectrag import _http
from reflectrag.backend import (
    BackendError,
    ConformanceError,
    GenerateRequestError,
    GenerationResult,
    MockBackend,
    ProtocolViolationError,
    RemoteBackend,
    ScriptError,
    ScriptedResponse,
    ServiceClient,
    TransportError,
    UnscriptedPromptError,
    _generate_bodies,
    check_backend_conformance,
    load_script_file,
    match_user_text,
    serve_generate,
    validate_generation_result,
)
from reflectrag.engine import judge_passages
from reflectrag.kb import Passage
from reflectrag.prompts import (
    PromptSegment,
    PromptStage,
    SegmentKind,
    build_prompt,
    prompt_fingerprint,
)
from reflectrag.samples import QuerySample
from reflectrag.synth import RuleBackend
from reflectrag.tokens import CONTROL_TOKENS, DECISION_TOKENS, RELEVANCE_TOKENS

from stub_server import StubServer

DECISION_PROMPT = build_prompt(PromptStage.DECISION, "What color is the car?", "img-1")
QUESTION = "Who built the mill?"
RULE = RuleBackend({QUESTION: ("Tobias Fenn",)}, {"What color is the car?": "Black"})


def test_scripted_decision_echo():
    backend = MockBackend()
    backend.register_script(
        match_user_text("What color is the car?"),
        ScriptedResponse(
            tokens=("<NORET>",),
            candidates=({"<RET>": math.log(0.1), "<NORET>": math.log(0.9)},),
        ),
        allowed=DECISION_TOKENS,
    )
    result = backend.constrained_generate(DECISION_PROMPT, DECISION_TOKENS, max_tokens=1)
    assert result.tokens == ("<NORET>",)
    assert set(result.candidate_logprobs[0]) == {"<RET>", "<NORET>"}


def test_relevance_argmax_with_spec_logprobs():
    # The canonical two-candidate example: -0.1 vs -2.3 picks the first.
    backend = MockBackend()
    prompt = build_prompt(PromptStage.JUDGMENT, "Q?", "img", ["some passage"])
    backend.register_script(
        match_user_text("Q?"),
        ScriptedResponse(tokens=("<REL>",), candidates=({"<REL>": -0.1, "<NOREL>": -2.3},)),
        allowed=RELEVANCE_TOKENS,
    )
    result = backend.constrained_generate(prompt, RELEVANCE_TOKENS, max_tokens=1)
    assert result.tokens == ("<REL>",)
    assert result.candidate_logprobs[0] == {"<REL>": -0.1, "<NOREL>": -2.3}


def test_unscripted_prompt_error_carries_fingerprint():
    backend = MockBackend()
    with pytest.raises(UnscriptedPromptError) as exc_info:
        backend.constrained_generate(DECISION_PROMPT, DECISION_TOKENS, 1)
    assert exc_info.value.fingerprint == prompt_fingerprint(DECISION_PROMPT)
    assert exc_info.value.fingerprint in str(exc_info.value)


def test_first_registered_script_wins():
    backend = MockBackend()
    backend.register_script(
        match_user_text("What color is the car?"), ScriptedResponse(tokens=("first",))
    )
    backend.register_script(
        match_user_text("What color is the car?"), ScriptedResponse(tokens=("second",))
    )
    result = backend.constrained_generate(DECISION_PROMPT)
    assert result.tokens == ("first",)


def test_max_tokens_truncates():
    backend = MockBackend()
    backend.register_script(
        match_user_text("What color is the car?"),
        ScriptedResponse(tokens=("a", "b", "c")),
    )
    assert backend.constrained_generate(DECISION_PROMPT, max_tokens=2).tokens == ("a", "b")
    assert backend.constrained_generate(DECISION_PROMPT).tokens == ("a", "b", "c")


def test_constraint_clamps_to_allowed():
    backend = MockBackend()
    backend.register_script(
        match_user_text("What color is the car?"),
        ScriptedResponse(
            tokens=("<RET>",),
            candidates=({"<RET>": math.log(0.6), "<NORET>": math.log(0.4)},),
        ),
    )
    result = backend.constrained_generate(DECISION_PROMPT, allowed={"<NORET>"}, max_tokens=1)
    assert result.tokens == ("<NORET>",)  # best permitted candidate


def test_disjoint_allowed_set_is_script_error():
    backend = MockBackend()
    backend.register_script(
        match_user_text("What color is the car?"),
        ScriptedResponse(tokens=("x",), candidates=({"x": 0.0},)),
    )
    with pytest.raises(ScriptError, match="disjoint"):
        backend.constrained_generate(DECISION_PROMPT, allowed={"y"}, max_tokens=1)


def test_constraint_safety_fuzz():
    universe = [f"t{i}" for i in range(10)]
    weights = {t: math.log(1.0 / len(universe)) for t in universe}
    backend = MockBackend()
    backend.register_script(
        match_user_text("What color is the car?"),
        ScriptedResponse(tokens=("t3", "t7"), candidates=(weights, weights)),
    )
    rng = random.Random(0)
    for _ in range(10_000):
        allowed = frozenset(rng.sample(universe, rng.randint(1, 10)))
        result = backend.constrained_generate(DECISION_PROMPT, allowed, max_tokens=2)
        assert all(tok in allowed for tok in result.tokens)


def test_mock_is_deterministic_across_threads():
    backend = MockBackend()
    backend.register_script(
        match_user_text("What color is the car?"),
        ScriptedResponse(
            tokens=("<NORET>",),
            candidates=({"<RET>": math.log(0.2), "<NORET>": math.log(0.8)},),
        ),
        allowed=DECISION_TOKENS,
    )
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(
                lambda _: backend.constrained_generate(DECISION_PROMPT, DECISION_TOKENS, 1),
                range(64),
            )
        )
    assert all(r == results[0] for r in results)


def test_register_failure_injects_backend_error():
    backend = MockBackend()
    backend.register_failure(match_user_text("What color is the car?"), "boom")
    with pytest.raises(BackendError, match="boom"):
        backend.constrained_generate(DECISION_PROMPT)


def test_conformance_check():
    backend = MockBackend()
    check_backend_conformance(backend)
    lacking = MockBackend(control_tokens=CONTROL_TOKENS - {"<paragraph>"})
    with pytest.raises(ConformanceError, match="paragraph"):
        check_backend_conformance(lacking)


def test_load_script_file(tmp_path, plant_scripts_path):
    backend = MockBackend()
    count = load_script_file(backend, plant_scripts_path)
    assert count == 6
    result = backend.constrained_generate(DECISION_PROMPT, DECISION_TOKENS, 1)
    assert result.tokens == ("<NORET>",)


GOOD_ENTRY = {"match": {"user_text": "Q?"}, "tokens": ["<NORET>"]}


@pytest.mark.parametrize("entries, message", [
    ("[5]", "entry 0: an entry must be a JSON object"),
    ([GOOD_ENTRY, {**GOOD_ENTRY, "match": ["Q?"]}], "entry 1: match must be a JSON object"),
    ([{"match": {"user_text": "Q?"}}], "entry 0: tokens must be a list of strings"),
    ([{**GOOD_ENTRY, "tokens": "<NORET>"}], "entry 0: tokens must be a list of strings"),
    ([{**GOOD_ENTRY, "tokens": [1]}], "entry 0: tokens must be a list of strings"),
    ([{**GOOD_ENTRY, "allowed": "<RET>"}], "entry 0: allowed must be null or a list of strings"),
    ([{**GOOD_ENTRY, "allowed": [None]}], "entry 0: allowed must be null or a list of strings"),
    ([{**GOOD_ENTRY, "candidates": {"<NORET>": 0.0}}],
     "entry 0: candidates must be null or a list of objects of JSON numbers"),
    ([{**GOOD_ENTRY, "candidates": [[0.0]]}],
     "entry 0: candidates must be null or a list of objects of JSON numbers"),
    ([{**GOOD_ENTRY, "candidates": [{"a": "zz"}]}],
     "entry 0: candidates must be null or a list of objects of JSON numbers"),
    ([{**GOOD_ENTRY, "candidates": [{"a": True}]}],
     "entry 0: candidates must be null or a list of objects of JSON numbers"),
    ('[{"tokens": ["a"]', "malformed JSON: "),
])
def test_load_script_file_names_the_path_and_entry_of_a_bad_entry(tmp_path, entries, message):
    path = tmp_path / "scripts.json"
    path.write_text(entries if isinstance(entries, str) else json.dumps(entries))
    backend = MockBackend()
    with pytest.raises(ScriptError) as exc_info:
        load_script_file(backend, path)
    assert str(exc_info.value).startswith(f"{path}: {message}")


def test_load_script_file_takes_integer_candidates(tmp_path):
    path = tmp_path / "scripts.json"
    entry = {"match": {"user_text": "What color is the car?"}, "allowed": None,
             "tokens": ["<NORET>"], "candidates": [{"<NORET>": 0, "<RET>": -40}]}
    path.write_text(json.dumps([entry]))
    backend = MockBackend()
    assert load_script_file(backend, path) == 1
    result = backend.constrained_generate(DECISION_PROMPT, DECISION_TOKENS, 1)
    assert result.candidate_logprobs == ({"<NORET>": 0.0, "<RET>": -40.0},)


class TestResultValidation:
    def test_spec_example_values_accepted(self):
        result = GenerationResult(
            tokens=("<REL>",),
            chosen_logprobs=(-0.1,),
            candidate_logprobs=({"<REL>": -0.1, "<NOREL>": -2.3},),
        )
        validate_generation_result(result, frozenset(RELEVANCE_TOKENS))

    def test_gross_overshoot_rejected(self):
        result = GenerationResult(
            tokens=("a",),
            chosen_logprobs=(0.0,),
            candidate_logprobs=({"a": 0.0, "b": 0.0},),  # both certain: sums to 2
        )
        with pytest.raises(ProtocolViolationError, match="sum"):
            validate_generation_result(result, None)

    def test_token_outside_allowed_rejected(self):
        result = GenerationResult(
            tokens=("z",), chosen_logprobs=(0.0,), candidate_logprobs=({"z": 0.0},)
        )
        with pytest.raises(ProtocolViolationError, match="outside allowed"):
            validate_generation_result(result, frozenset({"a"}))

    def test_chosen_missing_from_candidates_rejected(self):
        result = GenerationResult(
            tokens=("a",), chosen_logprobs=(0.0,), candidate_logprobs=({"b": 0.0},)
        )
        with pytest.raises(ProtocolViolationError, match="missing"):
            validate_generation_result(result, None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_candidate_rejected(self, bad):
        result = GenerationResult(
            tokens=("<NOREL>",),
            chosen_logprobs=(0.0,),
            candidate_logprobs=({"<REL>": bad, "<NOREL>": 0.0},),
        )
        with pytest.raises(ProtocolViolationError, match="non-finite"):
            validate_generation_result(result, frozenset(RELEVANCE_TOKENS))


    def test_huge_candidate_logprob_rejected_without_overflow(self):
        result = GenerationResult(
            tokens=("<REL>",),
            chosen_logprobs=(1000.0,),
            candidate_logprobs=({"<NOREL>": 0.0, "<REL>": 1000.0},),
        )
        with pytest.raises(ProtocolViolationError, match="above 1"):
            validate_generation_result(result, frozenset(RELEVANCE_TOKENS))


class TestRemoteBackend:
    def test_round_trip(self):
        """Every prompt stage, sent to a server that answers through
        serve_generate, gives what the served backend gives directly."""
        passage = "Tobias Fenn built it."
        steps = [
            (build_prompt(PromptStage.DECISION, QUESTION, "img-1"), DECISION_TOKENS, 1),
            (build_prompt(PromptStage.JUDGMENT, QUESTION, "img-1", [passage]), RELEVANCE_TOKENS, 1),
            (build_prompt(PromptStage.ANSWER_WITH_PASSAGES, QUESTION, "img-1", ["A mill.", passage]),
             None, None),
            (build_prompt(PromptStage.ANSWER_DIRECT, "What color is the car?", "img-1"), None, None),
        ]
        with StubServer(lambda path, payload: (200, serve_generate(RULE, payload))) as server:
            remote = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            for step in steps:
                assert remote.constrained_generate(*step) == RULE.constrained_generate(*step)
        prompt = steps[0][0]
        assert server.requests[0] == ("/v1/generate", {
            "segments": [s.to_dict() for s in prompt],
            "allowed_tokens": sorted(DECISION_TOKENS),
            "max_tokens": 1,
        })

    def test_request_bodies_are_the_bytes_json_dumps_writes(self):
        """The raw body of every stage's request, the pipelined judgments
        included, is ``json.dumps`` of its request object, byte for byte."""
        question = 'Who built the "mill"?\\ \t\x00\x1f caf\u00e9 \u2028 \U0001F3ED \ud800'
        passages = ["Tobias Fenn \"built\" it.\n", "A river runs past. \udfff"]
        steps = [
            (build_prompt(PromptStage.DECISION, question, "img-1"), DECISION_TOKENS, 1),
            (build_prompt(PromptStage.ANSWER_WITH_PASSAGES, question, "img-1", passages),
             None, None),
            (build_prompt(PromptStage.ANSWER_DIRECT, question, "img-\u00e9"), None, 7),
        ]
        judgments = [build_prompt(PromptStage.JUDGMENT, question, "img-1", [p]) for p in passages]

        def canned(path, payload):
            token = (payload["allowed_tokens"] or ["an answer"])[0]
            return 200, {"tokens": [token], "chosen_logprobs": [0.0], "candidates": [{token: 0.0}]}

        def dumped(prompt, allowed, max_tokens):
            return json.dumps({
                "segments": [s.to_dict() for s in prompt],
                "allowed_tokens": None if allowed is None else sorted(allowed),
                "max_tokens": max_tokens,
            }, allow_nan=False).encode()

        with StubServer(canned, keep_alive=True) as server:
            remote = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            for step in steps:
                remote.constrained_generate(*step)
            results = remote.constrained_generate_each(judgments, RELEVANCE_TOKENS, 1)
        assert all(isinstance(r, GenerationResult) for r in results)
        assert server.bodies[:3] == [dumped(*step) for step in steps]
        # The judgments go over one lane each, so they may arrive in any order.
        assert sorted(server.bodies[3:]) == sorted(
            dumped(p, RELEVANCE_TOKENS, 1) for p in judgments
        )

    def test_constraint_violation_raises(self):
        def handler(path, payload):
            return 200, {
                "tokens": ["<REL>"],
                "chosen_logprobs": [0.0],
                "candidates": [{"<REL>": 0.0}],
            }

        with StubServer(handler) as server:
            backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            with pytest.raises(ProtocolViolationError, match="outside allowed"):
                backend.constrained_generate(DECISION_PROMPT, DECISION_TOKENS, 1)

    def test_malformed_response_raises(self):
        with StubServer(lambda p, b: (200, {"tokens": ["x"]})) as server:
            backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            with pytest.raises(ProtocolViolationError, match="malformed"):
                backend.constrained_generate(DECISION_PROMPT)

    @pytest.mark.parametrize(
        "body",
        [
            b"<html>502 Bad Gateway</html>",
            {"tokens": ["<RET>"], "chosen_logprobs": [0.0], "candidates": ["<RET>"]},
        ],
        ids=["body-not-json", "candidate-not-a-dict"],
    )
    def test_garbled_response_is_protocol_violation(self, body):
        with StubServer(lambda p, b: (200, body)) as server:
            backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            with pytest.raises(ProtocolViolationError, match="malformed"):
                backend.constrained_generate(DECISION_PROMPT, DECISION_TOKENS, 1)

    @pytest.mark.parametrize(
        "allowed, body",
        [
            (RELEVANCE_TOKENS, {"tokens": ["<REL>"], "chosen_logprobs": [-0.1],
                                "candidates": [{"<REL>": "-0.1", "<NOREL>": "-2.4"}]}),
            (RELEVANCE_TOKENS, {"tokens": ["<REL>"], "chosen_logprobs": ["-0.1"],
                                "candidates": [{"<REL>": -0.1, "<NOREL>": -2.4}]}),
            (RELEVANCE_TOKENS, {"tokens": ["<NOREL>"], "chosen_logprobs": [False],
                                "candidates": [{"<REL>": -5, "<NOREL>": False}]}),
            (None, {"tokens": [42], "chosen_logprobs": [0.0], "candidates": [{"42": 0.0}]}),
            (None, {"tokens": ["a"], "chosen_logprobs": [-10**400], "candidates": [{"a": 0}]}),
        ],
        ids=["string-candidate", "string-chosen", "bool-logprob", "number-token", "huge-integer"],
    )
    def test_wrong_json_type_is_protocol_violation(self, allowed, body):
        with StubServer(lambda p, b: (200, body)) as server:
            backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            with pytest.raises(ProtocolViolationError, match="malformed"):
                backend.constrained_generate(DECISION_PROMPT, allowed, 1)

    def test_nan_candidate_is_protocol_violation(self):
        # json.loads accepts the NaN literal, so the validator must catch it.
        body = (b'{"tokens": ["<NOREL>"], "chosen_logprobs": [0.0],'
                b' "candidates": [{"<REL>": NaN, "<NOREL>": 0.0}]}')
        with StubServer(lambda p, b: (200, body)) as server:
            backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            with pytest.raises(ProtocolViolationError, match="non-finite"):
                backend.constrained_generate(DECISION_PROMPT, RELEVANCE_TOKENS, 1)

    def test_retries_then_succeeds(self):
        state = {"calls": 0}

        def handler(path, payload):
            state["calls"] += 1
            if state["calls"] < 3:
                return 500, {"error": "transient"}
            return 200, serve_generate(RULE, payload)

        with StubServer(handler) as server:
            backend = RemoteBackend(
                ServiceClient(server.endpoint, timeout=5, max_retries=3, backoff=0.01)
            )
            result = backend.constrained_generate(DECISION_PROMPT)
        assert result.tokens == ("Black",)
        assert state["calls"] == 3

    def test_transport_error_carries_retry_metadata(self):
        backend = RemoteBackend(
            ServiceClient("http://127.0.0.1:1", timeout=0.2, max_retries=2, backoff=0.01)
        )
        with pytest.raises(TransportError) as exc_info:
            backend.constrained_generate(DECISION_PROMPT)
        assert exc_info.value.attempts == 2


SEGMENTS = [{"kind": "user_text", "payload": QUESTION}]


_AWKWARD_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),  # lone surrogates
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\U0001F3ED'),
))


@settings(deadline=None)
@given(
    prompts=st.lists(
        st.lists(st.builds(PromptSegment, st.sampled_from(SegmentKind), _AWKWARD_TEXT),
                 max_size=10),
        max_size=3,
    ),
    allowed=st.none() | st.frozensets(st.sampled_from(sorted(CONTROL_TOKENS))),
    max_tokens=st.none() | st.integers(),
)
def test_request_body_writer_matches_json_dumps(prompts, allowed, max_tokens):
    assert _generate_bodies(prompts, allowed, max_tokens) == [
        json.dumps({
            "segments": [s.to_dict() for s in prompt],
            "allowed_tokens": None if allowed is None else sorted(allowed),
            "max_tokens": max_tokens,
        }, allow_nan=False).encode()
        for prompt in prompts
    ]


@pytest.mark.parametrize(
    "field, request_body",
    [
        ("request", [SEGMENTS]),
        ("segments", {"segments": SEGMENTS[0]}),
        ("segments[1].kind", {"segments": [*SEGMENTS, {"kind": "bogus", "payload": ""}]}),
        ("segments[0].payload", {"segments": [{"kind": "user_text", "payload": 7}]}),
        ("allowed_tokens", {"segments": SEGMENTS, "allowed_tokens": "<RET>"}),
        ("allowed_tokens", {"segments": SEGMENTS, "allowed_tokens": ["<RET>", None]}),
        ("max_tokens", {"segments": SEGMENTS, "max_tokens": 1.0}),
        ("max_tokens", {"segments": SEGMENTS, "max_tokens": True}),
    ],
)
def test_malformed_request_names_its_field(field, request_body):
    with pytest.raises(GenerateRequestError) as exc_info:
        serve_generate(RULE, request_body)
    assert exc_info.value.field == field


def test_huge_remote_logprob_costs_one_judgment_not_the_sample():
    from reflectrag.engine import PipelineConfig, ReflectiveEngine
    from reflectrag.index import RetrievalMode, build_index
    from reflectrag.synth import make_synthetic_suite

    suite = make_synthetic_suite(num_docs=6, num_fact_samples=1, num_noret_samples=0, seed=5)
    rule = RuleBackend(suite.answers_by_question, suite.direct_answers)
    judged = []

    def handler(path, payload):
        if payload["allowed_tokens"] == sorted(RELEVANCE_TOKENS):
            judged.append(None)
            if len(judged) == 1:
                return 200, {"tokens": ["<REL>"], "chosen_logprobs": [1000.0],
                             "candidates": [{"<NOREL>": 0.0, "<REL>": 1000.0}]}
        return 200, serve_generate(rule, payload)

    with StubServer(handler) as server:
        engine = ReflectiveEngine(
            RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1)),
            kb=suite.kb,
            index=build_index(suite.kb, RetrievalMode.VISUAL),
        )
        trace = engine.run(suite.samples[0], PipelineConfig())
    assert trace.judge_failures == 1
    assert len(trace.judgments) == len(trace.candidates) - 1 == len(judged) - 1


class TestPipelinedJudgments:
    """``judge_passages`` on a remote backend pipelines a sample's judgments;
    every failure keeps the scope it has on the one-at-a-time path."""

    PASSAGES = [Passage("mill", i, text) for i, text in enumerate(
        ["Tobias Fenn built it.", "A river runs past.", "The mill is old.", "Fenn was a miller."]
    )]
    SAMPLE = QuerySample(id="s1", question=QUESTION, image_ref="img-1", image_embedding=None,
                         gold_answers=("Tobias Fenn",), gold_doc_id="mill", dataset="t", split="t")

    def judge(self, handler, keep_alive=True, passages=PASSAGES):
        with StubServer(handler, keep_alive=keep_alive) as server:
            client = ServiceClient(server.endpoint, timeout=5, max_retries=1)
            return judge_passages(RemoteBackend(client), self.SAMPLE, passages), server

    def test_http10_server_gives_the_sequential_judgments_one_request_per_step(self):
        result, server = self.judge(lambda p, b: (200, serve_generate(RULE, b)), keep_alive=False)
        assert result == judge_passages(RULE, self.SAMPLE, self.PASSAGES)
        assert len(server.requests) == len(self.PASSAGES)
        assert server.connections == len(self.PASSAGES)

    def test_keep_alive_server_gets_one_pipeline(self, monkeypatch):
        def single_request(*args, **kwargs):
            raise AssertionError("a judgment was sent on its own")

        monkeypatch.setattr(_http, "post_json", single_request)
        passages = self.PASSAGES + [Passage("mill", 4, "Its wheel is wooden."),
                                    Passage("mill", 5, "Grain came by cart.")]
        (judgments, failures), server = self.judge(
            lambda p, b: (200, serve_generate(RULE, b)), passages=passages
        )
        assert failures == 0 and len(judgments) == len(passages)
        assert len(server.requests) == len(passages)

        def passage_of(request):
            return next(i for i, p in enumerate(passages)
                        if any(p.text in s["payload"] for s in request["segments"]))

        # One pipeline per lane: each connection carried one contiguous run
        # of the judgments, in order.
        lanes = min(_http.LANES, len(passages))
        cuts = [len(passages) * k // lanes for k in range(lanes + 1)]
        assert sorted([passage_of(r) for r in c] for c in server.by_connection) == [
            list(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])
        ]

    def test_422_costs_that_judgment_alone(self):
        def handler(path, payload):
            if any("river" in s["payload"] for s in payload["segments"]):
                return 422, {"error": "cannot produce the step"}
            return 200, serve_generate(RULE, payload)

        (judgments, failures), _ = self.judge(handler)
        assert failures == 1
        expected, _ = judge_passages(RULE, self.SAMPLE, self.PASSAGES)
        assert judgments == [j for j in expected if j.passage.section_index != 1]

    def test_malformed_entry_is_a_protocol_violation_for_that_entry_alone(self):
        def handler(path, payload):
            if any("mill is old" in s["payload"] for s in payload["segments"]):
                return 200, b"<html>502 Bad Gateway</html>"
            return 200, serve_generate(RULE, payload)

        prompts = [build_prompt(PromptStage.JUDGMENT, QUESTION, "img-1", [p.text])
                   for p in self.PASSAGES]
        with StubServer(handler, keep_alive=True) as server:
            remote = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
            results = remote.constrained_generate_each(prompts, RELEVANCE_TOKENS, 1)
        assert isinstance(results[2], ProtocolViolationError)
        assert "malformed" in str(results[2])
        for i in (0, 1, 3):
            assert results[i] == RULE.constrained_generate(prompts[i], RELEVANCE_TOKENS, 1)

    def test_every_relevance_step_503_fails_the_sample_without_a_retry_storm(self):
        from reflectrag.engine import PipelineConfig, ReflectiveEngine
        from reflectrag.index import RetrievalMode, build_index
        from reflectrag.synth import make_synthetic_suite

        suite = make_synthetic_suite(num_docs=6, num_fact_samples=1, num_noret_samples=0, seed=5)
        rule = RuleBackend(suite.answers_by_question, suite.direct_answers)
        relevance = []

        def handler(path, payload):
            if payload["allowed_tokens"] == sorted(RELEVANCE_TOKENS):
                relevance.append(payload)
                return 503, {"error": "overloaded"}
            return 200, serve_generate(rule, payload)

        max_retries = 3
        with StubServer(handler, keep_alive=True) as server:
            client = ServiceClient(server.endpoint, timeout=5, max_retries=max_retries, backoff=0)
            engine = ReflectiveEngine(RemoteBackend(client), kb=suite.kb,
                                      index=build_index(suite.kb, RetrievalMode.VISUAL))
            local = ReflectiveEngine(rule, kb=suite.kb, index=engine.index).run(
                suite.samples[0], PipelineConfig()
            )
            with pytest.raises(TransportError):
                engine.run(suite.samples[0], PipelineConfig())
        # One pipelined request per judgment, then the first one alone with its
        # retry budget: never judgments x retries.
        assert len(local.candidates) > 1
        assert len(relevance) <= len(local.candidates) + max_retries
