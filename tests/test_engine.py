import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protocol_suite as suite
from reflectrag.backend import (
    MockBackend,
    ProtocolViolationError,
    ScriptedResponse,
    match_all,
    match_passage_contains,
    match_user_text,
)
from reflectrag.engine import (
    ConfigurationError,
    ForcedDecision,
    PipelineConfig,
    PipelineError,
    PipelineTrace,
    RelevanceJudgment,
    RerankConfig,
    RerankStrategy,
    RerankerError,
    ReflectiveEngine,
    RetrievalDecision,
    SelectionMode,
    apply_external_reranker,
    decide_retrieval,
    judge_passage,
    rank_by_relevance,
    trace_line,
    trace_to_dict,
    write_traces,
)
from reflectrag.harness import _score_fields_of
from reflectrag.index import RetrievalHit, RetrievalMode, build_index
from reflectrag.kb import Passage
from reflectrag.prompts import PromptStage, build_prompt, prompt_fingerprint
from reflectrag.samples import QuerySample
from reflectrag.tokens import DECISION_TOKENS, RELEVANCE_TOKENS, ReflectiveToken
from reflectrag.util import dataclass_from_dict, json_line


def make_sample(question="Q?", sample_id="s1", embedding=None):
    return QuerySample(
        id=sample_id,
        question=question,
        image_ref="img-1",
        image_embedding=embedding,
        gold_answers=("gold",),
        gold_doc_id=None,
        dataset="test",
        split="test",
    )


def scripted_decision(question, p_ret, emit=None):
    backend = MockBackend()
    token = emit or ("<RET>" if p_ret > 0.5 else "<NORET>")
    backend.register_script(
        match_user_text(question),
        ScriptedResponse(
            tokens=(token,),
            candidates=({"<RET>": math.log(p_ret), "<NORET>": math.log(1 - p_ret)},),
        ),
        allowed=DECISION_TOKENS,
    )
    return backend


class TestDecision:
    def test_argmax_ret(self):
        backend = scripted_decision("Q?", 0.86)
        decision = decide_retrieval(backend, make_sample())
        assert decision.token is ReflectiveToken.RET
        assert decision.logp_ret == pytest.approx(math.log(0.86))

    def test_argmax_noret(self):
        backend = scripted_decision("Q?", 0.14)
        assert decide_retrieval(backend, make_sample()).token is ReflectiveToken.NORET

    def test_tie_goes_to_noret(self):
        backend = scripted_decision("Q?", 0.5, emit="<RET>")
        assert decide_retrieval(backend, make_sample()).token is ReflectiveToken.NORET


class TestJudgment:
    def make_backend(self, logp_rel, logp_norel):
        backend = MockBackend()
        backend.register_script(
            match_user_text("Q?"),
            ScriptedResponse(
                tokens=("<REL>",),
                candidates=({"<REL>": logp_rel, "<NOREL>": logp_norel},),
            ),
            allowed=RELEVANCE_TOKENS,
        )
        return backend

    def test_score_arithmetic(self):
        backend = self.make_backend(-0.1, -2.3)
        judgment = judge_passage(backend, make_sample(), Passage("d", 0, "text"))
        assert judgment.token is ReflectiveToken.REL
        assert judgment.score == pytest.approx(2.2)

    def test_tie_is_norel(self):
        backend = self.make_backend(-0.7, -0.7)
        judgment = judge_passage(backend, make_sample(), Passage("d", 0, "text"))
        assert judgment.token is ReflectiveToken.NOREL
        assert judgment.score == 0.0


@pytest.mark.parametrize("stage", ["decision", "relevance"])
def test_step_missing_a_logprob_fails_at_its_scope(stage, caplog):
    # The one-sided step's candidate map holds only the chosen token.
    q = "Describe the oak gallery. (one-sided)"
    scripts = [
        suite._decision(q, 0.9, "<RET>"),
        suite._judgment(q, "Birch Hall section zero", 0.8),
        suite._judgment(q, "Birch Hall section one", 0.8),
        suite._answer(q, "carved oak"),
    ]
    one_sided = 0 if stage == "decision" else 1
    scripts[one_sided] = dataclasses.replace(scripts[one_sided], candidates=None)
    scenario = suite.Scenario(
        name="one-sided", question=q, docs=[("kbdoc-b", 1.0)],
        config=PipelineConfig(top_k_docs=1), scripts=scripts,
    )
    kb = suite.build_kb()
    index = build_index(kb, RetrievalMode.VISUAL)
    missing = "'<NORET>'" if stage == "decision" else "'<NOREL>'"
    message = f"{stage} step must report logprobs for both {stage} tokens: {missing}"
    if stage == "decision":  # the decision is the sample's: the sample fails
        with pytest.raises(ProtocolViolationError) as exc_info:
            suite.run_scenario(kb, index, scenario, "one-sided")
        assert str(exc_info.value) == message
        return
    trace, _ = suite.run_scenario(kb, index, scenario, "one-sided")  # one judgment lost
    assert trace.judge_failures == 1
    assert [j.passage.key for j in trace.judgments] == [("kbdoc-b", 1)]
    assert message in caplog.text


def test_step_memo_asks_each_step_once_and_a_failed_step_again():
    q = "Describe the copper deck. (memo)"
    backend = suite.RecordingMockBackend()
    backend.register_script(
        match_user_text(q), ScriptedResponse(("<RET>",), (suite.dec(0.9),)),
        allowed=DECISION_TOKENS,
    )
    backend.register_failure(
        match_passage_contains("section one"), "boom", allowed=RELEVANCE_TOKENS
    )
    backend.register_script(
        match_user_text(q), ScriptedResponse(("<REL>",), (suite.rel(0.8),)),
        allowed=RELEVANCE_TOKENS,
    )
    backend.register_script(
        match_all(match_user_text(q), match_passage_contains("section zero")),
        ScriptedResponse(("copper deck",)),
    )
    backend.register_script(match_user_text(q), ScriptedResponse(("no lookup",)))
    kb = suite.build_kb()
    engine = ReflectiveEngine(backend, kb=kb, index=build_index(kb, RetrievalMode.VISUAL))
    sample = make_sample(q, "m1", suite.query_embedding([("kbdoc-a", 1.0)]))
    full = PipelineConfig(top_k_docs=1)
    direct = PipelineConfig(top_k_docs=1, force_decision=ForcedDecision.ALWAYS_NORET)

    memo = engine.with_step_memo()
    traces = [memo.run(sample, config) for config in (full, direct, full)]
    # The stage is part of every key: the direct answer is not the decision,
    # and the answer over one passage is not that passage's judgment.
    assert [t.answer for t in traces] == ["copper deck", "no lookup", "copper deck"]
    assert [t.judge_failures for t in traces] == [1, 0, 1]
    assert trace_to_dict(traces[2], False) == trace_to_dict(traces[0], False)
    assert traces[1].decision.logp_ret == traces[0].decision.logp_ret
    by_stage = [c.allowed for c in backend.calls]
    # Each success is asked once; the failing judgment once per full run.
    assert by_stage.count(frozenset(DECISION_TOKENS)) == 1
    assert by_stage.count(frozenset(RELEVANCE_TOKENS)) == 1 + 2
    assert by_stage.count(None) == 2

    class Undeclared(MockBackend):
        deterministic = False

    plain = ReflectiveEngine(Undeclared(), kb=kb)
    assert plain.with_step_memo() is plain


def judgment(doc, idx, score, base=-1.0):
    # logp_norel fixed; logp_rel = base + score keeps score exact
    return RelevanceJudgment(
        passage=Passage(doc, idx, f"{doc}-{idx}"),
        token=ReflectiveToken.REL if score > 0 else ReflectiveToken.NOREL,
        logp_rel=base + score,
        logp_norel=base,
    )


class TestRankByRelevance:
    def test_sorts_by_score_descending(self):
        judgments = [judgment("a", 0, 2.2), judgment("a", 1, -0.5), judgment("a", 2, 0.7)]
        ranked = rank_by_relevance(judgments, 2)
        assert [p.section_index for p in ranked] == [0, 2]

    def test_equal_scores_keep_candidate_order(self):
        judgments = [judgment("a", i, 1.0) for i in range(4)]
        ranked = rank_by_relevance(judgments, 4)
        assert [p.section_index for p in ranked] == [0, 1, 2, 3]

    def test_matches_stable_sort_oracle(self):
        rng = random.Random(42)
        judgments = [judgment("a", i, rng.choice([-2, -1, 0, 1, 2]) + rng.random()) for i in range(1000)]
        ranked = rank_by_relevance(judgments, 1000)
        oracle = [
            j.passage
            for j in sorted(
                judgments, key=lambda j: (-j.score, j.passage.section_index)
            )
        ]
        assert ranked == oracle

    def test_clamps_to_available(self):
        assert len(rank_by_relevance([judgment("a", 0, 1.0)], 10)) == 1

    def test_rejects_empty_and_bad_k(self):
        with pytest.raises(ValueError):
            rank_by_relevance([], 1)
        with pytest.raises(ValueError):
            rank_by_relevance([judgment("a", 0, 1.0)], 0)

    @given(
        logps=st.lists(
            st.tuples(
                st.integers(-320, 0).map(lambda v: v / 64.0),
                st.integers(-320, 0).map(lambda v: v / 64.0),
            ),
            min_size=1,
            max_size=30,
        ),
        shift=st.integers(-640, 640).map(lambda v: v / 64.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, logps, shift):
        # adding a common constant to both logprobs never changes the ranking
        def build(offset):
            return [
                RelevanceJudgment(
                    passage=Passage("d", i, str(i)),
                    token=ReflectiveToken.REL
                    if (lr + offset) - (ln + offset) > 0
                    else ReflectiveToken.NOREL,
                    logp_rel=lr + offset,
                    logp_norel=ln + offset,
                )
                for i, (lr, ln) in enumerate(logps)
            ]

        assert rank_by_relevance(build(0.0), len(logps)) == rank_by_relevance(
            build(shift), len(logps)
        )


class TestExternalReranker:
    passages = [Passage("d", i, f"p{i}") for i in range(4)]

    def test_identity(self):
        out = apply_external_reranker(suite.ReversingReranker(), make_sample(), [])
        assert out == []
        identity = type("I", (), {"rerank": staticmethod(lambda q, p: list(p))})()
        assert apply_external_reranker(identity, make_sample(), self.passages) == self.passages

    def test_reversal(self):
        out = apply_external_reranker(
            suite.ReversingReranker(), make_sample(), self.passages
        )
        assert out == list(reversed(self.passages))

    def test_dropping_passage_is_error(self):
        dropper = type("D", (), {"rerank": staticmethod(lambda q, p: list(p)[1:])})()
        with pytest.raises(RerankerError, match="multiset"):
            apply_external_reranker(dropper, make_sample(), self.passages)

    def test_duplicating_passage_is_error(self):
        duper = type(
            "D", (), {"rerank": staticmethod(lambda q, p: [p[0]] + list(p))}
        )()
        with pytest.raises(RerankerError, match="multiset"):
            apply_external_reranker(duper, make_sample(), self.passages)

    def test_failure_policy(self):
        def explode(q, p):
            raise OSError("down")

        broken = type("B", (), {"rerank": staticmethod(explode)})()
        with pytest.raises(RerankerError, match="failed"):
            apply_external_reranker(broken, make_sample(), self.passages)


class TestPipelineBranches:
    def judgment_calls(self, backend):
        return [c for c in backend.calls if c.allowed == frozenset(RELEVANCE_TOKENS)]

    def test_noret_branch_never_judges(self):
        results = suite.run_all()
        for scenario, trace, backend in results:
            if trace.decision.token is ReflectiveToken.NORET:
                assert not self.judgment_calls(backend), scenario.name
                assert trace.hits == () and trace.candidates == ()
                assert trace.judgments == () and trace.selected == ()

    def test_selection_soundness(self):
        for scenario, trace, _ in suite.run_all():
            candidate_keys = {p.key for p in trace.candidates}
            for p in trace.selected:
                assert p.key in candidate_keys, scenario.name

    def test_answer_prompt_contains_exactly_selected_passages(self):
        kb = suite.build_kb()
        index = build_index(kb, RetrievalMode.VISUAL)
        scenario = suite.scenarios()[1]  # s02: exactly one REL passage
        trace, backend = suite.run_scenario(kb, index, scenario, "probe")
        assert len(trace.selected) == 1
        expected = build_prompt(
            PromptStage.ANSWER_WITH_PASSAGES,
            scenario.question,
            "img-probe",
            [p.text for p in trace.selected],
        )
        assert any(
            c.fingerprint == prompt_fingerprint(expected) and c.allowed is None
            for c in backend.calls
        )

    def test_forced_decision_still_executes_decision_call(self):
        for scenario, trace, backend in suite.run_all():
            decision_calls = [
                c for c in backend.calls if c.allowed == frozenset(DECISION_TOKENS)
            ]
            assert len(decision_calls) == 1, scenario.name
            if scenario.config.force_decision is not None:
                expected = (
                    ReflectiveToken.RET
                    if scenario.config.force_decision is ForcedDecision.ALWAYS_RET
                    else ReflectiveToken.NORET
                )
                assert trace.decision.token is expected

    def test_scenario_checks(self):
        for scenario, trace, _ in suite.run_all():
            d = trace_to_dict(trace, include_timings=False)
            checks = scenario.checks
            if "decision" in checks:
                assert d["decision"]["token"] == checks["decision"], scenario.name
            if "forced" in checks:
                assert d["forced"] == checks["forced"], scenario.name
            if "selected" in checks:
                assert d["selected"] == checks["selected"], scenario.name
            if "selected_len" in checks:
                assert len(d["selected"]) == checks["selected_len"], scenario.name
            if "candidates" in checks:
                assert d["candidates"] == checks["candidates"], scenario.name
            if "fallback" in checks:
                assert d["fallback"] == checks["fallback"], scenario.name
            if "judgments" in checks:
                assert len(d["judgments"]) == checks["judgments"], scenario.name
            if "judge_failures" in checks:
                assert d["judge_failures"] == checks["judge_failures"], scenario.name
            if "hits" in checks:
                assert len(d["hits"]) == checks["hits"], scenario.name
            if "answer" in checks:
                assert d["answer"] == checks["answer"], scenario.name

    def test_ranking_is_shift_invariant_end_to_end(self):
        # scaling every judgment probability by a constant leaves builtin
        # re-ranking untouched because the score is a logprob difference
        kb = suite.build_kb()
        index = build_index(kb, RetrievalMode.VISUAL)
        scenario = suite.scenarios()[3]  # s04 builtin k_p=1
        base_trace, _ = suite.run_scenario(kb, index, scenario, "shift0")
        shifted = suite.Scenario(
            name=scenario.name,
            question=scenario.question,
            docs=scenario.docs,
            config=scenario.config,
            scripts=[
                suite.Script(
                    match=s.match,
                    allowed=s.allowed,
                    tokens=s.tokens,
                    candidates=None
                    if s.candidates is None
                    else tuple(
                        {k: v - 0.625 for k, v in c.items()} for c in s.candidates
                    ),
                )
                for s in scenario.scripts
            ],
        )
        shifted_trace, _ = suite.run_scenario(kb, index, shifted, "shift0")
        assert [p.key for p in shifted_trace.selected] == [
            p.key for p in base_trace.selected
        ]


pipeline_configs = st.builds(
    PipelineConfig,
    top_k_docs=st.integers(1, 50),
    rerank=st.none() | st.builds(
        RerankConfig, st.sampled_from(RerankStrategy), st.integers(1, 20)
    ),
    selection=st.sampled_from(SelectionMode),
    random_passages_per_doc=st.integers(1, 5),
    external_scorer_top=st.integers(1, 5),
    max_relevant=st.none() | st.integers(1, 10),
    force_decision=st.none() | st.sampled_from(ForcedDecision),
    seed=st.integers(-(2**31), 2**31),
)


class TestConfigDict:
    @given(pipeline_configs)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, config):
        assert dataclass_from_dict(PipelineConfig, config.to_dict()) == config

    def test_missing_keys_take_defaults_and_values_are_coerced(self):
        assert dataclass_from_dict(PipelineConfig, {}) == PipelineConfig()
        config = dataclass_from_dict(PipelineConfig, {
            "top_k_docs": "3",
            "max_relevant": "2",
            "rerank": {"strategy": "external", "top_passages": "4"},
            "force_decision": "always_ret",
            "unknown": 1,
        })
        assert config == PipelineConfig(
            top_k_docs=3,
            max_relevant=2,
            rerank=RerankConfig(RerankStrategy.EXTERNAL, 4),
            force_decision=ForcedDecision.ALWAYS_RET,
        )

    @pytest.mark.parametrize("obj", [
        {"top_k_docs": None},
        {"selection": "bogus"},
        {"max_relevant": [2]},
        {"rerank": {"strategy": "builtin"}},
        {"rerank": "builtin"},
    ])
    def test_bad_values_name_the_field(self, obj):
        with pytest.raises(ValueError, match=next(iter(obj))):
            dataclass_from_dict(PipelineConfig, obj)


class TestConfigurationErrors:
    def test_bad_config_values(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(top_k_docs=0)
        with pytest.raises(ConfigurationError):
            RerankConfig(RerankStrategy.BUILTIN, 0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(max_relevant=0)
        for value in (0, -1):
            with pytest.raises(ConfigurationError, match="random_passages_per_doc"):
                PipelineConfig(random_passages_per_doc=value)
            with pytest.raises(ConfigurationError, match="external_scorer_top"):
                PipelineConfig(external_scorer_top=value)

    def test_ret_without_index_is_configuration_error(self):
        backend = scripted_decision("Q?", 0.9)
        engine = ReflectiveEngine(backend)
        with pytest.raises(ConfigurationError, match="index"):
            engine.run(make_sample(), PipelineConfig())

    def test_ret_without_embedding_is_configuration_error(self):
        kb = suite.build_kb()
        index = build_index(kb, RetrievalMode.VISUAL)
        backend = scripted_decision("Q?", 0.9)
        engine = ReflectiveEngine(backend, kb=kb, index=index)
        with pytest.raises(ConfigurationError, match="embedding"):
            engine.run(make_sample(embedding=None), PipelineConfig())

    def test_external_rerank_requires_reranker(self):
        kb = suite.build_kb()
        index = build_index(kb, RetrievalMode.VISUAL)
        backend = scripted_decision("Q?", 0.9)
        engine = ReflectiveEngine(backend, kb=kb, index=index, reranker=None)
        sample = make_sample(embedding=suite.query_embedding([("kbdoc-a", 1.0)]))
        config = PipelineConfig(rerank=RerankConfig(RerankStrategy.EXTERNAL, 2))
        with pytest.raises(ConfigurationError, match="reranker"):
            engine.run(sample, config)

    def test_external_scorer_requires_provider(self):
        kb = suite.build_kb()
        index = build_index(kb, RetrievalMode.VISUAL)
        backend = scripted_decision("Q?", 0.9)
        engine = ReflectiveEngine(backend, kb=kb, index=index, similarity_scorer=None)
        sample = make_sample(embedding=suite.query_embedding([("kbdoc-a", 1.0)]))
        with pytest.raises(ConfigurationError, match="scorer"):
            engine.run(
                sample, PipelineConfig(selection=SelectionMode.EXTERNAL_SCORER)
            )

    def test_oracle_unknown_gold_doc(self):
        kb = suite.build_kb()
        backend = scripted_decision("Q?", 0.9)
        engine = ReflectiveEngine(backend, kb=kb)
        with pytest.raises(LookupError):
            engine.run_oracle(make_sample(), "kbdoc-zz", PipelineConfig())

    def test_zero_section_candidates_is_pipeline_error(self):
        kb = suite.build_kb()
        index = build_index(kb, RetrievalMode.VISUAL)
        question = "Anything here? (zero)"
        backend = scripted_decision(question, 0.9)
        engine = ReflectiveEngine(backend, kb=kb, index=index)
        sample = QuerySample(
            id="zero",
            question=question,
            image_ref="img-zero",
            image_embedding=suite.query_embedding([("kbdoc-f", 1.0)]),
            gold_answers=("x",),
            gold_doc_id=None,
            dataset="test",
            split="test",
        )
        with pytest.raises(PipelineError, match="no candidate passages"):
            engine.run(sample, PipelineConfig(top_k_docs=1))


def test_trace_round_trip(tmp_path):
    traces = [trace for _, trace, _ in suite.run_all()]
    path = tmp_path / "traces.jsonl"
    write_traces(traces, path, include_timings=False)
    loaded = [json.loads(line) for line in path.read_text().splitlines()]
    assert loaded == [trace_to_dict(t, include_timings=False) for t in traces]


def test_no_traces_write_an_empty_file(tmp_path):
    path = write_traces([], tmp_path / "traces.jsonl")
    assert path.read_bytes() == b""


def reference_trace_dict(trace, include_timings):
    """The trace line's object, built field by field: the reference that
    ``trace_line`` is checked against."""
    def ref(p):
        return {"doc_id": p.doc_id, "section_index": p.section_index}

    out = {
        "sample_id": trace.sample_id,
        "decision": {
            "token": trace.decision.token.value,
            "logp_ret": trace.decision.logp_ret,
            "logp_noret": trace.decision.logp_noret,
        },
        "forced": trace.forced,
        "hits": [{"doc_id": h.doc_id, "score": h.score, "rank": h.rank} for h in trace.hits],
        "candidates": [ref(p) for p in trace.candidates],
        "judgments": [
            {**ref(j.passage), "token": j.token.value, "logp_rel": j.logp_rel,
             "logp_norel": j.logp_norel, "score": j.score}
            for j in trace.judgments
        ],
        "selected": [ref(p) for p in trace.selected],
        "answer": trace.answer,
        "fallback": trace.fallback,
        "judge_failures": trace.judge_failures,
        "config": trace.config,
    }
    if include_timings:
        out["timings"] = trace.timings
    return out


# Text with JSON's escapes, line separators, non-BMP characters and lone
# surrogates mixed into arbitrary code points.
awkward_text = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(
        ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600", "\ud800", "\udfff"]
    ),
    max_size=12,
)
numbers = st.floats() | st.integers(-(10**6), 10**6)  # floats: nan, inf, -0.0, subnormals
passages = st.builds(Passage, awkward_text, st.integers(0, 2**70), awkward_text)


@st.composite
def shared_traces(draw):
    """Traces that share a decision, hits, candidates, judgments and config
    objects, as one sample's configs do under the step memo."""
    pool = draw(st.lists(passages, max_size=4))
    relevance = st.sampled_from([ReflectiveToken.REL, ReflectiveToken.NOREL])
    judgments = [
        RelevanceJudgment(p, draw(relevance), draw(numbers), draw(numbers)) for p in pool
    ]
    decision = RetrievalDecision(
        draw(st.sampled_from([ReflectiveToken.RET, ReflectiveToken.NORET])),
        draw(numbers),
        draw(numbers),
    )
    hit = st.builds(RetrievalHit, awkward_text, numbers, st.integers())
    hits = tuple(draw(st.lists(hit, max_size=3)))
    config = draw(pipeline_configs)._trace_dict
    return [
        PipelineTrace(
            sample_id=draw(awkward_text),
            decision=draw(st.sampled_from([decision, dataclasses.replace(decision)])),
            forced=draw(st.booleans()),
            hits=draw(st.sampled_from([hits, ()])),
            candidates=tuple(pool),
            judgments=tuple(draw(st.lists(st.sampled_from(judgments), max_size=4)) if pool else ()),
            selected=tuple(draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else ()),
            answer=draw(awkward_text),
            fallback=draw(st.booleans()),
            judge_failures=draw(st.integers(0, 2**40)),
            timings=draw(st.dictionaries(awkward_text, numbers, max_size=3)),
            config=config,
        )
        for _ in range(draw(st.integers(1, 3)))
    ]


@given(shared_traces(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_trace_line_writes_the_reference_object(traces, include_timings):
    fragments: dict = {}
    for trace in traces:
        expected = json_line(reference_trace_dict(trace, include_timings))
        assert trace_line(trace, include_timings, fragments) == expected
        assert trace_line(trace, include_timings) == expected
        assert json_line(trace_to_dict(trace, include_timings)) == expected
        ref = reference_trace_dict(trace, include_timings)
        read = ("sample_id", "forced", "selected", "answer", "fallback", "judge_failures")
        assert _score_fields_of(trace) == {
            "decision": {"token": ref["decision"]["token"]}, **{k: ref[k] for k in read}
        }
