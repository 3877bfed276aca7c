"""Hand-authored protocol scenarios with fully scripted backends.

Twenty samples cover every branch of the reflective pipeline: direct
answers, mixed relevance judgments, the empty-selection fallback, built-in
re-ranking, oracle-document mode, the four inference ablation variants,
tie rules, clamping, zero-section documents, and judgment failures. Each
scenario pins hand-computed expectations, and the serialized traces are
byte-compared against checked-in goldens.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from reflectrag.backend import (
    GenerationResult,
    MockBackend,
    PromptMatcher,
    ScriptedResponse,
    match_all,
    match_passage_contains,
    match_user_text,
)
from reflectrag.engine import (
    ForcedDecision,
    PipelineConfig,
    PipelineTrace,
    ReflectiveEngine,
    RerankConfig,
    RerankStrategy,
    SelectionMode,
)
from reflectrag.index import DenseIndex, RetrievalMode, build_index
from reflectrag.kb import Document, KnowledgeBase, Passage, Section, SourceManifest
from reflectrag.prompts import PromptSegment, prompt_fingerprint
from reflectrag.samples import QuerySample
from reflectrag.similarity import LexicalOverlapScorer
from reflectrag.tokens import DECISION_TOKENS, RELEVANCE_TOKENS, ReflectiveToken

DIM = 8

_DOC_SPECS = [
    ("kbdoc-a", "Aster Bridge", [
        "Aster Bridge section zero covers the copper deck.",
        "Aster Bridge section one covers the stone piers.",
    ]),
    ("kbdoc-b", "Birch Hall", [
        "Birch Hall section zero describes the oak gallery.",
        "Birch Hall section one describes the winter garden.",
    ]),
    ("kbdoc-c", "Cedar Court", [
        "Cedar Court section zero lists the garden paths.",
        "Cedar Court section one lists the east wing.",
        "Cedar Court section two shows the marble fountain courtyard.",
    ]),
    ("kbdoc-d", "Derwent Mill", [
        "Derwent Mill section zero mentions the courtyard waterwheel.",
    ]),
    ("kbdoc-e", "Elm Abbey", [
        "Elm Abbey section zero recounts the founding charter.",
        "Elm Abbey section one recounts the cloister rebuild.",
        "Elm Abbey section two recounts the bell tower.",
        "Elm Abbey section three recounts the scriptorium.",
    ]),
    ("kbdoc-f", "Fallow Barn", []),
    ("kbdoc-g", "Garnet Keep", [
        "Garnet Keep section zero surveys the outer wall.",
        "Garnet Keep section one surveys the great hall.",
    ]),
    ("kbdoc-h", "Hazel Grange", [
        "Hazel Grange section zero records the orchard rows.",
        "Hazel Grange section one records the tithe barn.",
    ]),
]

_DOC_INDEX = {doc_id: i for i, (doc_id, _, _) in enumerate(_DOC_SPECS)}


def build_kb() -> KnowledgeBase:
    documents = {}
    for i, (doc_id, title, sections) in enumerate(_DOC_SPECS):
        emb = np.zeros(DIM, dtype=np.float32)
        emb[i] = 1.0
        documents[doc_id] = Document(
            id=doc_id,
            title=title,
            summary=f"{title}, a documented landmark.",
            sections=tuple(
                Section(title=f"Part {j}", text=text) for j, text in enumerate(sections)
            ),
            image_embedding=emb,
        )
    return KnowledgeBase(
        documents=documents,
        embedding_dim=DIM,
        source_manifest=SourceManifest(
            path="<protocol-suite>", count=len(documents), checksum="",
            embedding_storage="memory",
        ),
    )


def query_embedding(weighted_docs: Sequence[tuple[str, float]]) -> np.ndarray:
    vec = np.zeros(DIM, dtype=np.float64)
    for doc_id, weight in weighted_docs:
        vec[_DOC_INDEX[doc_id]] = weight
    return (vec / np.linalg.norm(vec)).astype(np.float32)


def dec(p_ret: float) -> dict[str, float]:
    return {
        ReflectiveToken.RET.value: math.log(p_ret),
        ReflectiveToken.NORET.value: math.log(1.0 - p_ret),
    }


def rel(p_rel: float) -> dict[str, float]:
    return {
        ReflectiveToken.REL.value: math.log(p_rel),
        ReflectiveToken.NOREL.value: math.log(1.0 - p_rel),
    }


class ReversingReranker:
    def rerank(self, question: str, passages: Sequence[Passage]) -> list[Passage]:
        return list(reversed(passages))


@dataclass
class Script:
    match: dict  # user_text / passage_contains
    allowed: frozenset[str] | None
    tokens: tuple[str, ...]
    candidates: tuple[dict[str, float], ...] | None = None


@dataclass
class Scenario:
    name: str
    question: str
    docs: Sequence[tuple[str, float]]
    config: PipelineConfig
    scripts: list[Script]
    oracle_doc: str | None = None
    gold_doc_id: str | None = None
    failures: list[Script] = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def sample(self, sample_id: str) -> QuerySample:
        return QuerySample(
            id=sample_id,
            question=self.question,
            image_ref=f"img-{sample_id}",
            image_embedding=query_embedding(self.docs) if self.docs else None,
            gold_answers=(f"answer-{self.name}",),
            gold_doc_id=self.gold_doc_id or self.oracle_doc,
            dataset="protocol-suite",
            split="test",
        )


def _matcher(match: dict) -> PromptMatcher:
    matchers = [match_user_text(match["user_text"])]
    if "passage_contains" in match:
        matchers.append(match_passage_contains(match["passage_contains"]))
    return match_all(*matchers)


def _decision(question: str, p_ret: float, emit: str) -> Script:
    return Script(
        match={"user_text": question},
        allowed=DECISION_TOKENS,
        tokens=(emit,),
        candidates=(dec(p_ret),),
    )


def _judgment(question: str, fragment: str, p_rel: float) -> Script:
    token = ReflectiveToken.REL if p_rel > 0.5 else ReflectiveToken.NOREL
    return Script(
        match={"user_text": question, "passage_contains": fragment},
        allowed=RELEVANCE_TOKENS,
        tokens=(token.value,),
        candidates=(rel(p_rel),),
    )


def _answer(question: str, text: str) -> Script:
    return Script(match={"user_text": question}, allowed=None, tokens=(text,))


def _ref(doc: str, section: int) -> dict:
    return {"doc_id": f"kbdoc-{doc}", "section_index": section}


def scenarios() -> list[Scenario]:
    out: list[Scenario] = []

    q = "What color is the car? (s01)"
    out.append(Scenario(
        name="s01-noret-direct",
        question=q,
        docs=[("kbdoc-a", 1.0)],
        config=PipelineConfig(top_k_docs=2),
        scripts=[_decision(q, 0.1, "<NORET>"), _answer(q, "Black")],
        checks={"decision": "<NORET>", "answer": "Black", "selected": [],
                "judgments": 0, "fallback": False},
    ))

    q = "Which deck does the bridge carry? (s02)"
    out.append(Scenario(
        name="s02-ret-mixed",
        question=q,
        docs=[("kbdoc-a", 1.0), ("kbdoc-b", 0.6)],
        config=PipelineConfig(top_k_docs=2),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Aster Bridge section zero", 0.20),
            _judgment(q, "Aster Bridge section one", 0.88),
            _judgment(q, "Birch Hall section zero", 0.25),
            _judgment(q, "Birch Hall section one", 0.30),
            _answer(q, "stone piers"),
        ],
        checks={"decision": "<RET>", "selected": [_ref("a", 1)], "judgments": 4,
                "fallback": False, "answer": "stone piers"},
    ))

    q = "Who rebuilt the gallery? (s03)"
    out.append(Scenario(
        name="s03-fallback",
        question=q,
        docs=[("kbdoc-a", 1.0), ("kbdoc-b", 0.6)],
        config=PipelineConfig(top_k_docs=2),
        scripts=[
            _decision(q, 0.85, "<RET>"),
            _judgment(q, "Aster Bridge section zero", 0.20),
            _judgment(q, "Aster Bridge section one", 0.35),
            _judgment(q, "Birch Hall section zero", 0.45),
            _judgment(q, "Birch Hall section one", 0.10),
            _answer(q, "uncertain"),
        ],
        checks={"decision": "<RET>", "selected": [_ref("b", 0)], "fallback": True,
                "judgments": 4},
    ))

    for name, k_p, expected in (
        ("s04-builtin-kp1", 1, [_ref("a", 1)]),
        ("s05-builtin-kp2", 2, [_ref("a", 1), _ref("a", 0)]),
    ):
        q = f"How tall are the piers? ({name})"
        out.append(Scenario(
            name=name,
            question=q,
            docs=[("kbdoc-a", 1.0), ("kbdoc-b", 0.6)],
            config=PipelineConfig(
                top_k_docs=2,
                rerank=RerankConfig(RerankStrategy.BUILTIN, k_p),
            ),
            scripts=[
                _decision(q, 0.9, "<RET>"),
                _judgment(q, "Aster Bridge section zero", 0.70),
                _judgment(q, "Aster Bridge section one", 0.95),
                _judgment(q, "Birch Hall section zero", 0.60),
                _judgment(q, "Birch Hall section one", 0.10),
                _answer(q, f"ranked context {k_p}"),
            ],
            checks={"decision": "<RET>", "selected": expected, "judgments": 4,
                    "fallback": False},
        ))

    q = "When was the cloister rebuilt? (s06)"
    out.append(Scenario(
        name="s06-oracle-mixed",
        question=q,
        docs=[],
        oracle_doc="kbdoc-e",
        config=PipelineConfig(top_k_docs=2),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Elm Abbey section zero", 0.30),
            _judgment(q, "Elm Abbey section one", 0.80),
            _judgment(q, "Elm Abbey section two", 0.40),
            _judgment(q, "Elm Abbey section three", 0.75),
            _answer(q, "in the cloister rebuild"),
        ],
        checks={"decision": "<RET>", "judgments": 4, "hits": 0,
                "selected": [_ref("e", 1), _ref("e", 3)], "fallback": False},
    ))

    q = "Where was the charter signed? (s07)"
    out.append(Scenario(
        name="s07-oracle-fallback",
        question=q,
        docs=[],
        oracle_doc="kbdoc-e",
        config=PipelineConfig(top_k_docs=2),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Elm Abbey section zero", 0.20),
            _judgment(q, "Elm Abbey section one", 0.45),
            _judgment(q, "Elm Abbey section two", 0.49),
            _judgment(q, "Elm Abbey section three", 0.30),
            _answer(q, "not recorded"),
        ],
        checks={"decision": "<RET>", "selected": [_ref("e", 2)], "fallback": True},
    ))

    q = "What covers the copper deck? (s08)"
    out.append(Scenario(
        name="s08-always-ret",
        question=q,
        docs=[("kbdoc-a", 1.0)],
        config=PipelineConfig(top_k_docs=1, force_decision=ForcedDecision.ALWAYS_RET),
        scripts=[
            _decision(q, 0.2, "<NORET>"),  # raw argmax says NORET; override wins
            _judgment(q, "Aster Bridge section zero", 0.90),
            _judgment(q, "Aster Bridge section one", 0.20),
            _answer(q, "weathered copper"),
        ],
        checks={"decision": "<RET>", "forced": True, "selected": [_ref("a", 0)],
                "judgments": 2},
    ))

    q = "Where is the marble fountain courtyard? (s09)"
    out.append(Scenario(
        name="s09-external-scorer",
        question=q,
        docs=[("kbdoc-c", 1.0), ("kbdoc-d", 0.6)],
        config=PipelineConfig(top_k_docs=2, selection=SelectionMode.EXTERNAL_SCORER),
        scripts=[_decision(q, 0.9, "<RET>"), _answer(q, "in Cedar Court")],
        checks={"decision": "<RET>", "selected": [_ref("c", 2), _ref("d", 0)],
                "judgments": 0},
    ))

    q = "What do the records say about this site? (s10)"
    out.append(Scenario(
        name="s10-random-passages",
        question=q,
        docs=[("kbdoc-a", 1.0), ("kbdoc-b", 0.9), ("kbdoc-c", 0.8),
              ("kbdoc-d", 0.7), ("kbdoc-e", 0.6)],
        config=PipelineConfig(top_k_docs=5, selection=SelectionMode.RANDOM_PER_DOC),
        scripts=[_decision(q, 0.9, "<RET>"), _answer(q, "varied records")],
        checks={"decision": "<RET>", "judgments": 0, "selected_len": 9},
    ))

    q = "Name the tallest tower you know. (s11)"
    out.append(Scenario(
        name="s11-no-kb",
        question=q,
        docs=[("kbdoc-a", 1.0)],
        config=PipelineConfig(top_k_docs=2, force_decision=ForcedDecision.ALWAYS_NORET),
        scripts=[
            _decision(q, 0.8, "<RET>"),  # raw argmax says RET; override wins
            _answer(q, "no knowledge base consulted"),
        ],
        checks={"decision": "<NORET>", "forced": True, "selected": [],
                "judgments": 0, "hits": 0},
    ))

    q = "Which halls survey the wall? (s12)"
    out.append(Scenario(
        name="s12-multi-rel",
        question=q,
        docs=[("kbdoc-g", 1.0), ("kbdoc-h", 0.6)],
        config=PipelineConfig(top_k_docs=2),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Garnet Keep section zero", 0.80),
            _judgment(q, "Garnet Keep section one", 0.20),
            _judgment(q, "Hazel Grange section zero", 0.90),
            _judgment(q, "Hazel Grange section one", 0.70),
            _answer(q, "keep and grange"),
        ],
        checks={"selected": [_ref("g", 0), _ref("h", 0), _ref("h", 1)],
                "judgments": 4},
    ))

    q = "Which single hall matters most? (s13)"
    out.append(Scenario(
        name="s13-max-relevant",
        question=q,
        docs=[("kbdoc-g", 1.0), ("kbdoc-h", 0.6)],
        config=PipelineConfig(top_k_docs=2, max_relevant=1),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Garnet Keep section zero", 0.80),
            _judgment(q, "Garnet Keep section one", 0.20),
            _judgment(q, "Hazel Grange section zero", 0.90),
            _judgment(q, "Hazel Grange section one", 0.70),
            _answer(q, "the orchard rows"),
        ],
        checks={"selected": [_ref("h", 0)], "judgments": 4},
    ))

    q = "What grows in the winter garden? (s14)"
    out.append(Scenario(
        name="s14-external-rerank",
        question=q,
        docs=[("kbdoc-a", 1.0), ("kbdoc-b", 0.6)],
        config=PipelineConfig(
            top_k_docs=2, rerank=RerankConfig(RerankStrategy.EXTERNAL, 2)
        ),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Birch Hall section one", 0.15),
            _judgment(q, "Birch Hall section zero", 0.85),
            _answer(q, "evergreens"),
        ],
        checks={"candidates": [_ref("b", 1), _ref("b", 0)],
                "selected": [_ref("b", 0)], "judgments": 2},
    ))

    q = "Is the outer wall intact? (s15)"
    out.append(Scenario(
        name="s15-judgment-tie",
        question=q,
        docs=[("kbdoc-g", 1.0)],
        config=PipelineConfig(top_k_docs=1),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Garnet Keep section zero", 0.50),  # tie -> NOREL
            _judgment(q, "Garnet Keep section one", 0.75),
            _answer(q, "mostly intact"),
        ],
        checks={"selected": [_ref("g", 1)], "judgments": 2, "fallback": False},
    ))

    q = "Does this need a lookup? (s16)"
    out.append(Scenario(
        name="s16-decision-tie",
        question=q,
        docs=[("kbdoc-a", 1.0)],
        config=PipelineConfig(top_k_docs=2),
        scripts=[_decision(q, 0.5, "<NORET>"), _answer(q, "no lookup needed")],
        checks={"decision": "<NORET>", "selected": [], "judgments": 0},
    ))

    q = "Summarize everything known. (s17)"
    out.append(Scenario(
        name="s17-k-clamp",
        question=q,
        docs=[("kbdoc-a", 1.0), ("kbdoc-b", 0.9), ("kbdoc-c", 0.8),
              ("kbdoc-d", 0.7), ("kbdoc-e", 0.6), ("kbdoc-f", 0.5),
              ("kbdoc-g", 0.4), ("kbdoc-h", 0.3)],
        config=PipelineConfig(top_k_docs=10, selection=SelectionMode.RANDOM_PER_DOC),
        scripts=[_decision(q, 0.9, "<RET>"), _answer(q, "a broad summary")],
        checks={"hits": 8, "judgments": 0},
    ))

    q = "What stands by the barn? (s18)"
    out.append(Scenario(
        name="s18-zero-section-doc",
        question=q,
        docs=[("kbdoc-f", 1.0), ("kbdoc-a", 0.6)],
        config=PipelineConfig(top_k_docs=2),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Aster Bridge section zero", 0.85),
            _judgment(q, "Aster Bridge section one", 0.20),
            _answer(q, "the copper deck"),
        ],
        checks={"hits": 2, "candidates": [_ref("a", 0), _ref("a", 1)],
                "selected": [_ref("a", 0)], "judgments": 2},
    ))

    q = "Describe the oak gallery. (s19)"
    out.append(Scenario(
        name="s19-judge-failure",
        question=q,
        docs=[("kbdoc-b", 1.0)],
        config=PipelineConfig(top_k_docs=1),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Birch Hall section one", 0.80),
            _answer(q, "carved oak"),
        ],
        failures=[Script(
            match={"user_text": q, "passage_contains": "Birch Hall section zero"},
            allowed=RELEVANCE_TOKENS,
            tokens=(),
        )],
        checks={"judgments": 1, "judge_failures": 1, "selected": [_ref("b", 1)]},
    ))

    q = "Which section rings the bell? (s20)"
    out.append(Scenario(
        name="s20-oracle-builtin",
        question=q,
        docs=[],
        oracle_doc="kbdoc-e",
        config=PipelineConfig(
            top_k_docs=2, rerank=RerankConfig(RerankStrategy.BUILTIN, 1)
        ),
        scripts=[
            _decision(q, 0.9, "<RET>"),
            _judgment(q, "Elm Abbey section zero", 0.30),
            _judgment(q, "Elm Abbey section one", 0.60),
            _judgment(q, "Elm Abbey section two", 0.90),
            _judgment(q, "Elm Abbey section three", 0.50),
            _answer(q, "the bell tower"),
        ],
        checks={"selected": [_ref("e", 2)], "judgments": 4},
    ))

    return out


@dataclass(frozen=True)
class CallRecord:
    fingerprint: str
    allowed: frozenset[str] | None


class RecordingMockBackend(MockBackend):
    """A :class:`MockBackend` that logs every step it is asked, in ``calls``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[CallRecord] = []

    def constrained_generate(
        self,
        prompt: Sequence[PromptSegment],
        allowed: Iterable[str] | None = None,
        max_tokens: int | None = None,
    ) -> GenerationResult:
        allowed = None if allowed is None else frozenset(allowed)
        self.calls.append(CallRecord(prompt_fingerprint(prompt), allowed))
        return super().constrained_generate(prompt, allowed, max_tokens)


def build_backend(scenario: Scenario) -> RecordingMockBackend:
    backend = RecordingMockBackend()
    for script in scenario.failures:
        backend.register_failure(
            _matcher(script.match), "injected judgment failure", script.allowed
        )
    for script in scenario.scripts:
        backend.register_script(
            _matcher(script.match),
            ScriptedResponse(tokens=script.tokens, candidates=script.candidates),
            allowed=script.allowed,
        )
    return backend


def run_scenario(
    kb: KnowledgeBase, index: DenseIndex, scenario: Scenario, sample_id: str
) -> tuple[PipelineTrace, RecordingMockBackend]:
    backend = build_backend(scenario)
    engine = ReflectiveEngine(
        backend,
        kb=kb,
        index=index,
        similarity_scorer=LexicalOverlapScorer(),
        reranker=ReversingReranker(),
    )
    sample = scenario.sample(sample_id)
    if scenario.oracle_doc is not None:
        trace = engine.run_oracle(sample, scenario.oracle_doc, scenario.config)
    else:
        trace = engine.run(sample, scenario.config)
    return trace, backend


def run_all() -> list[tuple[Scenario, PipelineTrace, RecordingMockBackend]]:
    kb = build_kb()
    index = build_index(kb, RetrievalMode.VISUAL)
    out = []
    for i, scenario in enumerate(scenarios()):
        trace, backend = run_scenario(kb, index, scenario, f"ps{i + 1:02d}")
        out.append((scenario, trace, backend))
    return out
