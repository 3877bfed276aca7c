"""Three-phase reflective generation: retrieve-or-not, per-passage relevance,
answer.

One run is sequential (each phase depends on the previous); distinct samples
can run concurrently because the engine holds no mutable state, apart from
the step memo of a copy made for one sample. Every run
returns a full :class:`PipelineTrace` so evaluation and debugging never need
to re-execute the backend.
"""
from __future__ import annotations

import copy
import json
import logging
import random
import threading
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Protocol, Sequence

from collections import Counter

from ._http import ServiceClient
from .backend import (
    BackendError,
    GenerationResult,
    GenerativeBackend,
    ProtocolViolationError,
    generate_each,
)
from .index import DenseIndex, RetrievalHit, candidate_passages, search, search_batch
from .kb import KnowledgeBase, Passage, passages_of
from .prompts import PromptSegment, PromptStage, build_prompt as build_prompt_segments
from .samples import QuerySample
from .similarity import TextSimilarityScorer
from .tokens import DECISION_TOKENS, RELEVANCE_TOKENS, ReflectiveToken
from .util import atomic_write_bytes, dataclass_to_dict, json_line

logger = logging.getLogger(__name__)


class ConfigurationError(Exception):
    pass


class PipelineError(Exception):
    pass


class RerankerError(Exception):
    pass


class ForcedDecision(str, Enum):
    ALWAYS_RET = "always_ret"
    ALWAYS_NORET = "always_noret"


class SelectionMode(str, Enum):
    REFLECTIVE = "reflective"          # judge every candidate with REL/NOREL
    EXTERNAL_SCORER = "external_scorer"  # top passages by text similarity, no judging
    RANDOM_PER_DOC = "random_per_doc"    # seeded random passages per document


class RerankStrategy(str, Enum):
    BUILTIN = "builtin"    # order by logp(REL) - logp(NOREL) from judgments
    EXTERNAL = "external"  # dedicated reranker service reorders candidates


@dataclass(frozen=True)
class RerankConfig:
    strategy: RerankStrategy
    top_passages: int  # how many passages survive re-ranking

    def __post_init__(self):
        if self.top_passages < 1:
            raise ConfigurationError("rerank top_passages must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that varies between runs, ablations included.

    All inference-time ablation variants are reachable through this config
    alone: forced decisions, built-in or external re-ranking, similarity-
    scored or random passage selection.
    """

    top_k_docs: int = 5
    rerank: RerankConfig | None = None
    selection: SelectionMode = SelectionMode.REFLECTIVE
    random_passages_per_doc: int = 2
    external_scorer_top: int = 2
    max_relevant: int | None = None
    force_decision: ForcedDecision | None = None
    seed: int = 0

    def __post_init__(self):
        if self.top_k_docs < 1:
            raise ConfigurationError("top_k_docs must be >= 1")
        if self.max_relevant is not None and self.max_relevant < 1:
            raise ConfigurationError("max_relevant must be >= 1 when set")
        if self.random_passages_per_doc < 1:
            raise ConfigurationError("random_passages_per_doc must be >= 1")
        if self.external_scorer_top < 1:
            raise ConfigurationError("external_scorer_top must be >= 1")

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)

    @cached_property
    def _trace_dict(self) -> dict:
        """:meth:`to_dict`, made once per config and shared by every trace
        of it, so it must not be modified."""
        return self.to_dict()


@dataclass(frozen=True)
class RetrievalDecision:
    """Outcome of the single constrained RET/NORET step (argmax of the two)."""

    token: ReflectiveToken
    logp_ret: float
    logp_noret: float


@dataclass(frozen=True)
class RelevanceJudgment:
    passage: Passage
    token: ReflectiveToken
    logp_rel: float
    logp_norel: float

    @property
    def score(self) -> float:
        return self.logp_rel - self.logp_norel


@dataclass(frozen=True)
class PipelineTrace:
    """Full record of one protocol run.

    ``decision`` is the decision the pipeline acted on; when a forced
    override flipped the raw argmax outcome, ``forced`` is True and the
    log-probabilities still come from the executed constrained call.
    """

    sample_id: str
    decision: RetrievalDecision
    forced: bool
    hits: tuple[RetrievalHit, ...]
    candidates: tuple[Passage, ...]
    judgments: tuple[RelevanceJudgment, ...]
    selected: tuple[Passage, ...]
    answer: str
    fallback: bool
    judge_failures: int
    timings: dict[str, float]
    config: dict


class PassageReranker(Protocol):
    def rerank(self, question: str, passages: Sequence[Passage]) -> Sequence[Passage]: ...


class RemotePassageReranker:
    """Adapter to an external re-ranking service (POST /v1/rerank).

    Request ``{"question": str, "passages": [{"doc_id","section_index","text"}]}``;
    response ``{"order": [int, ...]}``, a permutation of input positions.
    """

    def __init__(self, client: ServiceClient):
        self.client = client

    def rerank(self, question: str, passages: Sequence[Passage]) -> Sequence[Passage]:
        request = {
            "question": question,
            "passages": [
                {"doc_id": p.doc_id, "section_index": p.section_index, "text": p.text}
                for p in passages
            ],
        }
        body = self.client.post("/v1/rerank", json.dumps(request).encode())
        order = body.get("order")
        if not (
            isinstance(order, list)
            and all(type(i) is int for i in order)
            and sorted(order) == list(range(len(passages)))
        ):
            raise RerankerError(
                f"reranker order {order!r} is not a permutation of range({len(passages)})"
            )
        return [passages[i] for i in order]


# --------------------------------------------------------------------------
# Protocol steps
# --------------------------------------------------------------------------


def _read_reflection(
    result: GenerationResult, stage: str, yes: ReflectiveToken, no: ReflectiveToken
) -> tuple[ReflectiveToken, float, float]:
    """(token, logp(yes), logp(no)) of one constrained step over {yes, no}.
    The token is ``yes`` iff logp(yes) > logp(no), so a tie goes to ``no``."""
    cands = result.candidate_logprobs[0]
    try:
        logp_yes, logp_no = cands[yes], cands[no]  # a member hashes as its str
    except KeyError as exc:
        raise ProtocolViolationError(
            f"{stage} step must report logprobs for both {stage} tokens: "
            f"{exc.args[0].value!r}"
        ) from exc
    return (yes if logp_yes > logp_no else no), logp_yes, logp_no


def decide_retrieval(
    backend: GenerativeBackend, sample: QuerySample, memo: dict | None = None
) -> RetrievalDecision:
    """One constrained step over {<RET>, <NORET>}; both logprobs recorded.
    A tie resolves to NORET. ``memo`` is a sample's step memo
    (:meth:`ReflectiveEngine.with_step_memo`)."""
    key = (PromptStage.DECISION, None)
    if memo is not None and key in memo:
        return memo[key]
    prompt = build_prompt_segments(PromptStage.DECISION, sample.question, sample.image_ref)
    result = backend.constrained_generate(prompt, allowed=DECISION_TOKENS, max_tokens=1)
    token, logp_ret, logp_noret = _read_reflection(
        result, "decision", ReflectiveToken.RET, ReflectiveToken.NORET
    )
    decision = RetrievalDecision(token=token, logp_ret=logp_ret, logp_noret=logp_noret)
    if memo is not None:
        memo[key] = decision
    return decision


def _judgment_prompt(sample: QuerySample, passage: Passage) -> list[PromptSegment]:
    return build_prompt_segments(
        PromptStage.JUDGMENT, sample.question, sample.image_ref, [passage.text]
    )


def _read_judgment(passage: Passage, result: GenerationResult) -> RelevanceJudgment:
    token, logp_rel, logp_norel = _read_reflection(
        result, "relevance", ReflectiveToken.REL, ReflectiveToken.NOREL
    )
    return RelevanceJudgment(
        passage=passage, token=token, logp_rel=logp_rel, logp_norel=logp_norel
    )


def judge_passage(
    backend: GenerativeBackend, sample: QuerySample, passage: Passage
) -> RelevanceJudgment:
    """One constrained step over {<REL>, <NOREL>} for a single passage:
    REL iff the score logp(REL) - logp(NOREL) > 0, ties to NOREL."""
    result = backend.constrained_generate(
        _judgment_prompt(sample, passage), allowed=RELEVANCE_TOKENS, max_tokens=1
    )
    return _read_judgment(passage, result)


def judge_passages(
    backend: GenerativeBackend,
    sample: QuerySample,
    passages: Sequence[Passage],
    memo: dict | None = None,
) -> tuple[list[RelevanceJudgment], int]:
    """Judge each passage as :func:`judge_passage` does; returns (judgments,
    failures). The steps that ``memo`` cannot answer go to
    :func:`generate_each` together, so a remote backend pipelines them. A
    passage whose judgment raises :class:`BackendError` is logged, left out
    and counted; any other error is raised. The engine's selection and
    stage-2 mining both judge here."""
    known = {} if memo is None else memo
    keys = [(PromptStage.JUDGMENT, p.key) for p in passages]
    remembered = [known.get(key) for key in keys]
    results = iter(generate_each(
        backend,
        [_judgment_prompt(sample, p) for p, j in zip(passages, remembered) if j is None],
        RELEVANCE_TOKENS,
        1,
    ))
    judgments: list[RelevanceJudgment] = []
    failures = 0
    for passage, key, judgment in zip(passages, keys, remembered):
        if judgment is None:
            result = next(results)
            try:
                if isinstance(result, BackendError):
                    raise result
                judgment = known[key] = _read_judgment(passage, result)
            except BackendError as exc:
                failures += 1
                logger.warning("judgment failed for %s (%s); passage skipped", passage.key, exc)
                continue
        judgments.append(judgment)
    return judgments, failures


def rank_by_relevance(
    judgments: Sequence[RelevanceJudgment], top_passages: int
) -> list[Passage]:
    """Passages by descending logp(REL) - logp(NOREL), ignoring the tokens.

    Stable: equal scores keep the original candidate order. Returns the first
    min(top_passages, n).
    """
    if not judgments:
        raise ValueError("judgments must be non-empty")
    if top_passages < 1:
        raise ValueError("top_passages must be >= 1")
    return [j.passage for j in sorted(judgments, key=lambda j: -j.score)[:top_passages]]


def apply_external_reranker(
    reranker: PassageReranker,
    sample: QuerySample,
    candidates: Sequence[Passage],
) -> list[Passage]:
    """Reorder candidates through an external service.

    The service may only permute: a changed passage multiset is an error.
    A service failure raises :class:`RerankerError`.
    """
    try:
        reordered = list(reranker.rerank(sample.question, candidates))
    except Exception as exc:
        raise RerankerError(f"reranker service failed: {exc}") from exc
    if Counter(p.key for p in reordered) != Counter(p.key for p in candidates):
        raise RerankerError("reranker changed passage multiset")
    return reordered


def _cap_relevant(
    selected: list[Passage], judgments: Sequence[RelevanceJudgment], cap: int
) -> list[Passage]:
    # Keep the highest-score passages but preserve candidate order among them.
    scores = {j.passage.key: j.score for j in judgments}
    keep = {p.key for p in sorted(selected, key=lambda p: -scores[p.key])[:cap]}
    return [p for p in selected if p.key in keep]


def _answer(
    backend: GenerativeBackend,
    sample: QuerySample,
    selected: Sequence[Passage] | None,
    memo: dict | None = None,
) -> str:
    if selected is None:
        key = (PromptStage.ANSWER_DIRECT, None)
    else:
        key = (PromptStage.ANSWER_WITH_PASSAGES, tuple(p.key for p in selected))
    if memo is not None and key in memo:
        return memo[key]
    texts = None if selected is None else [p.text for p in selected]
    prompt = build_prompt_segments(key[0], sample.question, sample.image_ref, texts)
    answer = backend.constrained_generate(prompt, allowed=None, max_tokens=None).text.strip()
    if memo is not None:
        memo[key] = answer
    return answer


class _HitTable:
    """Hits of a fixed set of samples, searched together per k on first use.

    The first lookup at a given k runs one :func:`search_batch` over every
    sample under a lock, on ``workers`` threads, so concurrent workers share
    that one burst instead of each calling BLAS per sample. Configs that
    retrieve the same k share its burst.
    """

    def __init__(self, index: DenseIndex, samples: Sequence[QuerySample], workers: int):
        self._index = index
        self._samples = samples
        self._workers = workers
        self._lock = threading.Lock()
        self._hits: dict[int, dict[QuerySample, list[RetrievalHit]]] = {}

    def get(self, sample: QuerySample, k: int) -> list[RetrievalHit] | None:
        with self._lock:
            hits = self._hits.get(k)
            if hits is None:
                vectors = [s.image_embedding for s in self._samples]
                hits = self._hits[k] = dict(zip(
                    self._samples, search_batch(self._index, vectors, k, self._workers)
                ))
        return hits.get(sample)


class ReflectiveEngine:
    """Wires a backend, a KB, an index, and optional providers together."""

    def __init__(
        self,
        backend: GenerativeBackend,
        kb: KnowledgeBase | None = None,
        index: DenseIndex | None = None,
        similarity_scorer: TextSimilarityScorer | None = None,
        reranker: PassageReranker | None = None,
    ):
        self.backend = backend
        self.kb = kb
        self.index = index
        self.similarity_scorer = similarity_scorer
        self.reranker = reranker
        self._hit_table: _HitTable | None = None
        self._memo: dict | None = None

    def with_batched_search(
        self, samples: Sequence[QuerySample], jobs: int = 1
    ) -> ReflectiveEngine:
        """A copy that searches every sample of ``samples`` that can retrieve
        in one batch per k, when the first of them retrieves at that k. The
        batch is shared among ``jobs`` threads.

        A sample can retrieve when the index and KB are loaded and its
        embedding has the index's dimension. Other samples still search one
        by one, and fail there as they would.
        """
        if self.index is None or self.kb is None:
            return self
        dim = (self.index.dim,)
        ready = [
            s for s in samples
            if s.image_embedding is not None and s.image_embedding.shape == dim
        ]
        if not ready:
            return self
        engine = copy.copy(self)
        engine._hit_table = _HitTable(self.index, ready, jobs)
        return engine

    def with_step_memo(self) -> ReflectiveEngine:
        """A copy that runs the configs of one sample and asks each of its
        steps once, when the backend declares ``deterministic = True``;
        otherwise this engine.

        The copy's memo answers a repeated step without building its prompt.
        It is keyed on what a step depends on beyond the sample: nothing for
        the decision, ``passage.key`` for a judgment, and for the answer the
        selected passage keys in order, or ``None`` when it answers directly.
        It also keeps the sample's hits and candidates per ``top_k_docs``, as
        tuples, so configs that retrieve the same k share them.
        These keys suffice because a prompt depends only on (stage, question,
        image_ref, passage texts), and within one knowledge base a passage key
        maps to one text. They leave the sample out, so a copy must run one
        sample only, from one thread. Only successes are stored: a step that
        failed is asked again.
        """
        if getattr(self.backend, "deterministic", False) is not True:
            return self
        engine = copy.copy(self)
        engine._memo = {}
        return engine

    # -- phases ------------------------------------------------------------

    def _retrieve(
        self, sample: QuerySample, config: PipelineConfig
    ) -> tuple[tuple[RetrievalHit, ...], tuple[Passage, ...]]:
        if self.index is None or self.kb is None:
            raise ConfigurationError(
                "retrieval decided but no index/knowledge base is configured"
            )
        if sample.image_embedding is None:
            raise ConfigurationError(
                f"sample {sample.id!r} has no image embedding to query with"
            )
        key = ("retrieve", config.top_k_docs)
        if self._memo is not None and key in self._memo:
            return self._memo[key]
        hits = None
        if self._hit_table is not None:
            hits = self._hit_table.get(sample, config.top_k_docs)
        if hits is None:
            hits = search(self.index, sample.image_embedding, config.top_k_docs)
        found = tuple(hits), tuple(candidate_passages(self.kb, hits, config.top_k_docs))
        if self._memo is not None:
            self._memo[key] = found
        return found

    def _select(
        self,
        sample: QuerySample,
        config: PipelineConfig,
        candidates: Sequence[Passage],
    ) -> tuple[list[RelevanceJudgment], list[Passage], bool, int]:
        """Returns (judgments, selected, fallback, judge_failures)."""
        if config.selection is SelectionMode.EXTERNAL_SCORER:
            if self.similarity_scorer is None:
                raise ConfigurationError(
                    "external-scorer selection requires a similarity scorer"
                )
            selected = sorted(
                candidates,
                key=lambda p: -self.similarity_scorer.score(sample.question, p.text),
            )[: config.external_scorer_top]
            return [], selected, False, 0

        if config.selection is SelectionMode.RANDOM_PER_DOC:
            rng = random.Random(f"{config.seed}:{sample.id}:random_passages")
            doc_order = list(dict.fromkeys(p.doc_id for p in candidates))
            selected = []
            for doc_id in doc_order:
                sections = [p for p in candidates if p.doc_id == doc_id]
                take = min(config.random_passages_per_doc, len(sections))
                chosen = rng.sample(sections, take)
                selected.extend(sorted(chosen, key=lambda p: p.section_index))
            return [], selected, False, 0

        judgments, failures = judge_passages(self.backend, sample, candidates, self._memo)
        if not judgments:
            raise PipelineError(
                f"sample {sample.id!r}: every candidate judgment failed"
            )

        if config.rerank is not None and config.rerank.strategy is RerankStrategy.BUILTIN:
            selected = rank_by_relevance(judgments, config.rerank.top_passages)
            return judgments, selected, False, failures

        selected = [j.passage for j in judgments if j.token is ReflectiveToken.REL]
        if config.max_relevant is not None and len(selected) > config.max_relevant:
            selected = _cap_relevant(selected, judgments, config.max_relevant)
        fallback = False
        if not selected:
            # Answering with zero context would silently degrade; use the
            # least-bad passage and flag the trace.
            selected = [max(judgments, key=lambda j: j.score).passage]
            fallback = True
        return judgments, selected, fallback, failures

    def _run(
        self,
        sample: QuerySample,
        config: PipelineConfig,
        oracle_doc_id: str | None = None,
    ) -> PipelineTrace:
        timings: dict[str, float] = {}
        started = time.perf_counter()

        t0 = time.perf_counter()
        decision = decide_retrieval(self.backend, sample, self._memo)
        timings["decide"] = time.perf_counter() - t0

        if oracle_doc_id is not None:
            effective = ReflectiveToken.RET
        elif config.force_decision is ForcedDecision.ALWAYS_RET:
            effective = ReflectiveToken.RET
        elif config.force_decision is ForcedDecision.ALWAYS_NORET:
            effective = ReflectiveToken.NORET
        else:
            effective = decision.token
        forced = effective is not decision.token
        # unforced, keep the memoized object: a sample's traces share its JSON
        acted = decision if not forced else RetrievalDecision(
            token=effective, logp_ret=decision.logp_ret, logp_noret=decision.logp_noret
        )

        # A NORET run answers directly, with no passages in its trace.
        hits, candidates, judgments, selected = (), (), (), None
        fallback, failures = False, 0
        if effective is ReflectiveToken.RET:
            t0 = time.perf_counter()
            if oracle_doc_id is not None:
                candidates = passages_of(self.kb, oracle_doc_id)
            else:
                hits, candidates = self._retrieve(sample, config)
            if config.rerank is not None and config.rerank.strategy is RerankStrategy.EXTERNAL:
                if self.reranker is None:
                    raise ConfigurationError("external re-ranking requires a reranker")
                candidates = apply_external_reranker(self.reranker, sample, candidates)[
                    : config.rerank.top_passages
                ]
            timings["retrieve"] = time.perf_counter() - t0
            if not candidates:
                raise PipelineError(
                    f"sample {sample.id!r}: retrieval produced no candidate passages"
                )

            t0 = time.perf_counter()
            judgments, selected, fallback, failures = self._select(
                sample, config, candidates
            )
            timings["judge"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        answer = _answer(self.backend, sample, selected, self._memo)
        timings["answer"] = time.perf_counter() - t0
        timings["total"] = time.perf_counter() - started

        return PipelineTrace(
            sample_id=sample.id,
            decision=acted,
            forced=forced,
            hits=tuple(hits),
            candidates=tuple(candidates),
            judgments=tuple(judgments),
            selected=tuple(selected or ()),
            answer=answer,
            fallback=fallback,
            judge_failures=failures,
            timings=timings,
            config=config._trace_dict,
        )

    def run(self, sample: QuerySample, config: PipelineConfig) -> PipelineTrace:
        return self._run(sample, config)

    def run_oracle(
        self, sample: QuerySample, gold_doc_id: str, config: PipelineConfig
    ) -> PipelineTrace:
        """Skip search: candidates are all passages of the gold document.

        The decision step still executes (its logprobs are recorded) but the
        retrieval branch is always taken; only passage selection and
        answering are exercised.
        """
        if self.kb is None:
            raise ConfigurationError("oracle mode requires a knowledge base")
        self.kb.document(gold_doc_id)  # raises LookupError for unknown ids
        return self._run(sample, config, oracle_doc_id=gold_doc_id)


# --------------------------------------------------------------------------
# Trace serialization (JSONL, one trace per line)
# --------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii


def _scalar(value) -> str:
    """``value`` as :func:`json_line` writes it; exact ints, finite floats
    (``x - x`` is NaN for inf and NaN), strs and bools without calling it."""
    kind = type(value)
    if (kind is float or kind is int) and value - value == 0:
        return repr(value)
    if kind is str:
        return _encode_str(value)
    if kind is bool:
        return "true" if value else "false"
    return json_line(value)


def _fragment(fragments: dict, part, encode) -> str:
    entry = fragments.get(id(part))
    if entry is None:
        entry = fragments[id(part)] = (part, encode(part))
    return entry[1]


def _ref_json(p: Passage) -> str:
    return f'{{"doc_id":{_scalar(p.doc_id)},"section_index":{_scalar(p.section_index)}}}'


def _decision_json(d: RetrievalDecision) -> str:
    return (
        f'{{"token":{_encode_str(d.token)},"logp_ret":{_scalar(d.logp_ret)},'
        f'"logp_noret":{_scalar(d.logp_noret)}}}'
    )


def _hits_json(hits: Sequence[RetrievalHit]) -> str:
    return "[" + ",".join(
        f'{{"doc_id":{_scalar(h.doc_id)},"score":{_scalar(h.score)},"rank":{_scalar(h.rank)}}}'
        for h in hits
    ) + "]"


def trace_line(
    trace: PipelineTrace, include_timings: bool = True, fragments: dict | None = None
) -> str:
    """The JSON line of one trace: its fields in order, as :func:`json_line`
    writes them, each passage as ``{"doc_id","section_index"}``, each
    judgment with its ``score``, and ``timings`` only when asked for.

    ``fragments`` maps ``id(part)`` to ``(part, JSON)`` for the decision,
    the hits and candidates tuples, each judgment and passage, and the
    config, so traces written with one table encode a shared part once.
    Holding the part keeps its id from reuse; no part may change meanwhile.
    The empty tuple, the one object that is two kinds of part, is ``[]``.
    """
    if fragments is None:
        fragments = {}

    def ref(p: Passage) -> str:
        return _fragment(fragments, p, _ref_json)

    def refs(passages: Sequence[Passage]) -> str:
        return "[" + ",".join(map(ref, passages)) + "]"

    def judgment(j: RelevanceJudgment) -> str:
        return (
            f'{ref(j.passage)[:-1]},"token":{_encode_str(j.token)},'
            f'"logp_rel":{_scalar(j.logp_rel)},"logp_norel":{_scalar(j.logp_norel)},'
            f'"score":{_scalar(j.score)}}}'
        )

    judgments = ",".join([_fragment(fragments, j, judgment) for j in trace.judgments])
    line = (
        f'{{"sample_id":{_scalar(trace.sample_id)},'
        f'"decision":{_fragment(fragments, trace.decision, _decision_json)},'
        f'"forced":{_scalar(trace.forced)},"hits":{_fragment(fragments, trace.hits, _hits_json)},'
        f'"candidates":{_fragment(fragments, trace.candidates, refs)},"judgments":[{judgments}],'
        f'"selected":{refs(trace.selected)},"answer":{_scalar(trace.answer)},'
        f'"fallback":{_scalar(trace.fallback)},"judge_failures":{_scalar(trace.judge_failures)},'
        f'"config":{_fragment(fragments, trace.config, json_line)}'
    )
    if include_timings:
        return f'{line},"timings":{json_line(trace.timings)}}}'
    return line + "}"


def trace_to_dict(trace: PipelineTrace, include_timings: bool = True) -> dict:
    """The object :func:`trace_line` writes."""
    return json.loads(trace_line(trace, include_timings))


def write_traces(
    traces: Sequence[PipelineTrace], path: str | Path, include_timings: bool = True
) -> Path:
    """One :func:`trace_line` per trace, the parts that traces share encoded
    once."""
    fragments: dict = {}
    text = "".join(trace_line(t, include_timings, fragments) + "\n" for t in traces)
    atomic_write_bytes(path, text.encode("utf-8"))
    return Path(path)

