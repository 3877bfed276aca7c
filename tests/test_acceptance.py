"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines inline.
"""
import functools
import json
import math
import random
import time

import numpy as np
import pytest

import protocol_suite
from stub_server import StubServer

from reflectrag.backend import (
    MockBackend,
    ProtocolViolationError,
    RemoteBackend,
    ServiceClient,
    check_backend_conformance,
)
from reflectrag.engine import (
    PipelineConfig,
    RelevanceJudgment,
    ReflectiveEngine,
    RerankerError,
    apply_external_reranker,
    rank_by_relevance,
    trace_to_dict,
)
from reflectrag.forge import (
    SequenceKind,
    build_stage1_dataset,
    build_stage2_dataset,
    save_sequences,
)
from reflectrag.harness import AblationName, evaluate_dataset, variant_config
from reflectrag.index import DenseIndex, RetrievalMode, build_index, recall_at_k, search
from reflectrag.kb import Passage, passages_of
from reflectrag.metrics import (
    infoseek_aggregate,
    relaxed_accuracy,
    token_f1_em,
    vqa_accuracy,
)
from reflectrag.prompts import PromptStage, build_prompt, segments_to_dicts
from reflectrag.samples import QuerySample
from reflectrag.similarity import LexicalOverlapScorer
from reflectrag.synth import RuleBackend, make_synthetic_suite
from reflectrag.tokens import DECISION_TOKENS, ReflectiveToken
from reflectrag.util import json_line


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "protocol oracle suite byte-identical to goldens")
def test_protocol_oracle_suite(golden_dir):
    started = time.perf_counter()
    results = protocol_suite.run_all()
    assert len(results) == 20

    # hand-computed expectations per scenario
    for scenario, trace, _ in results:
        d = trace_to_dict(trace, include_timings=False)
        for key, expected in scenario.checks.items():
            if key == "decision":
                assert d["decision"]["token"] == expected, scenario.name
            elif key == "selected":
                assert d["selected"] == expected, scenario.name
            elif key == "selected_len":
                assert len(d["selected"]) == expected, scenario.name
            elif key == "candidates":
                assert d["candidates"] == expected, scenario.name
            elif key == "judgments":
                assert len(d["judgments"]) == expected, scenario.name
            elif key == "hits":
                assert len(d["hits"]) == expected, scenario.name
            elif key in ("fallback", "forced", "judge_failures"):
                assert d[key] == expected, scenario.name
            elif key == "answer":
                assert d["answer"] == expected, scenario.name

    produced = "\n".join(
        json_line(trace_to_dict(trace, include_timings=False))
        for _, trace, _ in results
    ) + "\n"
    golden = (golden_dir / "golden_traces.jsonl").read_text()
    assert produced == golden
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"protocol suite took {elapsed:.1f}s"


@criterion(2, "retrieval matches exhaustive cosine oracle")
def test_retrieval_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    matrix = rng.standard_normal((1000, 32))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    index = DenseIndex(
        mode=RetrievalMode.VISUAL,
        dim=32,
        doc_ids=tuple(f"doc{i}" for i in range(1000)),
        matrix=matrix,
    )
    queries = rng.standard_normal((100, 32))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    for query in queries:
        scores = matrix @ query
        oracle = sorted(range(1000), key=lambda i: (-scores[i], i))
        for k in (1, 5, 20):
            hits = search(index, query, k)
            assert [h.doc_id for h in hits] == [f"doc{i}" for i in oracle[:k]]
            for hit, i in zip(hits, oracle):
                assert abs(hit.score - scores[i]) <= 1e-6
            assert [h.rank for h in hits] == list(range(1, k + 1))

    golds = [f"doc{int(rng.integers(0, 1000))}" for _ in range(100)]
    recall_queries = [(q, g) for q, g in zip(queries, golds)]
    report = recall_at_k(index, recall_queries, ks=[1, 5, 20, 100, 1000])
    values = [e.recall for e in report.entries]
    assert values == sorted(values)
    assert values[-1] == 1.0  # gold always within top-N
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"retrieval oracle check took {elapsed:.1f}s"


@criterion(3, "built-in re-ranking equals stable sort and is shift-invariant")
def test_builtin_reranking_correctness():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 12)
        judgments = []
        for i in range(n):
            # dyadic grid keeps additions exact, so shifts cannot reorder
            logp_rel = rng.randrange(-512, 0) / 64.0
            logp_norel = rng.randrange(-512, 0) / 64.0
            judgments.append(
                RelevanceJudgment(
                    passage=Passage("d", i, f"p{i}"),
                    token=ReflectiveToken.REL
                    if logp_rel > logp_norel
                    else ReflectiveToken.NOREL,
                    logp_rel=logp_rel,
                    logp_norel=logp_norel,
                )
            )
        k_p = rng.randint(1, n)
        ranked = rank_by_relevance(judgments, k_p)
        oracle = [
            pair[1].passage
            for pair in sorted(
                enumerate(judgments), key=lambda pair: (-pair[1].score, pair[0])
            )
        ]
        assert ranked == oracle[:k_p]

        shift = rng.randrange(-640, 640) / 64.0
        shifted = [
            RelevanceJudgment(
                passage=j.passage,
                token=j.token,
                logp_rel=j.logp_rel + shift,
                logp_norel=j.logp_norel + shift,
            )
            for j in judgments
        ]
        assert rank_by_relevance(shifted, k_p) == ranked


REFERENCE_AGGREGATE_ROWS = [
    # (unseen_q, unseen_e, expected_all) reference triples; pairs whose
    # expected aggregate cannot arise from any mean of the two are excluded
    (0.3, 0.0, 0.0),
    (1.5, 0.0, 0.0),
    (2.1, 0.0, 0.0),
    (7.3, 5.0, 5.9),
    (12.7, 12.3, 12.5),
    (8.9, 7.4, 8.1),
    (9.6, 9.4, 9.5),
    (15.0, 14.3, 14.6),
    (30.1, 27.8, 28.9),  # discriminating case: arithmetic would print 29.0
    (28.6, 25.7, 27.1),
    (34.5, 32.9, 33.7),
    (40.4, 39.8, 40.1),
    (28.6, 28.1, 28.3),
]


@criterion(4, "split aggregation reproduces reference table arithmetic")
def test_split_aggregation_reproduces_reference_values():
    for unseen_q, unseen_e, expected in REFERENCE_AGGREGATE_ROWS:
        aggregated = round(infoseek_aggregate(unseen_q, unseen_e), 1)
        assert abs(aggregated - expected) <= 0.05 + 1e-9, (
            unseen_q, unseen_e, aggregated, expected,
        )
    pinned = {(40.4, 39.8): 40.1, (34.5, 32.9): 33.7, (28.6, 28.1): 28.3,
              (30.1, 27.8): 28.9}
    for (a, b), expected in pinned.items():
        assert round(infoseek_aggregate(a, b), 1) == pytest.approx(expected)


@criterion(5, "metric unit fixtures match hand-computed values")
def test_metric_unit_fixtures():
    assert vqa_accuracy("Black", ["black"]) == 1
    assert vqa_accuracy("training ground", ["training home"]) == 0
    assert vqa_accuracy("16 to 49ft", ["16 to 49ft"]) == 1
    assert relaxed_accuracy("104", ["100"], rel_tol=0.05) == 1
    assert relaxed_accuracy("150", ["120"], rel_tol=0.05) == 0
    assert relaxed_accuracy("0", ["0"]) == 1
    assert relaxed_accuracy("0.01", ["0"]) == 0
    f1, em = token_f1_em("training ground", "training home")
    assert f1 == pytest.approx(0.5)
    assert em == 0
    assert token_f1_em("same", "same") == (1.0, 1)
    assert token_f1_em("alpha", "beta") == (0.0, 0)


@criterion(6, "data-forge invariants on a 200-sample corpus")
def test_data_forge_invariants(tmp_path):
    started = time.perf_counter()
    suite = make_synthetic_suite(
        num_docs=60,
        dim=32,
        num_fact_samples=200,
        num_noret_samples=50,
        num_miss_samples=10,
        seed=31,
    )
    kb = suite.kb
    index = build_index(kb, RetrievalMode.VISUAL)
    backend = RuleBackend(suite.answers_by_question, suite.direct_answers)
    fact_samples = [s for s in suite.samples if s.gold_doc_id is not None]
    noret_samples = [s for s in suite.samples if s.gold_doc_id is None]
    assert len(fact_samples) == 200

    # stage 1: every emitted group keeps >=1 positive and >=1 negative
    stage1 = build_stage1_dataset(fact_samples, kb)
    groups: dict[str, set[SequenceKind]] = {}
    for seq in stage1.sequences:
        groups.setdefault(seq.sample_id, set()).add(seq.kind)
    assert groups
    for sample_id, kinds in groups.items():
        assert SequenceKind.STAGE1_POS in kinds, sample_id
        assert SequenceKind.STAGE1_NEG in kinds, sample_id

    # stage 2: triplet doc-membership invariants hold for every mined sample
    stage2 = build_stage2_dataset(
        fact_samples, noret_samples, kb, index, backend, seed=31, jobs=4
    )
    gold_by_sample = {s.id: s.gold_doc_id for s in fact_samples}
    kinds_seen = set()
    for seq in stage2.sequences:
        kinds_seen.add(seq.kind)
        passage_blocks = [s for s in seq.segments if s.kind == "passage_block"]
        if seq.kind in (SequenceKind.POS_REL, SequenceKind.HARD_NOREL):
            gold_passages = {
                p.text for p in passages_of(kb, gold_by_sample[seq.sample_id])
            }
            assert passage_blocks[0].payload in gold_passages
        elif seq.kind is SequenceKind.SOFT_NOREL:
            gold_passages = {
                p.text for p in passages_of(kb, gold_by_sample[seq.sample_id])
            }
            assert passage_blocks[0].payload not in gold_passages
    assert kinds_seen == {
        SequenceKind.POS_REL,
        SequenceKind.HARD_NOREL,
        SequenceKind.SOFT_NOREL,
        SequenceKind.NORET,
    }

    # masks: false on image/question/passage, true on control tokens/answer
    for seq in list(stage1.sequences) + list(stage2.sequences):
        for segment, flag in zip(seq.segments, seq.loss_mask):
            expected = segment.kind in ("control_token", "answer_text")
            assert flag == expected

    # determinism: same seed -> byte-identical files
    for name in ("x", "y"):
        again = build_stage2_dataset(
            fact_samples, noret_samples, kb, index, backend, seed=31, jobs=2
        )
        save_sequences(again.sequences, tmp_path / f"stage2_{name}.jsonl")
        save_sequences(stage1.sequences, tmp_path / f"stage1_{name}.jsonl")
    assert (tmp_path / "stage2_x.jsonl").read_bytes() == (
        tmp_path / "stage2_y.jsonl"
    ).read_bytes()
    assert (tmp_path / "stage1_x.jsonl").read_bytes() == (
        tmp_path / "stage1_y.jsonl"
    ).read_bytes()

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"data-forge run took {elapsed:.1f}s"


@criterion(7, "prompt construction is bit-exact against goldens")
def test_prompt_bit_exactness(golden_dir, data_dir):
    decision = build_prompt(
        PromptStage.DECISION, "What color is the car?", "img-car-001"
    )
    golden = json.loads((golden_dir / "prompt_decision.json").read_text())
    assert segments_to_dicts(decision) == golden

    prunus = json.loads((data_dir / "plant_kb.jsonl").read_text().splitlines()[1])
    passage_text = prunus["sections"][0]["text"]
    with_passage = build_prompt(
        PromptStage.ANSWER_WITH_PASSAGES,
        "How big can this plant become?",
        "img-prunus-001",
        [passage_text],
    )
    golden = json.loads((golden_dir / "prompt_with_passage.json").read_text())
    assert segments_to_dicts(with_passage) == golden

    payloads = [s["payload"] for s in golden]
    assert payloads[0].startswith("You are a helpful language and vision assistant.")
    assert "Consider this paragraph:" in payloads
    assert "Give a short answer." in payloads


@criterion(8, "backend conformance and fault injection")
def test_backend_conformance_and_faults():
    check_backend_conformance(MockBackend())
    prompt = build_prompt(PromptStage.DECISION, "Q?", "img")
    surfaced = 0
    faults = 0

    # fault: server emits a token outside the allowed set
    faults += 1
    def violate(path, payload):
        return 200, {"tokens": ["<REL>"], "chosen_logprobs": [0.0],
                     "candidates": [{"<REL>": 0.0}]}

    with StubServer(violate) as server:
        backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
        try:
            backend.constrained_generate(prompt, DECISION_TOKENS, 1)
        except ProtocolViolationError:
            surfaced += 1

    # fault: malformed response body
    faults += 1
    with StubServer(lambda p, b: (200, {"tokens": ["x"]})) as server:
        backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
        try:
            backend.constrained_generate(prompt)
        except ProtocolViolationError:
            surfaced += 1

    # fault: candidate distribution grossly unnormalized
    faults += 1
    def unnormalized(path, payload):
        return 200, {"tokens": ["<RET>"], "chosen_logprobs": [0.0],
                     "candidates": [{"<RET>": 0.0, "<NORET>": 0.0}]}

    with StubServer(unnormalized) as server:
        backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
        try:
            backend.constrained_generate(prompt, DECISION_TOKENS, 1)
        except ProtocolViolationError:
            surfaced += 1

    # fault: reranker drops a passage
    faults += 1
    sample = QuerySample(
        id="s", question="q", image_ref="i", image_embedding=None,
        gold_answers=("a",), gold_doc_id=None, dataset="d", split="test",
    )
    passages = [Passage("d", i, f"p{i}") for i in range(4)]
    dropper = type("D", (), {"rerank": staticmethod(lambda q, p: list(p)[1:])})()
    try:
        apply_external_reranker(dropper, sample, passages)
    except RerankerError:
        surfaced += 1

    # fault: reranker substitutes a passage
    faults += 1
    swapper = type(
        "S",
        (),
        {"rerank": staticmethod(lambda q, p: list(p)[:-1] + [Passage("x", 9, "new")])},
    )()
    try:
        apply_external_reranker(swapper, sample, passages)
    except RerankerError:
        surfaced += 1

    assert surfaced == faults  # 100% of injected faults surfaced

    # round trip against a well-behaved stub
    def ok(path, payload):
        return 200, {
            "tokens": ["<RET>"],
            "chosen_logprobs": [math.log(0.8)],
            "candidates": [{"<RET>": math.log(0.8), "<NORET>": math.log(0.2)}],
        }

    with StubServer(ok) as server:
        backend = RemoteBackend(ServiceClient(server.endpoint, timeout=5, max_retries=1))
        result = backend.constrained_generate(prompt, DECISION_TOKENS, 1)
    assert result.tokens == ("<RET>",)


EVAL_SEED = 7


@criterion(9, "end-to-end desk-scale evaluation matches goldens")
def test_end_to_end_eval(golden_dir):
    started = time.perf_counter()
    suite = make_synthetic_suite(
        num_docs=60,
        dim=32,
        num_fact_samples=40,
        num_noret_samples=10,
        num_miss_samples=4,
        seed=EVAL_SEED,
    )
    assert len(suite.samples) == 50
    assert len(suite.kb) == 60
    index = build_index(suite.kb, RetrievalMode.VISUAL)
    backend = RuleBackend(suite.answers_by_question, suite.direct_answers)
    engine = ReflectiveEngine(
        backend, kb=suite.kb, index=index, similarity_scorer=LexicalOverlapScorer()
    )
    base = PipelineConfig(top_k_docs=5, seed=EVAL_SEED)
    reports = {}
    for name in AblationName:
        run = evaluate_dataset(engine, suite.samples, variant_config(name, base), jobs=4)
        assert run.failures == [], name
        reports[name.value] = run.report

    golden = json.loads((golden_dir / "eval_golden.json").read_text())
    assert set(reports) == set(golden)
    for name, report in reports.items():
        expected = golden[name]
        assert report.metrics["vqa_accuracy"].value == pytest.approx(
            expected["vqa_accuracy"]
        ), name
        assert report.metrics["token_f1"].value == pytest.approx(
            expected["token_f1"]
        ), name
        assert report.trace_stats["decision_distribution"] == pytest.approx(
            expected["decision_distribution"]
        ), name
        assert report.trace_stats["fallback_rate"] == pytest.approx(
            expected["fallback_rate"]
        ), name
        assert report.trace_stats["mean_selected"] == pytest.approx(
            expected["mean_selected"]
        ), name
        assert report.splits["all"]["vqa_accuracy"] == pytest.approx(
            expected["splits_all"]
        ), name
        assert report.aggregation == expected["aggregation"]

    # hand-derivable anchors, independent of the golden file
    full = reports["full"]
    assert full.trace_stats["decision_distribution"]["<NORET>"] == pytest.approx(0.2)
    assert full.trace_stats["fallback_rate"] == pytest.approx(4 / 50)
    assert full.metrics["vqa_accuracy"].value == pytest.approx(46 / 50)
    no_kb = reports["no_kb"]
    assert no_kb.trace_stats["decision_distribution"]["<NORET>"] == 1.0
    assert no_kb.metrics["vqa_accuracy"].value == pytest.approx(10 / 50)
    assert reports["always_ret"].trace_stats["fallback_rate"] == pytest.approx(14 / 50)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"end-to-end eval took {elapsed:.1f}s"
