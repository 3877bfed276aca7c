import json
import math
import random

import pytest

from reflectrag.backend import MockBackend, ProtocolViolationError, ScriptedResponse, match_all, match_passage_contains, match_user_text
from reflectrag.forge import (
    DataForgeError,
    HeuristicAnnotator,
    PassageLabel,
    Provenance,
    SampleSkipped,
    SequenceKind,
    Stage2Triplet,
    TrainingSequence,
    SequenceSegment,
    annotate_in_article,
    build_stage1_dataset,
    build_stage2_dataset,
    emit_stage1_sequences,
    emit_stage2_sequences,
    mine_stage2_triplet,
    save_sequences,
    sequence_to_dict,
    shortlist_by_similarity,
)
from reflectrag.index import RetrievalMode, build_index
from reflectrag.kb import Document, KnowledgeBase, Passage, Section, SourceManifest, passages_of
from reflectrag.samples import QuerySample
from reflectrag.similarity import LexicalOverlapScorer
from reflectrag.synth import RuleBackend, make_synthetic_suite
from reflectrag.tokens import RELEVANCE_TOKENS

import numpy as np


def make_sample(question, answers, gold_doc_id=None, sample_id="s1", embedding=None):
    return QuerySample(
        id=sample_id,
        question=question,
        image_ref=f"img-{sample_id}",
        image_embedding=embedding,
        gold_answers=tuple(answers),
        gold_doc_id=gold_doc_id,
        dataset="test",
        split="train",
    )


def passage(doc, idx, text):
    return Passage(doc, idx, text)


class FixedScorer:
    def __init__(self, scores):
        self.scores = scores

    def score(self, query, text):
        return self.scores[text]


class TestShortlist:
    def test_overlap_ranks_first(self):
        scorer = LexicalOverlapScorer()
        passages = [
            passage("d", 0, "the palace architect worked here"),
            passage("d", 1, "unrelated gardening notes"),
        ]
        top = shortlist_by_similarity(scorer, "who was the palace architect", passages)
        assert top[0][0].section_index == 0
        assert len(top) == 2

    def test_single_passage(self):
        scorer = LexicalOverlapScorer()
        top = shortlist_by_similarity(scorer, "q", [passage("d", 0, "text")])
        assert len(top) == 1

    def test_matches_bruteforce_top2(self):
        rng = random.Random(3)
        passages = [passage("d", i, f"p{i}") for i in range(10)]
        scores = {f"p{i}": rng.random() for i in range(10)}
        scorer = FixedScorer(scores)
        top = shortlist_by_similarity(scorer, "q", passages)
        oracle = sorted(passages, key=lambda p: (-scores[p.text], p.section_index))[:2]
        assert [p.key for p, _ in top] == [p.key for p in oracle]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shortlist_by_similarity(LexicalOverlapScorer(), "q", [])


class TestHeuristicAnnotation:
    def test_answer_substring_drives_labels(self):
        passages = [
            passage("d", 0, "The palace gardens were replanted."),
            passage("d", 1, "Its construction began in 1720."),
            passage("d", 2, "The palace was designed by Balthasar Neumann himself."),
        ]
        sample = make_sample("Who designed this palace?", ["Balthasar Neumann"], "d")
        labeled = annotate_in_article(HeuristicAnnotator(), sample, passages)
        assert [lp.label for lp in labeled] == [
            PassageLabel.NEGATIVE,
            PassageLabel.NEGATIVE,
            PassageLabel.POSITIVE,
        ]
        assert all(lp.provenance is Provenance.ANNOTATOR_JUDGED for lp in labeled)

    def test_no_positive_forces_top_shortlist(self):
        passages = [
            passage("d", 0, "completely unrelated text"),
            passage("d", 1, "who designed this palace is discussed at length"),
        ]
        sample = make_sample("who designed this palace", ["Missing Name"], "d")
        labeled = annotate_in_article(HeuristicAnnotator(), sample, passages)
        positives = [lp for lp in labeled if lp.label is PassageLabel.POSITIVE]
        assert len(positives) == 1
        assert positives[0].passage.section_index == 1
        assert positives[0].provenance is Provenance.SIMILARITY_FORCED

    def test_all_positive_forces_lowest_similarity_negative(self):
        passages = [
            passage("d", 0, "the answer is 42 and matches the question words"),
            passage("d", 1, "42 appears here without any other overlap"),
        ]
        sample = make_sample("what is the answer", ["42"], "d")
        labeled = annotate_in_article(HeuristicAnnotator(), sample, passages)
        negatives = [lp for lp in labeled if lp.label is PassageLabel.NEGATIVE]
        assert len(negatives) == 1
        assert negatives[0].passage.section_index == 1
        assert negatives[0].provenance is Provenance.SIMILARITY_FORCED

    def test_single_passage_skipped(self):
        sample = make_sample("q", ["a"], "d")
        with pytest.raises(SampleSkipped):
            annotate_in_article(HeuristicAnnotator(), sample, [passage("d", 0, "t")])

    def test_normalized_substring_matching(self):
        annotator = HeuristicAnnotator()
        assert annotator.is_relevant("q", ["The Answer!"], "we found the answer here")
        assert not annotator.is_relevant("q", ["answerless"], "we found the answer here")


class TestStage1Sequences:
    def build(self):
        passages = [
            passage("d", 0, "positive passage with answer"),
            passage("d", 1, "negative one"),
            passage("d", 2, "negative two"),
        ]
        sample = make_sample("q?", ["answer"], "d")
        labeled = annotate_in_article(HeuristicAnnotator(), sample, passages)
        return emit_stage1_sequences(labeled, sample), sample

    def test_one_sequence_per_passage(self):
        sequences, _ = self.build()
        kinds = sorted(s.kind.value for s in sequences)
        assert kinds == ["stage1_neg", "stage1_neg", "stage1_pos"]

    def test_masks_supervise_only_control_and_answer(self):
        sequences, _ = self.build()
        for seq in sequences:
            for segment, flag in zip(seq.segments, seq.loss_mask):
                if segment.kind in ("control_token", "answer_text"):
                    assert flag
                else:
                    assert not flag
            kinds = [s.kind for s in seq.segments]
            assert kinds == [
                "image_ref", "user_text", "control_token", "passage_block",
                "control_token", "answer_text",
            ]

    def test_positive_carries_rel_token(self):
        sequences, _ = self.build()
        pos = next(s for s in sequences if s.kind is SequenceKind.STAGE1_POS)
        assert pos.segments[4].payload == "<REL>"
        neg = next(s for s in sequences if s.kind is SequenceKind.STAGE1_NEG)
        assert neg.segments[4].payload == "<NOREL>"

    def test_requires_both_labels(self):
        sample = make_sample("q?", ["missing"], "d")
        labeled = [
            lp
            for lp in annotate_in_article(
                HeuristicAnnotator(),
                make_sample("q?", ["answer"], "d"),
                [passage("d", 0, "answer here"), passage("d", 1, "other")],
            )
            if lp.label is PassageLabel.POSITIVE
        ]
        with pytest.raises(DataForgeError, match="positive and"):
            emit_stage1_sequences(labeled, sample)

    def test_wrong_mask_rejected_at_construction(self):
        with pytest.raises(DataForgeError, match="loss-mask"):
            TrainingSequence(
                kind=SequenceKind.NORET,
                sample_id="s",
                dataset="d",
                segments=(SequenceSegment("user_text", "q"),),
                loss_mask=(True,),
            )


def tiny_mining_kb():
    docs = {}
    for doc_id, emb_idx, sections in (
        ("gold", 0, ["gold s0 text", "gold s1 text", "gold s2 text"]),
        ("other", 1, ["other s0 text", "other s1 text"]),
        ("single", 2, ["single s0 text"]),
    ):
        emb = np.zeros(4, dtype=np.float32)
        emb[emb_idx] = 1.0
        docs[doc_id] = Document(
            id=doc_id,
            title=doc_id.title(),
            summary="",
            sections=tuple(Section(f"S{i}", t) for i, t in enumerate(sections)),
            image_embedding=emb,
        )
    return KnowledgeBase(
        documents=docs,
        embedding_dim=4,
        source_manifest=SourceManifest("<test>", len(docs), "", "memory"),
    )


def relevance_script(question, fragment, p_rel):
    token = "<REL>" if p_rel > 0.5 else "<NOREL>"
    return (
        match_all(match_user_text(question), match_passage_contains(fragment)),
        ScriptedResponse(
            tokens=(token,),
            candidates=({"<REL>": math.log(p_rel), "<NOREL>": math.log(1 - p_rel)},),
        ),
    )


class TestMineStage2:
    def make_backend(self, question, p_by_fragment):
        backend = MockBackend()
        for fragment, p in p_by_fragment.items():
            matcher, response = relevance_script(question, fragment, p)
            backend.register_script(matcher, response, allowed=RELEVANCE_TOKENS)
        return backend

    def setup_method(self):
        self.kb = tiny_mining_kb()
        self.index = build_index(self.kb, RetrievalMode.VISUAL)
        self.embedding = np.asarray([1.0, 0.0, 0.0, 0.0], dtype=np.float32)

    def test_positive_is_argmax_logp_rel(self):
        question = "mining q?"
        backend = self.make_backend(
            question, {"gold s0": 0.9, "gold s1": 0.2, "gold s2": 0.1}
        )
        sample = make_sample(question, ["a"], "gold", embedding=self.embedding)
        triplet = mine_stage2_triplet(backend, self.index, self.kb, sample, seed=1)
        assert triplet.positive.key == ("gold", 0)
        assert triplet.hard_negative.doc_id == "gold"
        assert triplet.hard_negative.key != triplet.positive.key
        assert triplet.soft_negative.doc_id == "other"

    def test_all_rel_falls_back_to_min_logp(self):
        question = "all rel?"
        backend = self.make_backend(
            question, {"gold s0": 0.95, "gold s1": 0.7, "gold s2": 0.8}
        )
        sample = make_sample(question, ["a"], "gold", embedding=self.embedding)
        triplet = mine_stage2_triplet(backend, self.index, self.kb, sample, seed=1)
        assert triplet.positive.key == ("gold", 0)
        assert triplet.hard_negative.key == ("gold", 1)  # lowest logp(REL)

    def test_single_passage_gold_skipped(self):
        question = "single?"
        backend = self.make_backend(question, {"single s0": 0.9})
        sample = make_sample(question, ["a"], "single", embedding=self.embedding)
        with pytest.raises(SampleSkipped, match="hard negative"):
            mine_stage2_triplet(backend, self.index, self.kb, sample, seed=1)

    def test_no_foreign_doc_errors(self):
        question = "lonely?"
        kb = tiny_mining_kb()
        lonely = KnowledgeBase(
            documents={"gold": kb.documents["gold"]},
            embedding_dim=4,
            source_manifest=kb.source_manifest,
        )
        index = build_index(lonely, RetrievalMode.VISUAL)
        backend = self.make_backend(
            question, {"gold s0": 0.9, "gold s1": 0.2, "gold s2": 0.1}
        )
        sample = make_sample(question, ["a"], "gold", embedding=self.embedding)
        with pytest.raises(DataForgeError, match="non-gold"):
            mine_stage2_triplet(backend, index, lonely, sample, seed=1)

    def test_triplet_invariants_enforced(self):
        p = passage("gold", 0, "t")
        with pytest.raises(DataForgeError):
            Stage2Triplet(p, p, passage("other", 0, "x")).check("gold")
        with pytest.raises(DataForgeError):
            Stage2Triplet(
                p, passage("gold", 1, "y"), passage("gold", 2, "z")
            ).check("gold")


class TestStage2Sequences:
    def build_inputs(self, n_triplets=5, n_noret=2):
        kb = tiny_mining_kb()
        gold = passages_of(kb, "gold")
        other = passages_of(kb, "other")
        triplets = []
        for i in range(n_triplets):
            sample = make_sample(f"q{i}?", [f"a{i}"], "gold", sample_id=f"t{i:03d}")
            triplets.append((sample, Stage2Triplet(gold[0], gold[1], other[0])))
        noret = [
            make_sample(f"n{j}?", [f"b{j}"], None, sample_id=f"n{j:03d}")
            for j in range(n_noret)
        ]
        return triplets, noret

    def test_min_balance_rule(self):
        triplets, noret = self.build_inputs(n_triplets=5, n_noret=2)
        sequences, accounting = emit_stage2_sequences(triplets, noret, seed=0)
        assert accounting["before_balance"] == {
            "pos_rel": 5, "hard_norel": 5, "soft_norel": 5, "noret": 2,
        }
        assert accounting["by_kind"] == {
            "hard_norel": 2, "noret": 2, "pos_rel": 2, "soft_norel": 2,
        }
        assert accounting["total"] == len(sequences) == 8

    def test_accounting_sums_to_dataset_size(self):
        triplets, noret = self.build_inputs()
        sequences, accounting = emit_stage2_sequences(triplets, noret, seed=0)
        assert sum(accounting["by_kind"].values()) == accounting["total"]
        per_dataset = sum(
            n for kinds in accounting["by_dataset"].values() for n in kinds.values()
        )
        assert per_dataset == accounting["total"]

    def test_empty_inputs_rejected(self):
        triplets, noret = self.build_inputs()
        with pytest.raises(DataForgeError):
            emit_stage2_sequences([], noret)
        with pytest.raises(DataForgeError):
            emit_stage2_sequences(triplets, [])

    def test_serialization_round_trip_preserves_masks(self, tmp_path):
        triplets, noret = self.build_inputs()
        sequences, _ = emit_stage2_sequences(triplets, noret, seed=0)
        path = tmp_path / "seqs.jsonl"
        save_sequences(sequences, path)
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert loaded == [sequence_to_dict(s) for s in sequences]
        assert [tuple(d["loss_mask"]) for d in loaded] == [s.loss_mask for s in sequences]

    def test_same_seed_same_bytes(self, tmp_path):
        triplets, noret = self.build_inputs(n_triplets=9, n_noret=4)
        for name in ("a", "b"):
            sequences, _ = emit_stage2_sequences(triplets, noret, seed=123)
            save_sequences(sequences, tmp_path / f"{name}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_noret_sequence_shape(self):
        triplets, noret = self.build_inputs()
        sequences, _ = emit_stage2_sequences(triplets, noret, seed=0)
        noret_seq = next(s for s in sequences if s.kind is SequenceKind.NORET)
        assert [s.kind for s in noret_seq.segments] == [
            "image_ref", "user_text", "control_token", "answer_text",
        ]
        assert noret_seq.segments[2].payload == "<NORET>"
        assert noret_seq.loss_mask == (False, False, True, True)


class TestDrivers:
    def test_stage1_driver_on_synthetic_corpus(self):
        suite = make_synthetic_suite(
            num_docs=12, num_fact_samples=10, num_noret_samples=0, seed=5
        )
        result = build_stage1_dataset(suite.samples, suite.kb)
        assert result.sequences
        by_sample = {}
        for seq in result.sequences:
            by_sample.setdefault(seq.sample_id, set()).add(seq.kind)
        for kinds in by_sample.values():
            assert SequenceKind.STAGE1_POS in kinds
            assert SequenceKind.STAGE1_NEG in kinds

    def test_stage2_driver_parallel_matches_serial(self):
        suite = make_synthetic_suite(
            num_docs=12, num_fact_samples=8, num_noret_samples=3, seed=6
        )
        index = build_index(suite.kb, RetrievalMode.VISUAL)
        backend = RuleBackend(suite.answers_by_question, suite.direct_answers)
        fact = [s for s in suite.samples if s.gold_doc_id is not None]
        noret = [s for s in suite.samples if s.gold_doc_id is None]
        serial = build_stage2_dataset(fact, noret, suite.kb, index, backend, seed=9, jobs=1)
        parallel = build_stage2_dataset(fact, noret, suite.kb, index, backend, seed=9, jobs=4)
        assert serial.sequences == parallel.sequences

    def test_stage2_failed_judgment_skips_only_its_sample(self):
        suite = make_synthetic_suite(
            num_docs=12, num_fact_samples=8, num_noret_samples=3, seed=6
        )
        index = build_index(suite.kb, RetrievalMode.VISUAL)
        rule = RuleBackend(suite.answers_by_question, suite.direct_answers)
        fact = [s for s in suite.samples if s.gold_doc_id is not None]
        noret = [s for s in suite.samples if s.gold_doc_id is None]
        clean = build_stage2_dataset(fact, noret, suite.kb, index, rule, seed=9, jobs=2)
        victim = next(s for s in sorted(fact, key=lambda s: s.id)
                      if s.id not in dict(clean.skipped))

        class FailsOneSample:
            control_tokens = rule.control_tokens

            def constrained_generate(self, prompt, allowed=None, max_tokens=None):
                if allowed == RELEVANCE_TOKENS and any(
                    seg.payload == victim.question for seg in prompt
                ):
                    raise ProtocolViolationError("garbled judgment")
                return rule.constrained_generate(prompt, allowed, max_tokens)

        result = build_stage2_dataset(
            fact, noret, suite.kb, index, FailsOneSample(), seed=9, jobs=2
        )
        assert result.accounting["skipped"] == clean.accounting["skipped"] + 1
        n_gold = len(passages_of(suite.kb, victim.gold_doc_id))
        reason = f"sample {victim.id!r}: {n_gold} gold-page judgment(s) failed"
        assert result.skipped == sorted([*clean.skipped, (victim.id, reason)])
