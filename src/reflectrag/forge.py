"""Training-data construction: in-article annotation, two-stage sequence
emission, and triplet mining.

Stage 1 labels passages inside each sample's gold document (positive =
answers the question, negative = does not) and emits one supervision
sequence per labeled passage. Stage 2 mines, for every sample, a positive
and a hard negative from the gold page (scored by a stage-1 model exposed as
a generative backend) plus a soft negative from the best-matching other
page, then emits a balanced four-kind mixture together with no-retrieval
samples.

Sequences are segment-level: loss-mask flags mark which segments (control
tokens and the answer) are supervised; image, question, and passage segments
are never supervised. Tokenizer-level expansion happens downstream in
whatever trainer consumes these files.
"""
from __future__ import annotations

import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Protocol, Sequence

from .engine import judge_passages
from .backend import GenerativeBackend
from .index import DenseIndex, search
from .kb import KnowledgeBase, Passage, passages_of
from .samples import QuerySample
from .similarity import LexicalOverlapScorer, TextSimilarityScorer, word_tokens
from .tokens import ReflectiveToken
from .util import atomic_write_bytes, json_line

logger = logging.getLogger(__name__)

MAX_SOFT_NEGATIVE_SEARCH = 50


class DataForgeError(Exception):
    pass


class SampleSkipped(Exception):
    """Sample cannot produce training data; carries the reason for logs."""


class PassageLabel(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class Provenance(str, Enum):
    ANNOTATOR_JUDGED = "annotator_judged"
    SIMILARITY_FORCED = "similarity_forced"


@dataclass(frozen=True)
class LabeledPassage:
    passage: Passage
    label: PassageLabel
    provenance: Provenance


@dataclass(frozen=True)
class Stage2Triplet:
    positive: Passage
    hard_negative: Passage
    soft_negative: Passage

    def check(self, gold_doc_id: str) -> None:
        if self.positive.doc_id != gold_doc_id or self.hard_negative.doc_id != gold_doc_id:
            raise DataForgeError(
                "positive and hard negative must come from the gold document"
            )
        if self.soft_negative.doc_id == gold_doc_id:
            raise DataForgeError("soft negative must come from a different document")
        if self.positive.key == self.hard_negative.key:
            raise DataForgeError("positive and hard negative must differ")


class SequenceKind(str, Enum):
    NORET = "noret"
    POS_REL = "pos_rel"
    HARD_NOREL = "hard_norel"
    SOFT_NOREL = "soft_norel"
    STAGE1_POS = "stage1_pos"
    STAGE1_NEG = "stage1_neg"


#: Segment kinds whose positions are supervised during fine-tuning.
SUPERVISED_SEGMENT_KINDS = frozenset({"control_token", "answer_text"})


@dataclass(frozen=True)
class SequenceSegment:
    kind: str  # image_ref | user_text | control_token | passage_block | answer_text
    payload: str


@dataclass(frozen=True)
class TrainingSequence:
    kind: SequenceKind
    sample_id: str
    dataset: str
    segments: tuple[SequenceSegment, ...]
    loss_mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.segments) != len(self.loss_mask):
            raise DataForgeError("loss mask must align with segments")
        for seg, flag in zip(self.segments, self.loss_mask):
            if flag != (seg.kind in SUPERVISED_SEGMENT_KINDS):
                raise DataForgeError(
                    f"segment kind {seg.kind!r} has wrong loss-mask flag"
                )


def _sequence(
    kind: SequenceKind,
    sample: QuerySample,
    control_tokens: Sequence[ReflectiveToken],
    passage: Passage | None,
) -> TrainingSequence:
    segments = [
        SequenceSegment("image_ref", sample.image_ref),
        SequenceSegment("user_text", sample.question),
        SequenceSegment("control_token", control_tokens[0].value),
    ]
    if passage is not None:
        segments.append(SequenceSegment("passage_block", passage.text))
        segments.append(SequenceSegment("control_token", control_tokens[1].value))
    segments.append(SequenceSegment("answer_text", sample.gold_answers[0]))
    mask = tuple(seg.kind in SUPERVISED_SEGMENT_KINDS for seg in segments)
    return TrainingSequence(
        kind=kind,
        sample_id=sample.id,
        dataset=sample.dataset,
        segments=tuple(segments),
        loss_mask=mask,
    )


# --------------------------------------------------------------------------
# Annotators
# --------------------------------------------------------------------------


class PassageAnnotator(Protocol):
    def is_relevant(
        self, question: str, answers: Sequence[str], passage_text: str
    ) -> bool: ...


def _match_normalize(text: str) -> str:
    return " ".join(word_tokens(text))


class HeuristicAnnotator:
    """Offline oracle: a passage is positive iff a gold answer occurs in it
    (normalized substring match). Keeps the whole forge testable without any
    model judge."""

    def is_relevant(
        self, question: str, answers: Sequence[str], passage_text: str
    ) -> bool:
        haystack = f" {_match_normalize(passage_text)} "
        return any(
            f" {_match_normalize(a)} " in haystack for a in answers if a.strip()
        )


# --------------------------------------------------------------------------
# Stage 1: in-article annotation
# --------------------------------------------------------------------------


def shortlist_by_similarity(
    scorer: TextSimilarityScorer, question: str, passages: Sequence[Passage]
) -> list[tuple[Passage, float]]:
    """The two highest-scoring passages (one if only one exists), ties by
    section order."""
    if not passages:
        raise ValueError("passages must be non-empty")
    scored = [(p, scorer.score(question, p.text)) for p in passages]
    return sorted(scored, key=lambda ps: -ps[1])[:2]


def annotate_in_article(
    annotator: PassageAnnotator,
    sample: QuerySample,
    passages: Sequence[Passage],
    scorer: TextSimilarityScorer | None = None,
) -> list[LabeledPassage]:
    """Label every gold-page passage, guaranteeing at least one positive and
    one negative.

    When the annotator finds no positive, the top similarity-shortlist
    passage is forced positive; when it finds no negative, the
    lowest-similarity passage is forced negative. Single-passage documents
    cannot satisfy the guarantee and are skipped.
    """
    if len(passages) < 2:
        raise SampleSkipped(
            f"sample {sample.id!r}: gold document has {len(passages)} passage(s); "
            "need at least 2"
        )
    scorer = scorer or LexicalOverlapScorer()
    labels: list[PassageLabel] = []
    for passage in passages:
        relevant = annotator.is_relevant(sample.question, sample.gold_answers, passage.text)
        labels.append(PassageLabel.POSITIVE if relevant else PassageLabel.NEGATIVE)

    provenance = [Provenance.ANNOTATOR_JUDGED] * len(passages)
    if PassageLabel.POSITIVE not in labels:
        top = shortlist_by_similarity(scorer, sample.question, passages)[0][0]
        idx = next(i for i, p in enumerate(passages) if p.key == top.key)
        labels[idx] = PassageLabel.POSITIVE
        provenance[idx] = Provenance.SIMILARITY_FORCED
    if PassageLabel.NEGATIVE not in labels:
        idx = min(
            range(len(passages)),
            key=lambda i: scorer.score(sample.question, passages[i].text),
        )
        labels[idx] = PassageLabel.NEGATIVE
        provenance[idx] = Provenance.SIMILARITY_FORCED
    return [
        LabeledPassage(passage=p, label=l, provenance=pr)
        for p, l, pr in zip(passages, labels, provenance)
    ]


def emit_stage1_sequences(
    labeled: Sequence[LabeledPassage], sample: QuerySample
) -> list[TrainingSequence]:
    """One sequence per labeled passage: positives carry <RET>..<REL>,
    negatives <RET>..<NOREL>; both end with the gold answer."""
    if not any(lp.label is PassageLabel.POSITIVE for lp in labeled) or not any(
        lp.label is PassageLabel.NEGATIVE for lp in labeled
    ):
        raise DataForgeError(
            f"sample {sample.id!r}: stage-1 group needs >=1 positive and >=1 negative"
        )
    out = []
    for lp in labeled:
        if lp.label is PassageLabel.POSITIVE:
            kind, rel = SequenceKind.STAGE1_POS, ReflectiveToken.REL
        else:
            kind, rel = SequenceKind.STAGE1_NEG, ReflectiveToken.NOREL
        out.append(
            _sequence(kind, sample, (ReflectiveToken.RET, rel), lp.passage)
        )
    return out


# --------------------------------------------------------------------------
# Stage 2: triplet mining
# --------------------------------------------------------------------------


def mine_stage2_triplet(
    in_article_backend: GenerativeBackend,
    index: DenseIndex,
    kb: KnowledgeBase,
    sample: QuerySample,
    seed: int = 0,
) -> Stage2Triplet:
    """Mine (positive, hard negative, soft negative) for one sample.

    Every gold-page passage is judged by the stage-1 model, and a failed
    judgment skips the sample; the positive is the max-logp(REL) passage
    (the earliest on a tie), the hard negative a seeded-random pick among
    NOREL-judged ones (min-logp(REL) if the page had none), and the soft
    negative a seeded-random passage from the best-matching non-gold
    document.
    """
    if sample.gold_doc_id is None:
        raise SampleSkipped(f"sample {sample.id!r}: no gold document")
    gold_passages = passages_of(kb, sample.gold_doc_id)
    if len(gold_passages) < 2:
        raise SampleSkipped(
            f"sample {sample.id!r}: gold document has fewer than 2 passages; "
            "cannot form a hard negative"
        )
    rng = random.Random(f"{seed}:{sample.id}:stage2")

    judgments, failures = judge_passages(in_article_backend, sample, gold_passages)
    if failures:
        raise SampleSkipped(f"sample {sample.id!r}: {failures} gold-page judgment(s) failed")
    positive = max(judgments, key=lambda j: j.logp_rel).passage
    norel_pool = [
        j.passage
        for j in judgments
        if j.token is ReflectiveToken.NOREL and j.passage.key != positive.key
    ]
    if norel_pool:
        hard_negative = rng.choice(norel_pool)
    else:
        remaining = [j for j in judgments if j.passage.key != positive.key]
        hard_negative = min(remaining, key=lambda j: j.logp_rel).passage

    if sample.image_embedding is None:
        raise SampleSkipped(f"sample {sample.id!r}: no image embedding for retrieval")
    k = min(MAX_SOFT_NEGATIVE_SEARCH, len(index))
    hits = search(index, sample.image_embedding, k)
    soft_doc = None
    for hit in hits:
        if hit.doc_id == sample.gold_doc_id:
            continue
        if passages_of(kb, hit.doc_id):
            soft_doc = hit.doc_id
            break
    if soft_doc is None:
        raise DataForgeError(
            f"sample {sample.id!r}: no non-gold document with passages within "
            f"top-{MAX_SOFT_NEGATIVE_SEARCH}"
        )
    soft_negative = rng.choice(passages_of(kb, soft_doc))

    triplet = Stage2Triplet(
        positive=positive, hard_negative=hard_negative, soft_negative=soft_negative
    )
    triplet.check(sample.gold_doc_id)
    return triplet


def emit_stage2_sequences(
    triplets: Sequence[tuple[QuerySample, Stage2Triplet]],
    noret_samples: Sequence[QuerySample],
    seed: int = 0,
) -> tuple[list[TrainingSequence], dict]:
    """Emit the balanced four-kind mixture plus an accounting report.

    Balance rule: every kind is downsampled (seeded) to the size of the
    smallest kind. Output is sorted by (sample id, kind) so parallel mining
    upstream cannot affect file bytes.
    """
    if not triplets or not noret_samples:
        raise DataForgeError("both triplets and noret samples are required")
    by_kind: dict[SequenceKind, list[TrainingSequence]] = {
        SequenceKind.POS_REL: [],
        SequenceKind.HARD_NOREL: [],
        SequenceKind.SOFT_NOREL: [],
        SequenceKind.NORET: [],
    }
    for sample, triplet in triplets:
        for kind, token, passage in (
            (SequenceKind.POS_REL, ReflectiveToken.REL, triplet.positive),
            (SequenceKind.HARD_NOREL, ReflectiveToken.NOREL, triplet.hard_negative),
            (SequenceKind.SOFT_NOREL, ReflectiveToken.NOREL, triplet.soft_negative),
        ):
            by_kind[kind].append(
                _sequence(kind, sample, (ReflectiveToken.RET, token), passage)
            )
    for sample in noret_samples:
        by_kind[SequenceKind.NORET].append(
            _sequence(SequenceKind.NORET, sample, (ReflectiveToken.NORET,), None)
        )

    before_balance = {k.value: len(v) for k, v in by_kind.items()}
    if any(n == 0 for n in before_balance.values()):
        empty = [k for k, n in before_balance.items() if n == 0]
        raise DataForgeError(f"empty sequence kind(s) after filtering: {empty}")
    target = min(before_balance.values())
    balanced: list[TrainingSequence] = []
    for kind, seqs in by_kind.items():
        seqs = sorted(seqs, key=lambda s: s.sample_id)
        if len(seqs) > target:
            rng = random.Random(f"{seed}:balance:{kind.value}")
            keep = sorted(rng.sample(range(len(seqs)), target))
            seqs = [seqs[i] for i in keep]
        balanced.extend(seqs)
    balanced.sort(key=lambda s: (s.sample_id, s.kind.value))

    accounting = _accounting(balanced)
    accounting["before_balance"] = before_balance
    return balanced, accounting


def _accounting(sequences: Sequence[TrainingSequence]) -> dict:
    by_kind: dict[str, int] = {}
    by_dataset: dict[str, dict[str, int]] = {}
    for seq in sequences:
        by_kind[seq.kind.value] = by_kind.get(seq.kind.value, 0) + 1
        ds = by_dataset.setdefault(seq.dataset, {})
        ds[seq.kind.value] = ds.get(seq.kind.value, 0) + 1
    return {
        "total": len(sequences),
        "by_kind": dict(sorted(by_kind.items())),
        "by_dataset": {k: dict(sorted(v.items())) for k, v in sorted(by_dataset.items())},
    }


# --------------------------------------------------------------------------
# Dataset drivers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ForgeResult:
    sequences: list[TrainingSequence]
    accounting: dict
    skipped: list[tuple[str, str]]  # (sample_id, reason)


def build_stage1_dataset(
    samples: Sequence[QuerySample],
    kb: KnowledgeBase,
    annotator: PassageAnnotator | None = None,
    scorer: TextSimilarityScorer | None = None,
) -> ForgeResult:
    annotator = annotator or HeuristicAnnotator()
    sequences: list[TrainingSequence] = []
    skipped: list[tuple[str, str]] = []
    for sample in sorted(samples, key=lambda s: s.id):
        if sample.gold_doc_id is None:
            skipped.append((sample.id, "no gold document"))
            continue
        try:
            passages = passages_of(kb, sample.gold_doc_id)
            labeled = annotate_in_article(annotator, sample, passages, scorer)
            sequences.extend(emit_stage1_sequences(labeled, sample))
        except (SampleSkipped, LookupError) as exc:
            logger.info("stage-1 skip: %s", exc)
            skipped.append((sample.id, str(exc)))
    accounting = _accounting(sequences)
    accounting["skipped"] = len(skipped)
    return ForgeResult(sequences=sequences, accounting=accounting, skipped=skipped)


def build_stage2_dataset(
    samples: Sequence[QuerySample],
    noret_samples: Sequence[QuerySample],
    kb: KnowledgeBase,
    index: DenseIndex,
    in_article_backend: GenerativeBackend,
    seed: int = 0,
    jobs: int = 1,
) -> ForgeResult:
    """Mine triplets (parallel over samples) and emit the balanced mixture."""
    ordered = sorted(samples, key=lambda s: s.id)
    skipped: list[tuple[str, str]] = []
    mined: dict[str, Stage2Triplet] = {}

    def mine(sample: QuerySample) -> tuple[str, Stage2Triplet | None, str | None]:
        try:
            return sample.id, mine_stage2_triplet(
                in_article_backend, index, kb, sample, seed=seed
            ), None
        except (SampleSkipped, DataForgeError, LookupError) as exc:
            return sample.id, None, str(exc)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(mine, ordered))
    else:
        results = [mine(s) for s in ordered]
    for sample_id, triplet, err in results:
        if triplet is None:
            logger.info("stage-2 skip: %s", err)
            skipped.append((sample_id, err or "unknown"))
        else:
            mined[sample_id] = triplet

    paired = [(s, mined[s.id]) for s in ordered if s.id in mined]
    if not paired:
        raise DataForgeError("no sample produced a stage-2 triplet")
    sequences, accounting = emit_stage2_sequences(
        paired, sorted(noret_samples, key=lambda s: s.id), seed=seed
    )
    accounting["skipped"] = len(skipped)
    return ForgeResult(sequences=sequences, accounting=accounting, skipped=skipped)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def sequence_to_dict(seq: TrainingSequence) -> dict:
    return {
        "kind": seq.kind.value,
        "sample_id": seq.sample_id,
        "dataset": seq.dataset,
        "segments": [{"kind": s.kind, "payload": s.payload} for s in seq.segments],
        "loss_mask": list(seq.loss_mask),
    }


def save_sequences(sequences: Sequence[TrainingSequence], path: str | Path) -> Path:
    lines = [json_line(sequence_to_dict(s)) for s in sequences]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return Path(path)

