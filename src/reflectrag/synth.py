"""Synthetic corpora and a rule-driven backend for desk-scale runs.

Generates a small knowledge base of fact-bearing documents plus question
samples whose gold answers are planted in specific sections. The companion
:class:`RuleBackend` behaves like a competent fine-tuned model: it asks for
retrieval on fact questions, judges a passage relevant iff the answer
appears in it, and reads the answer out of the provided context. All
randomness is seeded, so whole evaluation runs are reproducible byte for
byte.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .backend import GenerationResult, validate_generation_result
from .kb import Document, KnowledgeBase, Section, SourceManifest
from .prompts import PromptSegment, SegmentKind
from .samples import QuerySample
from .tokens import CONTROL_TOKENS, DECISION_TOKENS, RELEVANCE_TOKENS, ReflectiveToken

_NAMES = (
    "Aldermoor", "Brightwell", "Cinderford", "Dunmore", "Eastvale",
    "Fernwick", "Glasswater", "Halloway", "Ironbridge", "Juniper Hollow",
    "Kestrel Point", "Larkfield", "Mossgate", "Northolt", "Oakhurst",
    "Pembry", "Quarrydale", "Ravenscroft", "Silverbeck", "Thornbury",
)
_CATEGORIES = ("bridge", "castle", "church", "lighthouse", "mill", "museum")
_ATTRIBUTES = (
    ("architect", ("Edwin Marlowe", "Greta Holm", "Tobias Fenn", "Mara Quill")),
    ("construction year", ("1821", "1874", "1902", "1937")),
    ("height in metres", ("24", "48", "61", "85")),
    ("main material", ("granite", "limestone", "red brick", "timber")),
    ("patron", ("Alderman Reese", "Lady Coswell", "Duke of Farley", "Guild of Masons")),
    ("annual visitors", ("12000", "45000", "80000", "150000")),
)
_FILLER = (
    "Local records describe decades of careful restoration work.",
    "The surrounding grounds host a seasonal market.",
    "Guided tours run on weekends throughout the summer.",
    "A nearby archive preserves the original drawings.",
    "The site appears in several regional travel guides.",
)

NORET_QA = (
    ("What color is the car?", "Black"),
    ("How many dogs are in the picture?", "Two"),
    ("Is the person wearing a hat?", "Yes"),
    ("What is the weather like in the photo?", "Sunny"),
    ("What color is the sky in this image?", "Blue"),
)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    return (vec / np.linalg.norm(vec)).astype(np.float32)


def make_synthetic_kb(
    num_docs: int = 60,
    dim: int = 32,
    seed: int = 0,
    min_sections: int = 2,
    max_sections: int = 5,
) -> KnowledgeBase:
    """Documents with one planted fact per section and seeded embeddings."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pick = random.Random(seed)
    documents: dict[str, Document] = {}
    for i in range(num_docs):
        name = f"{_NAMES[i % len(_NAMES)]} {i // len(_NAMES) + 1}"
        category = _CATEGORIES[i % len(_CATEGORIES)]
        doc_id = f"doc{i:04d}"
        n_sections = pick.randint(min_sections, max_sections)
        attrs = pick.sample(range(len(_ATTRIBUTES)), min(n_sections, len(_ATTRIBUTES)))
        sections = []
        for j in range(n_sections):
            attr_name, values = _ATTRIBUTES[attrs[j % len(attrs)]]
            value = pick.choice(values)
            filler = pick.choice(_FILLER)
            sections.append(
                Section(
                    title=attr_name.title(),
                    text=(
                        f"The {attr_name} of the {name} {category} is {value}. {filler}"
                    ),
                )
            )
        documents[doc_id] = Document(
            id=doc_id,
            title=f"{name} {category}".title(),
            summary=f"A well-documented {category} known as {name}.",
            sections=tuple(sections),
            image_embedding=random_unit_vector(rng, dim),
        )
    return KnowledgeBase(
        documents=documents,
        embedding_dim=dim,
        source_manifest=SourceManifest(
            path="<synthetic>", count=num_docs, checksum="", embedding_storage="memory"
        ),
    )


def _perturbed(rng: np.random.Generator, base: np.ndarray, noise: float) -> np.ndarray:
    vec = base.astype(np.float64) + noise * rng.standard_normal(base.shape[0])
    return (vec / np.linalg.norm(vec)).astype(np.float32)


@dataclass(frozen=True)
class SyntheticSuite:
    kb: KnowledgeBase
    samples: list[QuerySample]
    answers_by_question: dict[str, tuple[str, ...]]
    direct_answers: dict[str, str]


def make_synthetic_suite(
    num_docs: int = 60,
    dim: int = 32,
    num_fact_samples: int = 40,
    num_noret_samples: int = 10,
    num_miss_samples: int = 0,
    seed: int = 0,
    noise: float = 0.02,
    dataset: str = "synthetic",
    split: str = "test",
) -> SyntheticSuite:
    """KB plus samples. Fact samples query a planted fact with an embedding
    near the gold document; the last ``num_miss_samples`` of them instead ask
    about a fact no document records, so every judgment comes back NOREL and
    the fallback path is exercised deterministically."""
    kb = make_synthetic_kb(num_docs=num_docs, dim=dim, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    pick = random.Random(seed + 1)
    doc_ids = kb.doc_ids()
    samples: list[QuerySample] = []

    for i in range(num_fact_samples):
        doc = kb.documents[doc_ids[i % len(doc_ids)]]
        section_idx = pick.randrange(len(doc.sections))
        text = doc.sections[section_idx].text
        # "The <attr> of the <name> is <value>." -> recover attr and value.
        head, _, _ = text.partition(". ")
        attr = head[len("The ") : head.index(" of the ")]
        value = head[head.rindex(" is ") + 4 :]
        miss = i >= num_fact_samples - num_miss_samples
        if miss:
            # A fact nobody recorded: every passage gets judged NOREL.
            question = f"What was the former name of this {doc.title.lower()}? (q{i:03d})"
            value = f"Unrecorded name {i}"
        else:
            question = f"What is the {attr} of this {doc.title.lower()}? (q{i:03d})"
        sample = QuerySample(
            id=f"s{i:04d}",
            question=question,
            image_ref=f"img{i:04d}",
            image_embedding=_perturbed(rng, doc.image_embedding, noise),
            gold_answers=(value,),
            gold_doc_id=doc.id,
            dataset=dataset,
            split=split,
            subset="unseen_q" if i % 2 == 0 else "unseen_e",
        )
        samples.append(sample)

    for j in range(num_noret_samples):
        question, answer = NORET_QA[j % len(NORET_QA)]
        question = f"{question} (n{j:03d})"
        sample = QuerySample(
            id=f"s{num_fact_samples + j:04d}",
            question=question,
            image_ref=f"img-noret{j:04d}",
            image_embedding=random_unit_vector(rng, kb.embedding_dim),
            gold_answers=(answer,),
            gold_doc_id=None,
            dataset=dataset,
            split=split,
            subset="unseen_q" if j % 2 == 0 else "unseen_e",
        )
        samples.append(sample)
    rule = RuleBackend.from_samples(samples)
    return SyntheticSuite(kb, samples, rule.answers_by_question, rule.direct_answers)


def _jitter(*parts: str, scale: float = 0.15) -> float:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return scale * int.from_bytes(digest[:4], "little") / 2**32


_RET, _NORET, _REL, _NOREL = (ReflectiveToken[n].value for n in ("RET", "NORET", "REL", "NOREL"))


def _binary_logps(token_a: str, token_b: str, p_a: float) -> dict[str, float]:
    """Two-token log distribution with P(a) = p_a; sums to exactly 1."""
    return {token_a: math.log(p_a), token_b: math.log(1.0 - p_a)}


class RuleBackend:
    """Deterministic stand-in for a fine-tuned reflective model.

    Decision: NORET for registered no-retrieval questions, RET otherwise.
    Judgment: REL iff a known gold answer occurs in the passage text.
    Answer: reads the planted value out of the supplied passages (first
    matching answer), or the registered direct answer on the NORET path.
    Log-probabilities carry a question/passage-seeded jitter so rankings are
    non-trivial yet reproducible.
    """

    deterministic = True
    in_process = True

    def __init__(
        self,
        answers_by_question: dict[str, tuple[str, ...]],
        direct_answers: dict[str, str],
        control_tokens: Iterable[str] = CONTROL_TOKENS,
    ):
        self.answers_by_question = dict(answers_by_question)
        self.direct_answers = dict(direct_answers)
        self.control_tokens = frozenset(control_tokens)

    @classmethod
    def from_samples(cls, samples: Iterable[QuerySample]) -> RuleBackend:
        """The tables a dataset implies: a retrieval sample's gold answers
        are what a relevant passage holds, and a no-retrieval sample's first
        gold answer is its direct answer."""
        samples = list(samples)
        return cls(
            {s.question: s.gold_answers for s in samples if s.gold_doc_id is not None},
            {
                s.question: s.gold_answers[0]
                for s in samples
                if s.gold_doc_id is None and s.gold_answers
            },
        )

    @staticmethod
    def _question(prompt: Sequence[PromptSegment]) -> str:
        for seg in prompt:
            if seg.kind is SegmentKind.USER_TEXT:
                return seg.payload
        raise ValueError("prompt has no user text")

    @staticmethod
    def _passages(prompt: Sequence[PromptSegment]) -> list[str]:
        return [s.payload for s in prompt if s.kind is SegmentKind.PASSAGE_BLOCK]

    def constrained_generate(
        self,
        prompt: Sequence[PromptSegment],
        allowed: Iterable[str] | None = None,
        max_tokens: int | None = None,
    ) -> GenerationResult:
        allowed_set = None if allowed is None else frozenset(allowed)
        question = self._question(prompt)

        if allowed_set == DECISION_TOKENS:
            wants_retrieval = question not in self.direct_answers
            p_top = 0.80 + _jitter("decide", question)
            logps = _binary_logps(_RET, _NORET, p_top if wants_retrieval else 1.0 - p_top)
            token = max(logps, key=lambda t: logps[t])
            result = GenerationResult((token,), (logps[token],), (logps,))
        elif allowed_set == RELEVANCE_TOKENS:
            passage = self._passages(prompt)[0]
            answers = self.answers_by_question.get(question, ())
            relevant = any(a in passage for a in answers)
            p_rel = 0.75 + _jitter("judge", question, passage)
            logps = _binary_logps(_REL, _NOREL, p_rel if relevant else 1.0 - p_rel)
            token = max(logps, key=lambda t: logps[t])
            result = GenerationResult((token,), (logps[token],), (logps,))
        else:
            passages = self._passages(prompt)
            if passages:
                answers = self.answers_by_question.get(question, ())
                text = next(
                    (a for a in answers if any(a in p for p in passages)),
                    "not stated in the provided context",
                )
            else:
                text = self.direct_answers.get(question, "I am not sure")
            result = GenerationResult((text,), (0.0,), ({text: 0.0},))
        validate_generation_result(result, allowed_set)
        return result
