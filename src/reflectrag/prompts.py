"""Prompt construction for the four pipeline stages.

Prompts are sequences of typed segments, not rendered strings: the generative
backend owns tokenization and chat formatting, while this module owns the
canonical segment order, which is bit-exact and golden-tested.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .tokens import ReflectiveToken

SYSTEM_MESSAGE = (
    "You are a helpful language and vision assistant. You are able to "
    "understand the visual content that the user provides, and assist the "
    "user with a variety of tasks using natural language."
)
CONSIDER_PARAGRAPH = "Consider this paragraph:"
SHORT_ANSWER_INSTRUCTION = "Give a short answer."


class SegmentKind(str, Enum):
    SYSTEM = "system"
    IMAGE_REF = "image_ref"
    USER_TEXT = "user_text"
    CONTROL_TOKEN = "control_token"
    PASSAGE_BLOCK = "passage_block"
    ASSISTANT_START = "assistant_start"


@dataclass(frozen=True)
class PromptSegment:
    """One unit of a prompt. ImageRef payloads are opaque ids, never pixels."""

    kind: SegmentKind
    payload: str

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "payload": self.payload}


class PromptStage(str, Enum):
    DECISION = "decision"
    JUDGMENT = "judgment"
    ANSWER_WITH_PASSAGES = "answer_with_passages"
    ANSWER_DIRECT = "answer_direct"


class PromptBuildError(ValueError):
    """Stage/passage arity mismatch."""


_SYSTEM = PromptSegment(SegmentKind.SYSTEM, SYSTEM_MESSAGE)
_ASSISTANT_START = PromptSegment(SegmentKind.ASSISTANT_START, "")
_NORET = PromptSegment(SegmentKind.CONTROL_TOKEN, ReflectiveToken.NORET.value)
_RET = PromptSegment(SegmentKind.CONTROL_TOKEN, ReflectiveToken.RET.value)
_CONSIDER = PromptSegment(SegmentKind.USER_TEXT, CONSIDER_PARAGRAPH)
_SHORT_ANSWER = PromptSegment(SegmentKind.USER_TEXT, SHORT_ANSWER_INSTRUCTION)


def build_prompt(
    stage: PromptStage,
    question: str,
    image_ref: str,
    passage_texts: Sequence[str] | None = None,
) -> list[PromptSegment]:
    """Build the canonical segment sequence for one protocol stage.

    Judgment prompts embed exactly one passage; answer-with-passages prompts
    embed one block per selected passage, each wrapped in paragraph markers by
    the renderer/backend. Every call returns a fresh list, but the segments
    that never vary (system message, control tokens, fixed instructions) are
    shared between prompts, which is safe because :class:`PromptSegment` is
    frozen.
    """
    segments = [
        _SYSTEM,
        PromptSegment(SegmentKind.IMAGE_REF, image_ref),
        PromptSegment(SegmentKind.USER_TEXT, question),
        _ASSISTANT_START,
    ]
    if stage is PromptStage.DECISION:
        if passage_texts:
            raise PromptBuildError("decision prompt takes no passages")
        return segments
    if stage is PromptStage.ANSWER_DIRECT:
        if passage_texts:
            raise PromptBuildError("direct-answer prompt takes no passages")
        segments.append(_NORET)
        return segments
    if passage_texts is None:
        raise PromptBuildError(f"{stage.value} prompt requires passages")
    passages = list(passage_texts)
    if stage is PromptStage.JUDGMENT and len(passages) != 1:
        raise PromptBuildError(
            f"judgment prompt embeds exactly one passage, got {len(passages)}"
        )
    if stage is PromptStage.ANSWER_WITH_PASSAGES and not passages:
        raise PromptBuildError("answer prompt requires at least one passage")
    segments += (_RET, _CONSIDER)
    segments.extend(PromptSegment(SegmentKind.PASSAGE_BLOCK, text) for text in passages)
    segments += (_SHORT_ANSWER, _ASSISTANT_START)
    return segments


def segments_to_dicts(segments: Sequence[PromptSegment]) -> list[dict]:
    return [seg.to_dict() for seg in segments]


def prompt_fingerprint(segments: Sequence[PromptSegment]) -> str:
    """Stable hash of the canonical segment list.

    Scripted mocks key on this, so it must not depend on incidental
    formatting; only kinds and payloads enter the digest.
    """
    blob = json.dumps(
        segments_to_dicts(segments), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

