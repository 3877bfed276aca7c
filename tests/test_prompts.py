import json

import pytest

from reflectrag.prompts import (
    CONSIDER_PARAGRAPH,
    SHORT_ANSWER_INSTRUCTION,
    SYSTEM_MESSAGE,
    PromptBuildError,
    PromptStage,
    SegmentKind,
    build_prompt,
    prompt_fingerprint,
    segments_to_dicts,
)


def test_decision_prompt_matches_golden(golden_dir):
    segments = build_prompt(PromptStage.DECISION, "What color is the car?", "img-car-001")
    golden = json.loads((golden_dir / "prompt_decision.json").read_text())
    assert segments_to_dicts(segments) == golden


def test_passage_prompt_matches_golden(golden_dir, data_dir):
    prunus = json.loads((data_dir / "plant_kb.jsonl").read_text().splitlines()[1])
    text = prunus["sections"][0]["text"]
    segments = build_prompt(
        PromptStage.ANSWER_WITH_PASSAGES,
        "How big can this plant become?",
        "img-prunus-001",
        [text],
    )
    golden = json.loads((golden_dir / "prompt_with_passage.json").read_text())
    assert segments_to_dicts(segments) == golden


def test_passage_prompt_structure():
    segments = build_prompt(PromptStage.ANSWER_WITH_PASSAGES, "Q?", "img", ["p1", "p2"])
    kinds = [s.kind for s in segments]
    payloads = [s.payload for s in segments]
    assert payloads[0] == SYSTEM_MESSAGE
    assert CONSIDER_PARAGRAPH in payloads
    assert SHORT_ANSWER_INSTRUCTION in payloads
    assert kinds.count(SegmentKind.PASSAGE_BLOCK) == 2
    consider = payloads.index(CONSIDER_PARAGRAPH)
    short = payloads.index(SHORT_ANSWER_INSTRUCTION)
    assert all(
        k is SegmentKind.PASSAGE_BLOCK for k in kinds[consider + 1 : short]
    )
    assert kinds[-1] is SegmentKind.ASSISTANT_START


def test_direct_answer_prompt_has_no_passage_machinery():
    segments = build_prompt(PromptStage.ANSWER_DIRECT, "Q?", "img")
    kinds = {s.kind for s in segments}
    payloads = {s.payload for s in segments}
    assert SegmentKind.PASSAGE_BLOCK not in kinds
    assert CONSIDER_PARAGRAPH not in payloads
    assert segments[-1].payload == "<NORET>"


def test_judgment_arity_enforced():
    with pytest.raises(PromptBuildError, match="exactly one"):
        build_prompt(PromptStage.JUDGMENT, "Q?", "img", ["p1", "p2"])
    with pytest.raises(PromptBuildError):
        build_prompt(PromptStage.JUDGMENT, "Q?", "img", [])
    with pytest.raises(PromptBuildError):
        build_prompt(PromptStage.ANSWER_WITH_PASSAGES, "Q?", "img", [])
    with pytest.raises(PromptBuildError):
        build_prompt(PromptStage.DECISION, "Q?", "img", ["p"])


def test_judgment_prompt_embeds_exactly_one_passage():
    segments = build_prompt(PromptStage.JUDGMENT, "Q?", "img", ["only passage"])
    blocks = [s for s in segments if s.kind is SegmentKind.PASSAGE_BLOCK]
    assert [b.payload for b in blocks] == ["only passage"]


def test_fingerprint_is_stable_and_content_sensitive():
    a = build_prompt(PromptStage.DECISION, "Q?", "img")
    b = build_prompt(PromptStage.DECISION, "Q?", "img")
    c = build_prompt(PromptStage.DECISION, "Q!", "img")
    assert prompt_fingerprint(a) == prompt_fingerprint(b)
    assert prompt_fingerprint(a) != prompt_fingerprint(c)

