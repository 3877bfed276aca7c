#!/usr/bin/env python3
"""Regenerate the checked-in golden files under tests/golden/.

Run from the repository root after any intentional behavior change, then
review the diff carefully: these files pin the protocol byte-for-byte.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import protocol_suite  # noqa: E402

from reflectrag.engine import PipelineConfig, write_traces  # noqa: E402
from reflectrag.harness import AblationName, evaluate_dataset, variant_config  # noqa: E402
from reflectrag.index import RetrievalMode, build_index  # noqa: E402
from reflectrag.prompts import PromptStage, build_prompt, segments_to_dicts  # noqa: E402
from reflectrag.engine import ReflectiveEngine  # noqa: E402
from reflectrag.samples import load_samples  # noqa: E402
from reflectrag.similarity import LexicalOverlapScorer  # noqa: E402
from reflectrag.synth import RuleBackend, make_synthetic_suite  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def golden_traces() -> None:
    traces = [trace for _, trace, _ in protocol_suite.run_all()]
    write_traces(traces, GOLDEN / "golden_traces.jsonl", include_timings=False)
    print(f"wrote {len(traces)} protocol traces")


def golden_prompts() -> None:
    samples = {s.id: s for s in load_samples(ROOT / "tests" / "data" / "plant_samples.jsonl")}
    car = samples["car-001"]
    plant = samples["plant-001"]
    prunus_text = json.loads(
        (ROOT / "tests" / "data" / "plant_kb.jsonl").read_text().splitlines()[1]
    )["sections"][0]["text"]

    decision = build_prompt(PromptStage.DECISION, car.question, car.image_ref)
    with_passage = build_prompt(
        PromptStage.ANSWER_WITH_PASSAGES, plant.question, plant.image_ref, [prunus_text]
    )
    (GOLDEN / "prompt_decision.json").write_text(
        json.dumps(segments_to_dicts(decision), indent=2) + "\n"
    )
    (GOLDEN / "prompt_with_passage.json").write_text(
        json.dumps(segments_to_dicts(with_passage), indent=2) + "\n"
    )
    print("wrote prompt goldens")


EVAL_SEED = 7


def eval_suite():
    return make_synthetic_suite(
        num_docs=60,
        dim=32,
        num_fact_samples=40,
        num_noret_samples=10,
        num_miss_samples=4,
        seed=EVAL_SEED,
    )


def golden_eval() -> None:
    suite = eval_suite()
    index = build_index(suite.kb, RetrievalMode.VISUAL)
    backend = RuleBackend(suite.answers_by_question, suite.direct_answers)
    engine = ReflectiveEngine(
        backend, kb=suite.kb, index=index, similarity_scorer=LexicalOverlapScorer()
    )
    base = PipelineConfig(top_k_docs=5, seed=EVAL_SEED)
    reports = {}
    for name in AblationName:
        run = evaluate_dataset(engine, suite.samples, variant_config(name, base), jobs=1)
        if run.failures:
            raise SystemExit(f"variant {name.value}: {len(run.failures)} samples failed")
        reports[name.value] = run.report
    golden = {
        name: {
            "vqa_accuracy": report.metrics["vqa_accuracy"].value,
            "token_f1": report.metrics["token_f1"].value,
            "decision_distribution": report.trace_stats["decision_distribution"],
            "fallback_rate": report.trace_stats["fallback_rate"],
            "mean_selected": report.trace_stats["mean_selected"],
            "splits_all": report.splits["all"]["vqa_accuracy"],
            "aggregation": report.aggregation,
        }
        for name, report in reports.items()
    }
    (GOLDEN / "eval_golden.json").write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n"
    )
    print("wrote eval goldens:")
    for name, entry in golden.items():
        print(f"  {name}: vqa={entry['vqa_accuracy']:.3f} fallback={entry['fallback_rate']:.3f}")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    golden_traces()
    golden_prompts()
    golden_eval()
