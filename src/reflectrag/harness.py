"""Batch evaluation: scoring, split aggregation, token accuracy, ablations.

Scoring reads only the fields a trace line carries, taken from the trace
object in a fresh run and from the line when a trace file is re-scored;
both give the same dict, so re-scoring is guaranteed pure. Report assembly
is a deterministic fold ordered by sample id.
"""
from __future__ import annotations

import csv
import io
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .engine import (
    ForcedDecision,
    PipelineConfig,
    PipelineTrace,
    ReflectiveEngine,
    SelectionMode,
    trace_line,
)
from .metrics import (
    MetricScore,
    infoseek_aggregate,
    relaxed_accuracy,
    token_f1_em,
    vqa_accuracy,
)
from .samples import QuerySample
from .tokens import DECISION_TOKENS, ReflectiveToken
from .util import atomic_write_text, decode_utf8, json_line, json_value

logger = logging.getLogger(__name__)

SCORED_METRICS = ("vqa_accuracy", "relaxed_accuracy", "token_f1", "exact_match")

#: Subset tags that trigger harmonic "All" aggregation when they are the only
#: subsets present.
HARMONIC_SUBSETS = frozenset({"unseen_q", "unseen_e"})


class AblationName(str, Enum):
    FULL = "full"
    ALWAYS_RET = "always_ret"
    EXTERNAL_SCORER_PASSAGES = "external_scorer_passages"
    RANDOM_PASSAGES_NOREL = "random_passages_norel"
    NO_KB = "no_kb"


# Per variant: the fields it keeps from the base config and the fields it
# sets. Every other field except ``top_k_docs`` and ``seed`` takes its default.
_VARIANTS: dict[AblationName, tuple[tuple[str, ...], dict]] = {
    AblationName.ALWAYS_RET: (
        ("rerank", "max_relevant"),
        {"force_decision": ForcedDecision.ALWAYS_RET},
    ),
    AblationName.EXTERNAL_SCORER_PASSAGES: (
        ("external_scorer_top",),
        {"selection": SelectionMode.EXTERNAL_SCORER},
    ),
    AblationName.RANDOM_PASSAGES_NOREL: (
        ("random_passages_per_doc",),
        {"selection": SelectionMode.RANDOM_PER_DOC},
    ),
    AblationName.NO_KB: ((), {"force_decision": ForcedDecision.ALWAYS_NORET}),
}


def variant_config(name: AblationName, base: PipelineConfig) -> PipelineConfig:
    """Fixed name-to-config mapping; every variant is config-only."""
    name = AblationName(name)
    if name is AblationName.FULL:
        return base
    keep, sets = _VARIANTS[name]
    return replace(
        PipelineConfig(top_k_docs=base.top_k_docs, seed=base.seed),
        **{field: getattr(base, field) for field in keep},
        **sets,
    )


@dataclass(frozen=True)
class EvalReport:
    num_samples: int
    metrics: dict[str, MetricScore]
    splits: dict[str, dict[str, float]]
    aggregation: str  # "harmonic" | "mean"
    trace_stats: dict

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "metrics": {
                name: {"value": score.value, "num_samples": score.num_samples}
                for name, score in sorted(self.metrics.items())
            },
            "splits": {k: dict(sorted(v.items())) for k, v in sorted(self.splits.items())},
            "aggregation": self.aggregation,
            "trace_stats": self.trace_stats,
        }


def score_answer(
    pred: str, golds: Sequence[str], rel_tol: float = 0.05
) -> dict[str, float]:
    per_gold = [token_f1_em(pred, g) for g in golds]
    f1 = max((f for f, _ in per_gold), default=0.0)
    em = max((e for _, e in per_gold), default=0)
    return {
        "vqa_accuracy": float(vqa_accuracy(pred, golds)),
        "relaxed_accuracy": float(relaxed_accuracy(pred, golds, rel_tol)),
        "token_f1": f1,
        "exact_match": float(em),
    }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def evaluate_traces(
    trace_dicts: Sequence[dict],
    samples: Sequence[QuerySample],
    rel_tol: float = 0.05,
    scores_by_answer: dict | None = None,
) -> EvalReport:
    """Score serialized traces against their samples' gold answers.

    ``scores_by_answer`` maps (sample id, answer) to :func:`score_answer`'s
    result; calls that share it, with the same samples and ``rel_tol``,
    score each distinct answer of a sample once.
    """
    samples_by_id = {s.id: s for s in samples}
    if scores_by_answer is None:
        scores_by_answer = {}
    rows = []
    for trace in sorted(trace_dicts, key=lambda t: t["sample_id"]):
        sample = samples_by_id.get(trace["sample_id"])
        if sample is None:
            raise KeyError(f"trace sample id {trace['sample_id']!r} not in dataset")
        if not sample.gold_answers:
            continue
        key = (sample.id, trace["answer"])
        scores = scores_by_answer.get(key)
        if scores is None:
            scores = scores_by_answer[key] = score_answer(
                trace["answer"], sample.gold_answers, rel_tol
            )
        rows.append((sample, trace, scores))
    if not rows:
        raise ValueError("nothing to score: no traces with gold answers")

    metrics = {
        name: MetricScore(
            name=name,
            value=_mean([scores[name] for _, _, scores in rows]),
            num_samples=len(rows),
        )
        for name in SCORED_METRICS
    }

    subsets = sorted({s.subset for s, _, _ in rows if s.subset is not None})
    splits: dict[str, dict[str, float]] = {}
    for subset in subsets:
        group = [scores for s, _, scores in rows if s.subset == subset]
        entry = {name: _mean([g[name] for g in group]) for name in SCORED_METRICS}
        entry["num_samples"] = float(len(group))
        splits[subset] = entry
    harmonic = (
        set(subsets) == HARMONIC_SUBSETS
        and all(s.subset in HARMONIC_SUBSETS for s, _, _ in rows)
    )
    if harmonic:
        all_entry = {
            name: infoseek_aggregate(
                splits["unseen_q"][name], splits["unseen_e"][name]
            )
            for name in SCORED_METRICS
        }
    else:
        all_entry = {name: metrics[name].value for name in SCORED_METRICS}
    all_entry["num_samples"] = float(len(rows))
    splits["all"] = all_entry

    decisions = [t["decision"]["token"] for _, t, _ in rows]
    distribution = {
        tok.value: decisions.count(tok.value) / len(decisions)
        for tok in (ReflectiveToken.RET, ReflectiveToken.NORET)
    }
    trace_stats = {
        "decision_distribution": distribution,
        "fallback_rate": _mean([float(t["fallback"]) for _, t, _ in rows]),
        "mean_selected": _mean([float(len(t["selected"])) for _, t, _ in rows]),
        "forced_rate": _mean([float(t["forced"]) for _, t, _ in rows]),
        "judge_failures": sum(t["judge_failures"] for _, t, _ in rows),
    }
    return EvalReport(
        num_samples=len(rows),
        metrics=metrics,
        splits=splits,
        aggregation="harmonic" if harmonic else "mean",
        trace_stats=trace_stats,
    )


def _score_fields_of(t: PipelineTrace) -> dict:
    """The fields of ``t``'s trace line that :func:`evaluate_traces` reads."""
    return {
        "sample_id": t.sample_id,
        "decision": {"token": t.decision.token},
        "forced": t.forced,
        "selected": [{"doc_id": p.doc_id, "section_index": p.section_index} for p in t.selected],
        "answer": t.answer,
        "fallback": t.fallback,
        "judge_failures": t.judge_failures,
    }


@dataclass(frozen=True)
class EvalRun:
    report: EvalReport
    traces: list[PipelineTrace]  # empty when the run streamed its traces to a sink
    failures: list[tuple[str, str]]


def evaluate_configs(
    engine: ReflectiveEngine,
    samples: Sequence[QuerySample],
    configs: Sequence[PipelineConfig],
    jobs: int = 1,
    rel_tol: float = 0.05,
    include_timings: bool = True,
    sinks: Sequence[Callable[[str], object] | None] | None = None,
) -> list[EvalRun]:
    """Run every config over a dataset in one pass and score each config.

    One task runs every config of one sample back to back; tasks are
    consumed in sample-id order, so concurrency never changes the output.
    When the backend declares ``in_process = True`` and the engine has no
    reranker, no step waits outside the interpreter, so the tasks run one
    after another on the calling thread, where threads would only contend
    for the interpreter lock. Otherwise up to ``jobs`` tasks run at once on a
    thread pool, and if consuming their results fails, the tasks not yet
    started are cancelled. With more than one config and a deterministic
    backend, each task asks each step of its sample once
    (:meth:`ReflectiveEngine.with_step_memo`), and each distinct answer of a
    sample is scored once. The first sample that retrieves at a given k
    searches the index for every sample that can, in one batch shared among
    ``jobs`` threads on either path (:meth:`ReflectiveEngine.with_batched_search`).

    Without ``sinks`` each run keeps its traces. With them, config i's
    trace lines (:func:`trace_line`, newline-terminated, written in the task
    with one fragment table per sample) go to ``sinks[i]`` as samples
    complete, or nowhere when it is ``None``. Only the fields scoring reads
    (:func:`_score_fields_of`) are held for scoring.
    """
    ordered = sorted(samples, key=lambda s: s.id)
    engine = engine.with_batched_search(ordered, jobs)

    # Each config's trace dict and its JSON, shared by all of its traces.
    config_fragments = {
        id(c._trace_dict): (c._trace_dict, json_line(c._trace_dict)) for c in configs
    }

    def run_sample(sample: QuerySample) -> list[tuple | str]:
        task = engine.with_step_memo() if len(configs) > 1 else engine
        fragments = dict(config_fragments)
        outcomes: list[tuple | str] = []
        for i, config in enumerate(configs):
            try:
                trace = task.run(sample, config)
            except Exception as exc:  # noqa: BLE001 - failures become the manifest
                outcomes.append(f"{type(exc).__name__}: {exc}")
            else:
                kept = trace if sinks is None else (
                    trace_line(trace, include_timings, fragments) if sinks[i] else None
                )
                outcomes.append((kept, _score_fields_of(trace)))
        return outcomes

    traces: list[list] = [[] for _ in configs]
    scored: list[list[dict]] = [[] for _ in configs]
    failures: list[list[tuple[str, str]]] = [[] for _ in configs]

    def consume(results) -> None:
        for sample, outcomes in zip(ordered, results):
            for i, outcome in enumerate(outcomes):
                if isinstance(outcome, str):
                    failures[i].append((sample.id, outcome))
                    continue
                kept, projected = outcome
                if sinks is None:
                    traces[i].append(kept)
                elif kept is not None:
                    sinks[i](kept + "\n")
                scored[i].append(projected)

    in_process = getattr(engine.backend, "in_process", False) is True
    if jobs > 1 and not (in_process and engine.reranker is None):
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            try:
                consume(pool.map(run_sample, ordered))
            except BaseException:
                # map submitted every sample; leaving the block would wait for all
                pool.shutdown(cancel_futures=True)
                raise
    else:
        consume(map(run_sample, ordered))

    runs = []
    scores_by_answer: dict = {}
    for kept, projected, failed in zip(traces, scored, failures):
        for sid, err in failed:
            logger.error("pipeline failed for %s: %s", sid, err)
        if not projected:
            raise RuntimeError("every sample failed; no report to produce")
        report = evaluate_traces(projected, ordered, rel_tol, scores_by_answer)
        runs.append(EvalRun(report, kept, failed))
    return runs


def evaluate_dataset(
    engine: ReflectiveEngine,
    samples: Sequence[QuerySample],
    config: PipelineConfig,
    jobs: int = 1,
    rel_tol: float = 0.05,
) -> EvalRun:
    """Run the pipeline over a dataset and score it: the one-config case of
    :func:`evaluate_configs`, keeping the traces."""
    [run] = evaluate_configs(engine, samples, [config], jobs, rel_tol)
    return run


# --------------------------------------------------------------------------
# Reflective-token accuracy
# --------------------------------------------------------------------------

PASSAGE_DIFFICULTIES = ("pos", "soft", "hard")


@dataclass(frozen=True)
class PassageExpectation:
    doc_id: str
    section_index: int
    difficulty: str  # pos -> expect REL; soft/hard -> expect NOREL

    def __post_init__(self):
        if self.difficulty not in PASSAGE_DIFFICULTIES:
            raise ValueError(f"unknown difficulty {self.difficulty!r}")


@dataclass(frozen=True)
class TokenExpectation:
    sample_id: str
    expected_decision: str | None = None  # "<RET>" | "<NORET>" | None
    passages: tuple[PassageExpectation, ...] = ()


def _passage_expectation(p, field: str) -> PassageExpectation:
    if type(p) is not dict:
        raise ValueError(f"{field} must be a JSON object")
    if type(p.get("doc_id")) is not str or not p["doc_id"]:
        raise ValueError(f"{field}.doc_id must be a non-empty string")
    if type(p.get("section_index")) is not int:
        raise ValueError(f"{field}.section_index must be an integer")
    if p.get("difficulty") not in PASSAGE_DIFFICULTIES:
        raise ValueError(f"{field}.difficulty must be one of {', '.join(PASSAGE_DIFFICULTIES)}")
    return PassageExpectation(p["doc_id"], p["section_index"], p["difficulty"])


def load_expectations(path: str | Path) -> list[TokenExpectation]:
    """The expectations of a JSONL file. A line that is not a JSON object with
    an ``id``, repeats an earlier ``id`` or has a malformed field raises
    ``ValueError`` naming the file, its 1-based line and the field."""
    path = Path(path)
    out: dict[str, TokenExpectation] = {}
    lines = decode_utf8(path.read_bytes(), path, ValueError).splitlines()
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json_value(line)
            if type(obj) is not dict or "id" not in obj:
                raise ValueError("an expectation must be a JSON object with an 'id'")
            sample_id, decision = str(obj["id"]), obj.get("expected_decision")
            passages = obj.get("passages", [])
            if sample_id in out:
                raise ValueError(f"id {sample_id!r} repeats an earlier line's")
            if decision not in (None, *DECISION_TOKENS):
                raise ValueError("expected_decision must be null, '<RET>' or '<NORET>'")
            if type(passages) is not list:
                raise ValueError("passages must be a list")
            out[sample_id] = TokenExpectation(sample_id, decision, tuple(
                _passage_expectation(p, f"passages[{i}]") for i, p in enumerate(passages)
            ))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {line_no}: malformed JSON: {exc.msg}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return list(out.values())


def token_accuracy(
    traces: Sequence[PipelineTrace], expectations: Sequence[TokenExpectation]
) -> dict:
    """Accuracy per token class and per passage difficulty.

    Decision accuracy is bucketed by the expected token (RET vs NORET);
    judgment accuracy by the expected passage difficulty (pos expects REL,
    soft and hard expect NOREL). Expected passages the trace never judged
    are reported in ``missing_judgments``.
    """
    traces_by_id = {t.sample_id: t for t in traces}
    classes = {
        name: {"correct": 0, "total": 0}
        for name in ("ret", "noret", "rel_pos", "norel_soft", "norel_hard")
    }
    missing = 0
    for exp in expectations:
        trace = traces_by_id.get(exp.sample_id)
        if trace is None:
            raise KeyError(f"no trace for expected sample id {exp.sample_id!r}")
        if exp.expected_decision is not None:
            bucket = "ret" if exp.expected_decision == ReflectiveToken.RET.value else "noret"
            classes[bucket]["total"] += 1
            # Forced decisions would trivialize the measurement; score the raw
            # argmax outcome instead.
            raw = (
                ReflectiveToken.RET.value
                if trace.decision.logp_ret > trace.decision.logp_noret
                else ReflectiveToken.NORET.value
            )
            if raw == exp.expected_decision:
                classes[bucket]["correct"] += 1
        if not exp.passages:
            continue
        judged = {j.passage.key: j.token for j in trace.judgments}
        for pexp in exp.passages:
            token = judged.get((pexp.doc_id, pexp.section_index))
            if token is None:
                missing += 1
                continue
            if pexp.difficulty == "pos":
                bucket, expected = "rel_pos", ReflectiveToken.REL.value
            elif pexp.difficulty == "soft":
                bucket, expected = "norel_soft", ReflectiveToken.NOREL.value
            else:
                bucket, expected = "norel_hard", ReflectiveToken.NOREL.value
            classes[bucket]["total"] += 1
            if token == expected:
                classes[bucket]["correct"] += 1
    report = {
        name: {
            "correct": c["correct"],
            "total": c["total"],
            "accuracy": (c["correct"] / c["total"]) if c["total"] else None,
        }
        for name, c in classes.items()
    }
    return {"classes": report, "missing_judgments": missing}


# --------------------------------------------------------------------------
# Report output
# --------------------------------------------------------------------------


def reports_to_json(reports: dict[str, EvalReport], seed: int | None = None) -> str:
    payload: dict = {"variants": {k: v.to_dict() for k, v in sorted(reports.items())}}
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def reports_to_csv(reports: dict[str, EvalReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    split_names = sorted({s for r in reports.values() for s in r.splits})
    header = ["variant", "num_samples", *SCORED_METRICS]
    header += [f"{split}:vqa_accuracy" for split in split_names]
    writer.writerow(header)
    for name, report in sorted(reports.items()):
        row = [name, report.num_samples]
        row += [f"{report.metrics[m].value:.4f}" for m in SCORED_METRICS]
        for split in split_names:
            value = report.splits.get(split, {}).get("vqa_accuracy")
            row.append("" if value is None else f"{value:.4f}")
        writer.writerow(row)
    return buf.getvalue()


def write_report(path: str | Path, reports: dict[str, EvalReport], seed: int | None = None) -> None:
    atomic_write_text(path, reports_to_json(reports, seed))
