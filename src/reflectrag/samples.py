"""Query samples: the unit of work for inference, mining, and evaluation.

Dataset files are JSONL, one sample per line::

    {"id": str, "question": str, "image_ref": str,
     "image_embedding": [f32...] | null, "gold_answers": [str, ...],
     "gold_doc_id": str | null, "dataset": str, "split": str}

Two optional keys are accepted: ``"subset"`` (an evaluation-split tag such as
``unseen_q`` / ``unseen_e`` / ``single_hop``, used for report breakdowns) and
``"captions"`` (precomputed image descriptions, kept through load and save;
no stage here reads them).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import atomic_write_bytes, json_line


class SampleError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class QuerySample:
    id: str
    question: str
    image_ref: str
    image_embedding: np.ndarray | None
    gold_answers: tuple[str, ...]
    gold_doc_id: str | None
    dataset: str
    split: str
    subset: str | None = None
    captions: tuple[str, ...] = ()

    def __post_init__(self):
        if self.split in ("train", "val") and not self.gold_answers:
            raise SampleError(
                f"sample {self.id!r}: gold_answers required for split {self.split!r}"
            )
        if self.image_embedding is not None:
            norm = float(np.linalg.norm(self.image_embedding))
            if not math.isfinite(norm) or norm == 0.0:
                raise SampleError(f"sample {self.id!r}: degenerate image embedding")


def sample_from_dict(obj: dict) -> QuerySample:
    emb = obj.get("image_embedding")
    embedding = None if emb is None else np.asarray(emb, dtype=np.float32)
    if embedding is not None:
        embedding.setflags(write=False)
    return QuerySample(
        id=str(obj["id"]),
        question=str(obj["question"]),
        image_ref=str(obj["image_ref"]),
        image_embedding=embedding,
        gold_answers=tuple(str(a) for a in obj.get("gold_answers", [])),
        gold_doc_id=obj.get("gold_doc_id"),
        dataset=str(obj.get("dataset", "unknown")),
        split=str(obj.get("split", "test")),
        subset=obj.get("subset"),
        captions=tuple(obj.get("captions", ())),
    )


def sample_to_dict(sample: QuerySample) -> dict:
    out = {
        "id": sample.id,
        "question": sample.question,
        "image_ref": sample.image_ref,
        "image_embedding": None
        if sample.image_embedding is None
        else [float(x) for x in sample.image_embedding],
        "gold_answers": list(sample.gold_answers),
        "gold_doc_id": sample.gold_doc_id,
        "dataset": sample.dataset,
        "split": sample.split,
    }
    if sample.subset is not None:
        out["subset"] = sample.subset
    if sample.captions:
        out["captions"] = list(sample.captions)
    return out


def load_samples(path: str | Path) -> list[QuerySample]:
    samples = []
    seen: set[str] = set()
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SampleError(f"{path}: line {line_no}: malformed JSON: {exc.msg}")
        sample = sample_from_dict(obj)
        if sample.id in seen:
            raise SampleError(f"{path}: line {line_no}: duplicate sample id {sample.id!r}")
        seen.add(sample.id)
        samples.append(sample)
    return samples


def save_samples(samples: list[QuerySample], path: str | Path) -> Path:
    lines = [json_line(sample_to_dict(s)) for s in samples]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return Path(path)
