"""Query samples: the unit of work for inference, mining, and evaluation.

Dataset files are JSONL, one sample per line::

    {"id": str, "question": str, "image_ref": str,
     "image_embedding": [f32...] | {"row": int} | null, "gold_answers": [str, ...],
     "gold_doc_id": str | null, "dataset": str, "split": str}

An embedding is either inline, a list of JSON numbers, or ``{"row": i}``: row
``i`` of ``<stem>.npy`` beside the file, a 2-D little-endian float32 NumPy
array that :func:`load_samples` memory-maps read-only. :func:`save_samples`
writes the row form, one row per sample with an embedding, in file order;
:func:`sample_to_dict` gives the inline form. A file may mix both forms.

:func:`load_samples` decodes each line with :func:`~reflectrag.util.json_value`
and rejects, naming the file and the 1-based line, one that is not a JSON
object, lacks ``id``, ``question`` or ``image_ref``, or repeats an id.

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

from .util import (
    atomic_open, atomic_write_bytes, decode_utf8, is_json_numbers, json_line, json_value,
)


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


def embeddings_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".npy")


def _embedding_rows(path: Path) -> np.ndarray:
    npy = embeddings_path(path)
    try:
        rows = np.lib.format.open_memmap(npy, mode="r")
    except FileNotFoundError:
        raise SampleError(f"{npy}: embeddings file not found") from None
    except (OSError, ValueError) as exc:
        raise SampleError(f"{npy}: not a NumPy array file: {exc}") from None
    if rows.ndim != 2 or rows.dtype.str != "<f4":
        raise SampleError(
            f"{npy}: holds a {rows.ndim}-D {rows.dtype.str} array, not a 2-D <f4 one")
    return np.asarray(rows)


def load_samples(path: str | Path) -> list[QuerySample]:
    path = Path(path)
    samples = []
    seen: set[str] = set()
    rows = None  # <stem>.npy, opened at the first line that names a row of it
    text = decode_utf8(path.read_bytes(), path, SampleError)
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json_value(line)
        except json.JSONDecodeError as exc:
            raise SampleError(f"{path}: line {line_no}: malformed JSON: {exc.msg}")
        if type(obj) is not dict:
            raise SampleError(f"{path}: line {line_no}: a sample must be a JSON object")
        for key in ("id", "question", "image_ref"):
            if key not in obj:
                raise SampleError(f"{path}: line {line_no}: missing required key {key!r}")
        emb = obj.get("image_embedding")
        if type(emb) is dict:
            rows = _embedding_rows(path) if rows is None else rows
            row = emb.get("row")
            if emb.keys() != {"row"} or type(row) is not int or not 0 <= row < len(rows):
                raise SampleError(f"{path}: line {line_no}: image_embedding {json_line(emb)} "
                                  f'is not {{"row": i}} with 0 <= i < {len(rows)}')
            obj["image_embedding"] = rows[row]
        elif emb is not None and not is_json_numbers(emb):
            raise SampleError(f"{path}: line {line_no}: image_embedding must be null, "
                              'a list of JSON numbers or {"row": i}')
        sample = sample_from_dict(obj)
        if sample.id in seen:
            raise SampleError(f"{path}: line {line_no}: duplicate sample id {sample.id!r}")
        seen.add(sample.id)
        samples.append(sample)
    return samples


def save_samples(samples: list[QuerySample], path: str | Path) -> Path:
    """Write ``samples`` atomically: first the embeddings, as rows of
    ``<stem>.npy``, then the JSONL. Embeddings that are not all 1-D of one
    length stay inline, and a file with no embeddings gets no ``.npy``."""
    path = Path(path)
    records = [sample_to_dict(s) for s in samples]
    rows = [s.image_embedding for s in samples if s.image_embedding is not None]
    sidecar = len({e.shape for e in rows}) == 1 and rows[0].ndim == 1
    if sidecar:
        with atomic_open(embeddings_path(path), "wb") as fh:
            np.save(fh, np.stack(rows).astype("<f4"))
        embedded = (r for r in records if r["image_embedding"] is not None)
        for row, record in enumerate(embedded):
            record["image_embedding"] = {"row": row}
    lines = [json_line(r) for r in records]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    if not sidecar:
        embeddings_path(path).unlink(missing_ok=True)
    return path
