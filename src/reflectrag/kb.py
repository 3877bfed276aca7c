"""Knowledge-base loading, validation, and passage views.

A KB is a JSONL file: a manifest line followed by one document per line.
Documents carry a title, an optional summary, ordered sections, and an
optional precomputed unit-norm image embedding. Raw pixels never enter the
system. Passages are views onto sections (one passage per section, no
re-chunking), so (doc_id, section_index) is a stable passage identity.

File format::

    {"manifest": true, "embedding_dim": D, "count": N}            # line 1
    {"id","title","summary","sections":[{"title","text"}],
     "image_embedding": [f32...] | null}                          # lines 2..N+1

With ``"embeddings": "sidecar"`` in the manifest, inline embeddings must be
null and a ``<stem>.vec`` file holds N rows of D little-endian float32 values,
one row per document in file order.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import atomic_write_bytes, json_line

logger = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-4


class KBLoadError(Exception):
    """Schema or invariant violation in a KB file."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class Section:
    title: str
    text: str


@dataclass(frozen=True, eq=False)
class Document:
    id: str
    title: str
    summary: str
    sections: tuple[Section, ...]
    image_embedding: np.ndarray | None  # float32, unit norm, read-only

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        if (self.id, self.title, self.summary, self.sections) != (
            other.id,
            other.title,
            other.summary,
            other.sections,
        ):
            return False
        if (self.image_embedding is None) != (other.image_embedding is None):
            return False
        if self.image_embedding is None:
            return True
        return np.array_equal(self.image_embedding, other.image_embedding)


@dataclass(frozen=True)
class Passage:
    """View onto one section of a document; text is never edited."""

    doc_id: str
    section_index: int
    text: str

    @property
    def key(self) -> tuple[str, int]:
        return (self.doc_id, self.section_index)


@dataclass(frozen=True)
class SourceManifest:
    path: str
    count: int
    checksum: str
    embedding_storage: str  # "inline" | "sidecar" | "memory"


@dataclass(frozen=True, eq=False)
class KnowledgeBase:
    """Immutable after load; concurrent reads are safe."""

    documents: dict[str, Document]
    embedding_dim: int
    source_manifest: SourceManifest

    def __len__(self) -> int:
        return len(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.documents

    def document(self, doc_id: str) -> Document:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise LookupError(f"unknown document id: {doc_id!r}") from None

    def doc_ids(self) -> list[str]:
        return list(self.documents)

    def __eq__(self, other: object) -> bool:
        # Content equality; provenance (source_manifest) deliberately excluded.
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return (
            self.embedding_dim == other.embedding_dim
            and list(self.documents) == list(other.documents)
            and all(self.documents[k] == other.documents[k] for k in self.documents)
        )


def _as_unit_embedding(values, dim: int, doc_id: str, line_no: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise KBLoadError(
            f"document {doc_id!r}: embedding length {arr.shape[0] if arr.ndim == 1 else arr.shape} "
            f"does not match manifest dim {dim}",
            line_no,
        )
    norm = float(np.linalg.norm(arr.astype(np.float64)))
    if not math.isfinite(norm) or abs(norm - 1.0) > UNIT_NORM_TOL:
        raise KBLoadError(
            f"document {doc_id!r}: embedding not unit-normalized (norm={norm:.6g})",
            line_no,
        )
    arr.setflags(write=False)
    return arr


def _parse_document(
    obj: dict, dim: int, line_no: int, row: np.ndarray | None = None, row_cleared: bool = False
) -> Document:
    """The document of one KB line; in sidecar mode ``row`` is its sidecar
    row, whose norm is checked unless ``row_cleared``."""
    for key in ("id", "title", "summary", "sections", "image_embedding"):
        if key not in obj:
            raise KBLoadError(f"missing required key {key!r}", line_no)
    doc_id = obj["id"]
    if not isinstance(doc_id, str) or not doc_id:
        raise KBLoadError("document id must be a non-empty string", line_no)
    title = obj["title"]
    if not isinstance(title, str) or not title.strip():
        raise KBLoadError(f"document {doc_id!r}: title must be non-empty", line_no)
    sections = []
    for idx, sec in enumerate(obj["sections"]):
        if not isinstance(sec, dict) or "title" not in sec or "text" not in sec:
            raise KBLoadError(
                f"document {doc_id!r}: section {idx} must have title and text", line_no
            )
        if not str(sec["text"]).strip():
            raise KBLoadError(
                f"document {doc_id!r}: section {idx} has empty body", line_no
            )
        sections.append(Section(title=str(sec["title"]), text=str(sec["text"])))
    emb = obj["image_embedding"]
    embedding = None if emb is None else _as_unit_embedding(emb, dim, doc_id, line_no)
    if row is not None:
        if embedding is not None:
            raise KBLoadError(
                f"document {doc_id!r}: inline embedding present in sidecar mode", line_no
            )
        embedding = row if row_cleared else _as_unit_embedding(row, dim, doc_id, line_no)
    return Document(
        id=doc_id,
        title=title,
        summary=str(obj["summary"]),
        sections=tuple(sections),
        image_embedding=embedding,
    )


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".vec")


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load and validate a KB file; every violation is a hard error.

    Documents without an image embedding are accepted with a logged warning
    (they are simply invisible to visual-mode indexing).
    """
    path = Path(path)
    raw = path.read_bytes()
    checksum = hashlib.sha256(raw).hexdigest()
    lines = raw.decode("utf-8").splitlines()
    if not lines:
        raise KBLoadError("empty file", 1)

    try:
        manifest = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise KBLoadError(f"malformed JSON: {exc.msg}", 1) from exc
    if not isinstance(manifest, dict) or manifest.get("manifest") is not True:
        raise KBLoadError("first line must be the manifest record", 1)
    try:
        dim = int(manifest["embedding_dim"])
        count = int(manifest["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise KBLoadError(f"manifest missing embedding_dim/count: {exc}", 1) from exc
    if dim < 1:
        raise KBLoadError("embedding_dim must be positive", 1)
    storage = manifest.get("embeddings", "inline")
    if storage not in ("inline", "sidecar"):
        raise KBLoadError(f"unknown embeddings storage {storage!r}", 1)

    sidecar = None
    if storage == "sidecar":
        vec_path = sidecar_path(path)
        if not vec_path.exists():
            raise KBLoadError(f"sidecar file not found: {vec_path}", 1)
        sidecar = np.fromfile(vec_path, dtype="<f4")
        if sidecar.size != count * dim:
            raise KBLoadError(
                f"sidecar holds {sidecar.size} floats, expected {count}x{dim}", 1
            )
        sidecar = sidecar.reshape(count, dim)
        sidecar.setflags(write=False)
        # |n*n - 1| <= tol implies |n - 1| < tol, so one float64 pass clears
        # the rows that need no check; the rest get the per-row check in order.
        squares = np.einsum("ij,ij->i", sidecar, sidecar, dtype=np.float64)
        cleared = np.abs(squares - 1.0) <= UNIT_NORM_TOL

    documents: dict[str, Document] = {}
    body_lines = [(i + 2, line) for i, line in enumerate(lines[1:]) if line.strip()]
    if len(body_lines) != count:
        raise KBLoadError(
            f"manifest count {count} does not match {len(body_lines)} records", 1
        )
    missing_embeddings = 0
    for row, (line_no, line) in enumerate(body_lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise KBLoadError(f"malformed JSON: {exc.msg}", line_no) from exc
        if sidecar is None:
            doc = _parse_document(obj, dim, line_no)
        else:
            doc = _parse_document(obj, dim, line_no, sidecar[row], cleared[row])
        if doc.id in documents:
            raise KBLoadError(f"duplicate document id {doc.id!r}", line_no)
        if doc.image_embedding is None:
            missing_embeddings += 1
        documents[doc.id] = doc

    if not documents:
        raise KBLoadError("knowledge base contains no documents", 1)
    if missing_embeddings:
        logger.warning(
            "%d/%d documents have no image embedding; visual-mode indexing "
            "will skip them",
            missing_embeddings,
            len(documents),
        )
    return KnowledgeBase(
        documents=documents,
        embedding_dim=dim,
        source_manifest=SourceManifest(
            path=str(path), count=len(documents), checksum=checksum,
            embedding_storage=storage,
        ),
    )


def save_kb(kb: KnowledgeBase, path: str | Path, embeddings: str = "inline") -> Path:
    """Serialize back to the JSONL format (atomically). Returns the path."""
    if embeddings not in ("inline", "sidecar"):
        raise ValueError(f"unknown embeddings storage {embeddings!r}")
    path = Path(path)
    manifest: dict = {
        "manifest": True,
        "embedding_dim": kb.embedding_dim,
        "count": len(kb),
    }
    if embeddings == "sidecar":
        manifest["embeddings"] = "sidecar"
    lines = [json_line(manifest)]
    rows = []
    for doc in kb.documents.values():
        if embeddings == "sidecar":
            if doc.image_embedding is None:
                raise ValueError(
                    f"document {doc.id!r} has no embedding; sidecar mode requires all"
                )
            rows.append(doc.image_embedding.astype("<f4"))
            emb_field = None
        else:
            emb_field = (
                None
                if doc.image_embedding is None
                else [float(x) for x in doc.image_embedding]
            )
        lines.append(
            json_line(
                {
                    "id": doc.id,
                    "title": doc.title,
                    "summary": doc.summary,
                    "sections": [{"title": s.title, "text": s.text} for s in doc.sections],
                    "image_embedding": emb_field,
                }
            )
        )
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    if embeddings == "sidecar":
        atomic_write_bytes(sidecar_path(path), np.vstack(rows).tobytes(order="C"))
    return path


def passages_of(kb: KnowledgeBase, doc_id: str) -> list[Passage]:
    """All sections of a document as passages, in section order. Pure."""
    doc = kb.document(doc_id)
    return [
        Passage(doc_id=doc.id, section_index=i, text=sec.text)
        for i, sec in enumerate(doc.sections)
    ]
