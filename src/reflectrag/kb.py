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
one row per document in file order, exactly ``N * D * 4`` bytes; it is
memory-mapped read-only.

:func:`save_kb` also writes ``<stem>.idx`` when every record passes the
checks, and :func:`write_offset_index` does for a KB :func:`load_kb` read:
the KB's sha256 and each document's id and byte offset. When the
sha256 matches and every sidecar row is unit-norm, :func:`load_kb` parses a
document on first access, with the same checks; otherwise it validates all
of them, so deleting the ``.idx`` is always safe.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import atomic_write_bytes, decode_utf8, json_line, json_value

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

    documents: Mapping[str, Document]
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
    obj, dim: int, line_no: int, row: np.ndarray | None = None, row_cleared: bool = False
) -> Document:
    """The document of one KB line, as text or as its record; in sidecar mode
    ``row`` is its sidecar row, whose norm is checked unless ``row_cleared``."""
    if isinstance(obj, str):
        try:
            obj = json_value(obj)
        except json.JSONDecodeError as exc:
            raise KBLoadError(f"malformed JSON: {exc.msg}", line_no) from exc
    if not isinstance(obj, dict):
        raise KBLoadError("document record must be a JSON object", line_no)
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
        text = str(sec["text"])
        if not text.strip():
            raise KBLoadError(
                f"document {doc_id!r}: section {idx} has empty body", line_no
            )
        sections.append(Section(str(sec["title"]), text))
    emb = obj["image_embedding"]
    embedding = None if emb is None else _as_unit_embedding(emb, dim, doc_id, line_no)
    if row is not None:
        if embedding is not None:
            raise KBLoadError(
                f"document {doc_id!r}: inline embedding present in sidecar mode", line_no
            )
        embedding = row if row_cleared else _as_unit_embedding(row, dim, doc_id, line_no)
    return Document(doc_id, title, str(obj["summary"]), tuple(sections), embedding)


class _Documents(Mapping):
    """Doc id -> Document, in file order. A document not parsed yet is parsed
    from its line on first access and must carry the id it was looked up by."""

    def __init__(self, rows: dict[str, int], raw=b"", offsets=(), dim=0, sidecar=None):
        self._rows = rows  # doc id -> its row; a document's line is row + 2
        self._raw, self._offsets, self._dim, self._sidecar = raw, offsets, dim, sidecar
        self._parsed: dict[str, Document] = {}

    def __getitem__(self, doc_id: str) -> Document:
        doc = self._parsed.get(doc_id)
        if doc is None:
            row = self._rows[doc_id]
            start = self._offsets[row]
            end = self._raw.find(b"\n", start)  # -1 on a last line with no "\n"
            line = self._raw[start : None if end < 0 else end].decode()
            vec = () if self._sidecar is None else (self._sidecar[row], True)  # all cleared
            doc = _parse_document(line, self._dim, row + 2, *vec)
            if doc.id != doc_id:
                raise KBLoadError(f"offset index gives {doc_id!r} the line of {doc.id!r}", row + 2)
            self._parsed[doc_id] = doc  # threads that race parse equal documents
        return doc

    def __contains__(self, doc_id) -> bool:  # Mapping's would parse the document
        return doc_id in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".vec")


def idx_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".idx")


def load_kb(path: str | Path) -> KnowledgeBase:
    """Load and validate a KB file; every violation is a hard error.

    Documents without an image embedding are accepted with a logged warning
    (they are simply invisible to visual-mode indexing). With a matching
    offset index, documents are validated as they are first read.
    """
    path = Path(path)
    raw = path.read_bytes()
    checksum = hashlib.sha256(raw).hexdigest()
    table = None  # (id -> row, offsets, missing embeddings) of a well-formed .idx for these bytes
    with suppress(OSError, ValueError, KeyError, TypeError):
        idx = json.loads(idx_path(path).read_bytes())
        ids, offsets, missing = idx["ids"], idx["offsets"], idx["missing_embeddings"]
        if (idx["sha256"] == checksum and type(missing) is int
                and set(map(type, ids)) <= {str} and set(map(type, offsets)) <= {int}):
            rows = dict(zip(ids, range(len(ids))))
            if len(ids) == len(offsets) == len(rows):
                table = rows, offsets, missing
    lines = None if table else decode_utf8(raw, path, KBLoadError).splitlines()
    if lines == []:
        raise KBLoadError("empty file", 1)

    try:
        manifest = json.loads(raw[: raw.find(b"\n")] if lines is None else lines[0])
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
        size = vec_path.stat().st_size
        if size != count * dim * 4:
            held = f"{size} bytes" if size % 4 else f"{size // 4} floats"
            raise KBLoadError(f"sidecar holds {held}, expected {count}x{dim}", 1)
        sidecar = np.zeros((0, dim), "<f4")  # mmap cannot map an empty file
        if size:
            sidecar = np.asarray(np.memmap(vec_path, "<f4", "r", shape=(count, dim)))
        # |n*n - 1| <= tol implies |n - 1| < tol, so one float64 pass clears
        # the rows that need no check; the rest get the per-row check in order.
        squares = np.einsum("ij,ij->i", sidecar, sidecar, dtype=np.float64)
        cleared = np.abs(squares - 1.0) <= UNIT_NORM_TOL

    if table is not None and len(table[0]) == count and (sidecar is None or cleared.all()):
        rows, offsets, missing_embeddings = table
        documents = _Documents(rows, raw, offsets, dim, sidecar)
    else:
        if lines is None:  # the .idx's count is not the manifest's, or a row needs its check
            lines = decode_utf8(raw, path, KBLoadError).splitlines()
        documents = _Documents({})
        body_lines = [(i + 2, line) for i, line in enumerate(lines[1:]) if line.strip()]
        if len(body_lines) != count:
            raise KBLoadError(
                f"manifest count {count} does not match {len(body_lines)} records", 1
            )
        for row, (line_no, line) in enumerate(body_lines):
            if sidecar is None:
                doc = _parse_document(line, dim, line_no)
            else:
                doc = _parse_document(line, dim, line_no, sidecar[row], cleared[row])
            if doc.id in documents:
                raise KBLoadError(f"duplicate document id {doc.id!r}", line_no)
            documents._rows[doc.id] = row
            documents._parsed[doc.id] = doc
        missing_embeddings = sum(d.image_embedding is None for d in documents.values())

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
    """Serialize back to the JSONL format (atomically), then its offset index
    if every record passes :func:`load_kb`'s checks. Returns the path."""
    if embeddings not in ("inline", "sidecar"):
        raise ValueError(f"unknown embeddings storage {embeddings!r}")
    path = Path(path)
    idx_path(path).unlink(missing_ok=True)
    manifest: dict = {
        "manifest": True,
        "embedding_dim": kb.embedding_dim,
        "count": len(kb),
    }
    if embeddings == "sidecar":
        manifest["embeddings"] = "sidecar"
    lines = [json_line(manifest)]
    rows = []
    checked = True  # every record so far passes load_kb's checks
    for line_no, doc in enumerate(kb.documents.values(), start=2):
        row = emb_field = None
        if embeddings == "sidecar":
            if doc.image_embedding is None:
                raise ValueError(
                    f"document {doc.id!r} has no embedding; sidecar mode requires all"
                )
            row = doc.image_embedding.astype("<f4")
            rows.append(row)
        elif doc.image_embedding is not None:
            emb_field = np.asarray(doc.image_embedding).tolist()
        record = {
            "id": doc.id,
            "title": doc.title,
            "summary": doc.summary,
            "sections": [{"title": s.title, "text": s.text} for s in doc.sections],
            "image_embedding": emb_field,
        }
        lines.append(json_line(record))
        if checked:
            try:
                _parse_document(record, kb.embedding_dim, line_no, row)
            except KBLoadError:
                checked = False
    if embeddings == "sidecar":
        atomic_write_bytes(sidecar_path(path), np.vstack(rows).tobytes(order="C"))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    atomic_write_bytes(path, data)
    if checked:
        _write_offset_index(path, data, kb.documents.values())
    return path


def write_offset_index(kb: KnowledgeBase) -> Path | None:
    """Write the offset index of a KB :func:`load_kb` read, after checking every
    document, if its file is unchanged since. Returns the ``.idx`` path, if written."""
    path = Path(kb.source_manifest.path)
    data = path.read_bytes()
    docs = list(kb.documents.values())  # parses every document not parsed yet
    unchanged = hashlib.sha256(data).hexdigest() == kb.source_manifest.checksum
    return idx_path(path) if unchanged and _write_offset_index(path, data, docs) else None


# Line breaks, other than "\n" and "\r\n", at which str.splitlines splits a line
_OTHER_BREAKS = tuple(c.encode() for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _write_offset_index(path: Path, data: bytes, docs) -> bool:
    """Write ``<stem>.idx`` for the KB file ``path`` holding ``data``, whose records,
    ``docs`` in file order, pass :func:`load_kb`'s checks; unless a line after the
    manifest is blank or holds other than one whole record."""
    ids = [d.id for d in docs]
    offsets, start = [], data.find(b"\n") + 1
    while 0 < start < len(data):
        offsets.append(start)
        start = data.find(b"\n", start) + 1
    if (len(offsets) != len(ids) or len(set(ids)) != len(ids)
            or any(b in data for b in _OTHER_BREAKS) or data.count(b"\r") != data.count(b"\r\n")):
        return False
    missing = sum(d.image_embedding is None for d in docs)
    table = {"sha256": hashlib.sha256(data).hexdigest(), "missing_embeddings": missing,
             "ids": ids, "offsets": offsets}
    atomic_write_bytes(idx_path(path), json_line(table).encode("ascii"))
    return True


def passages_of(kb: KnowledgeBase, doc_id: str) -> list[Passage]:
    """All sections of a document as passages, in section order. Pure."""
    doc = kb.document(doc_id)
    return [
        Passage(doc_id=doc.id, section_index=i, text=sec.text)
        for i, sec in enumerate(doc.sections)
    ]
