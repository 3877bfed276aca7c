"""Dense cosine-similarity document index and coarse-grained retrieval.

Search is exact flat search: scores are dot products of unit-normalized
vectors, equivalent to an exhaustive sort by (score descending, insertion
order ascending). No approximate structures; at the scales this targets,
correctness and oracle-testability win. Queries are scored in blocks, one
float64 matrix product per block (:func:`search_batch`); :func:`search` is
the one-query case, so a query's scores do not depend on how it was batched.
A large batch can be cut into runs of whole blocks scored on several
threads, and every product runs with OpenBLAS held at one thread, so the
threads that score are the callers' own and never oversubscribe the cores.
OpenBLAS splits a product over its rows and columns, never over the inner
dimension, so the thread count does not change any bits.

Index file format: a JSON manifest line ``{"mode","dim","count"}`` followed
by one ``{"doc_id"}`` line per entry; vectors live in a ``<stem>.vec``
little-endian float32 sidecar, row-major, in entry order.
"""
from __future__ import annotations

import hashlib
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from ._http import ServiceClient
from .kb import KnowledgeBase, Passage, passages_of, sidecar_path
from .util import atomic_write_bytes, json_line

logger = logging.getLogger(__name__)


class RetrievalMode(str, Enum):
    TEXTUAL_TITLE = "textual_title"
    TEXTUAL_TITLE_SUMMARY = "textual_title_summary"
    VISUAL = "visual"


class TextEmbedder(Protocol):
    def embed(self, text: str) -> np.ndarray: ...


class EmbedderError(Exception):
    def __init__(self, doc_id: str, cause: Exception):
        super().__init__(f"embedding failed for document {doc_id!r}: {cause}")
        self.doc_id = doc_id


class HashEmbedder:
    """Deterministic pseudo-embedder: hashes text into a seeded unit vector.

    Stands in for a frozen text encoder in tests and synthetic corpora;
    identical text always maps to the identical vector.
    """

    def __init__(self, dim: int, salt: str = ""):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.salt = salt

    def embed(self, text: str) -> np.ndarray:
        digest = hashlib.sha256((self.salt + text).encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.Generator(np.random.PCG64(seed))
        vec = rng.standard_normal(self.dim)
        return vec / np.linalg.norm(vec)


class RemoteTextEmbedder:
    """Adapter to a live embedding service (POST /v1/embed).

    Request ``{"texts": [str, ...]}``; response ``{"embeddings": [[f32...]]}``.
    Never required by tests; dataset files carry precomputed query embeddings.
    """

    def __init__(self, client: ServiceClient):
        self.client = client

    def embed(self, text: str) -> np.ndarray:
        body = self.client.post("/v1/embed", {"texts": [text]})
        vector = body["embeddings"][0]
        # Exact types: numpy would read "0.6" and true as numbers.
        if not isinstance(vector, list) or any(type(x) not in (int, float) for x in vector):
            raise TypeError(f"embedding is not a list of JSON numbers: {vector!r:.200}")
        return np.asarray(vector, dtype=np.float64)


@dataclass(frozen=True)
class RetrievalHit:
    doc_id: str
    score: float
    rank: int  # 1-based; scores non-increasing with rank


@dataclass(frozen=True)
class DenseIndex:
    """Immutable after build; search is pure and thread-safe."""

    mode: RetrievalMode
    dim: int
    doc_ids: tuple[str, ...]
    matrix: np.ndarray  # float64, unit rows, shape (N, dim)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Doc id to its first entry position."""
        out: dict[str, int] = {}
        for i, doc_id in enumerate(self.doc_ids):
            out.setdefault(doc_id, i)
        return out


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero vector cannot be normalized")
    return matrix / norms


def build_index(
    kb: KnowledgeBase,
    mode: RetrievalMode,
    text_embedder: TextEmbedder | None = None,
) -> DenseIndex:
    """One entry per eligible document; vectors are normalized on insertion.

    Visual mode uses the stored image embeddings verbatim (documents without
    one are skipped); textual modes embed the title, optionally plus summary.
    """
    mode = RetrievalMode(mode)
    doc_ids: list[str] = []
    rows: list[np.ndarray] = []
    if mode is RetrievalMode.VISUAL:
        for doc in kb.documents.values():
            if doc.image_embedding is None:
                continue
            doc_ids.append(doc.id)
            rows.append(doc.image_embedding.astype(np.float64))
        if not rows:
            raise ValueError("visual mode: no documents carry image embeddings")
    else:
        if text_embedder is None:
            raise ValueError(f"{mode.value} mode requires a text embedder")
        for doc in kb.documents.values():
            text = (
                doc.title
                if mode is RetrievalMode.TEXTUAL_TITLE
                else doc.title + "\n" + doc.summary
            )
            try:
                vec = np.asarray(text_embedder.embed(text), dtype=np.float64)
            except Exception as exc:
                raise EmbedderError(doc.id, exc) from exc
            if vec.ndim != 1:
                raise EmbedderError(doc.id, ValueError(f"bad shape {vec.shape}"))
            if not np.all(np.isfinite(vec)):
                raise EmbedderError(doc.id, ValueError("non-finite embedding"))
            doc_ids.append(doc.id)
            rows.append(vec)
    matrix = _normalize_rows(np.vstack(rows))
    dim = matrix.shape[1]
    return DenseIndex(mode=mode, dim=dim, doc_ids=tuple(doc_ids), matrix=matrix)


#: Queries per matrix product. Every block is padded to this many rows and
#: multiplied as ``matrix @ block.T``, so each query is one column of a
#: product of the same shape whatever else is in its batch. BLAS picks
#: kernels and thread splits by shape, may split the columns of a
#: ``block @ matrix.T`` product into chunks that round differently, and
#: numpy sends a one-row product to GEMV, which rounds differently again.
_BLOCK = 16
#: Index rows per product, which bounds the buffer BLAS packs them into.
_ROWS = 512


#: (getter, setter) symbol names of the OpenBLAS thread count, by build:
#: plain, 64-bit interface, and the scipy-openblas wheels numpy ships.
_OPENBLAS_THREAD_CALLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@cache
def _openblas_thread_calls() -> tuple:
    """(get, set) of the thread count of the OpenBLAS loaded in this process,
    or ``()`` when there is no ``/proc``, no OpenBLAS or no such symbol."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({
                fields[5] for fields in (line.strip().split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]
            })
    except OSError:
        return ()
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                setter = getattr(lib, set_)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getattr(lib, get), setter
    return ()


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any caller is inside.

    Counted under a lock: the first caller in saves the thread count and sets
    1, and the last caller out restores it. Without OpenBLAS it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            calls = _openblas_thread_calls()
            if calls and self._inside == 0:
                self._saved = calls[0]()
                calls[1](1)
            self._inside += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._inside -= 1
            calls = _openblas_thread_calls()
            if calls and self._inside == 0:
                calls[1](self._saved)


_one_blas_thread = _OneBlasThread()


def _score_blocks(index: DenseIndex, queries: Sequence):
    """Yield ``(start, scores)`` per block of queries; row ``j`` of ``scores``
    scores query ``start + j`` against every entry.

    Queries are widened to float64 a block at a time, and the buffers are
    reused, so read each block before asking for the next.
    """
    for q in queries:
        if np.shape(q) != (index.dim,):
            raise ValueError(f"query dim {np.shape(q)} does not match index dim {index.dim}")
    block = np.zeros((_BLOCK, index.dim))
    product = np.empty((len(index), _BLOCK))
    scores = np.empty((_BLOCK, len(index)))
    for lo in range(0, len(queries), _BLOCK):
        m = min(_BLOCK, len(queries) - lo)
        block[:m] = queries[lo : lo + m]
        block[m:] = 0.0
        for r in range(0, len(index), _ROWS):
            np.matmul(index.matrix[r : r + _ROWS], block.T, out=product[r : r + _ROWS])
        scores[...] = product.T
        yield lo, scores[:m]


def _top_k(index: DenseIndex, queries: Sequence, k: int) -> list[list[RetrievalHit]]:
    n = len(index)
    out = []
    for _, scores in _score_blocks(index, queries):
        for row in scores:
            kth = np.partition(row, n - k)[n - k]
            top = np.flatnonzero(row >= kth)
            top = top[np.argsort(-row[top], kind="stable")[:k]]
            out.append([
                RetrievalHit(doc_id=index.doc_ids[i], score=float(row[i]), rank=rank)
                for rank, i in enumerate(top, start=1)
            ])
    return out


def search_batch(
    index: DenseIndex,
    queries: Sequence[Sequence[float]] | np.ndarray,
    k: int,
    workers: int = 1,
) -> list[list[RetrievalHit]]:
    """Top-k entries for each query; ties break toward earlier insertion.

    Each row is partitioned at its k-th best score and only the entries at or
    above it are sorted, by (score descending, position ascending). A query's
    hits are the same bits whichever batch it is in. With ``workers > 1`` the
    queries are cut into at most that many contiguous runs of whole blocks,
    scored on as many threads and joined in order; each block is the one a
    single worker scores, so the hits are the same bits too.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    k = min(k, len(index))
    blocks = -(-len(queries) // _BLOCK)
    with _one_blas_thread:
        if min(workers, blocks) <= 1:
            return _top_k(index, queries, k)
        step = -(-blocks // workers) * _BLOCK
        runs = [queries[lo : lo + step] for lo in range(0, len(queries), step)]
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            parts = pool.map(lambda run: _top_k(index, run, k), runs)
            return [hits for part in parts for hits in part]


def search(index: DenseIndex, query: Sequence[float] | np.ndarray, k: int) -> list[RetrievalHit]:
    """Top-k entries by cosine score; the one-query case of :func:`search_batch`."""
    return search_batch(index, [query], k)[0]


def candidate_passages(
    kb: KnowledgeBase, hits: Sequence[RetrievalHit], k: int
) -> list[Passage]:
    """Union of passages from the first min(k, |hits|) hits.

    Order is (document rank, section order); sections are distinct so no
    deduplication is needed.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    ranks = [h.rank for h in hits]
    if ranks != sorted(ranks):
        raise ValueError("hits must be sorted by rank")
    out: list[Passage] = []
    for hit in hits[: min(k, len(hits))]:
        out.extend(passages_of(kb, hit.doc_id))
    return out


@dataclass(frozen=True)
class RecallEntry:
    k: int
    recall: float
    num_queries: int


@dataclass(frozen=True)
class RecallReport:
    entries: tuple[RecallEntry, ...]
    num_excluded: int
    excluded: tuple[str, ...]  # one message per excluded query

    def to_json_obj(self) -> list[dict]:
        return [
            {"k": e.k, "recall": e.recall, "num_queries": e.num_queries}
            for e in self.entries
        ]


def _gold_position(index: DenseIndex, gold_doc_id: str) -> int:
    pos = index.positions.get(gold_doc_id)
    if pos is None:
        raise LookupError(f"gold document {gold_doc_id!r} not in index")
    return pos


def _rank_in(scores: np.ndarray, pos: int) -> int:
    gold = scores[pos]
    return int(np.sum(scores > gold)) + int(np.sum(scores[:pos] == gold)) + 1


def gold_rank(index: DenseIndex, query: np.ndarray, gold_doc_id: str) -> int:
    """1-based rank of the gold document under search ordering."""
    pos = _gold_position(index, gold_doc_id)
    with _one_blas_thread:
        _, scores = next(_score_blocks(index, [query]))
        return _rank_in(scores[0], pos)


def recall_at_k(
    index: DenseIndex,
    queries: Sequence[tuple[Sequence[float], str]],
    ks: Sequence[int],
) -> RecallReport:
    """Fraction of queries whose gold document lands in the top-k.

    Queries with an unknown gold id are excluded (and counted), not fatal.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive integers")
    known: list[tuple[Sequence[float], int]] = []
    excluded: list[str] = []
    for i, (vec, gold) in enumerate(queries):
        try:
            known.append((vec, _gold_position(index, gold)))
        except LookupError as exc:
            excluded.append(f"query {i}: {exc}")
    ranks: list[int] = []
    if known:
        with _one_blas_thread:
            for lo, scores in _score_blocks(index, [vec for vec, _ in known]):
                ranks.extend(_rank_in(row, known[lo + j][1]) for j, row in enumerate(scores))
    entries = []
    n = len(ranks)
    for k in ks:
        hit = sum(1 for r in ranks if r <= k)
        entries.append(RecallEntry(k=int(k), recall=(hit / n) if n else 0.0, num_queries=n))
    if excluded:
        logger.warning("recall evaluation excluded %d queries", len(excluded))
    return RecallReport(
        entries=tuple(entries), num_excluded=len(excluded), excluded=tuple(excluded)
    )


def save_recall_report(report: RecallReport, path: str | Path) -> Path:
    atomic_write_bytes(
        path,
        (json.dumps(report.to_json_obj(), indent=2) + "\n").encode("utf-8"),
    )
    return Path(path)


# An index's vectors sit beside it under the same rule as a KB's.
index_sidecar_path = sidecar_path


def save_index(index: DenseIndex, path: str | Path) -> Path:
    path = Path(path)
    lines = [
        json_line({"mode": index.mode.value, "dim": index.dim, "count": len(index)})
    ]
    lines.extend(json_line({"doc_id": d}) for d in index.doc_ids)
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))
    atomic_write_bytes(
        sidecar_path(path), index.matrix.astype("<f4").tobytes(order="C")
    )
    return path


def load_index(path: str | Path) -> DenseIndex:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty index file")
    header = json.loads(lines[0])
    mode = RetrievalMode(header["mode"])
    dim = int(header["dim"])
    count = int(header["count"])
    doc_ids = tuple(json.loads(line)["doc_id"] for line in lines[1:] if line.strip())
    if len(doc_ids) != count:
        raise ValueError(f"{path}: header count {count} != {len(doc_ids)} entries")
    raw = np.fromfile(sidecar_path(path), dtype="<f4")
    if raw.size != count * dim:
        raise ValueError(f"{path}: sidecar size mismatch")
    matrix = raw.reshape(count, dim).astype(np.float64)
    return DenseIndex(mode=mode, dim=dim, doc_ids=doc_ids, matrix=matrix)
