"""Dense cosine-similarity document index and coarse-grained retrieval.

Search is exact flat search: scores are dot products of unit-normalized
vectors, equivalent to an exhaustive sort by (score descending, insertion
order ascending). No approximate structures; at the scales this targets,
correctness and oracle-testability win.

Every score a search returns is one column of a canonical float64 product,
a slab of at most 512 index rows, widened exactly to float64, times a
zero-padded block of 16 queries (:func:`_score_blocks`). A query's column
does not depend on what else is in its block, so its hits are the same bits
however it was batched. On an index of more than 2k slabs, top-k search
screens first: a float32 product scores each group of queries against every
entry and keeps, per query, the entries within a proven rounding margin of
its k-th screened score. Only the slabs that hold a candidate get the
canonical product, with the queries that need a slab packed into its
blocks, and the candidates are then sorted exactly. :func:`gold_rank` and
:func:`recall_at_k` need every score and take the product of every slab.

A large batch can be cut into runs of whole blocks searched on several
threads, and every product runs with OpenBLAS held at one thread, so the
threads that score are the callers' own and never oversubscribe the cores.
OpenBLAS splits a product over its rows and columns, never over the inner
dimension, so the thread count does not change any bits.

Index file format: a JSON manifest line ``{"mode","dim","count"}``, one
``{"doc_id"}`` line per entry, and a ``<stem>.vec`` sidecar of little-endian
float32 rows in entry order, which a loaded index holds as its matrix.
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

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
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
    matrix: np.ndarray  # unit rows, shape (N, dim); float32 as loaded, float64 as built

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __post_init__(self):
        if self.matrix.shape != (len(self.doc_ids), self.dim):
            raise ValueError(f"matrix shape {self.matrix.shape} is not ({len(self)}, {self.dim})")
        # a row's float64 sum is finite when its values are, unless it overflows
        for pos in np.flatnonzero(~np.isfinite(self.matrix.sum(axis=1, dtype=np.float64))):
            if not np.isfinite(self.matrix[pos]).all():
                raise ValueError(f"entry {pos} ({self.doc_ids[pos]!r}) has a value that is not finite")
        self.matrix.setflags(write=False)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Doc id to its first entry position."""
        out: dict[str, int] = {}
        for i, doc_id in enumerate(self.doc_ids):
            out.setdefault(doc_id, i)
        return out

    @cached_property
    def _longest_row(self) -> float:
        """Largest row norm, its squares summed in float64."""
        squares = np.einsum("ij,ij->i", self.matrix, self.matrix, dtype=np.float64)
        return float(np.sqrt(squares.max(initial=0.0)))


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


#: Queries per canonical product. Every block is padded to this many rows
#: and multiplied as ``slab @ block.T``, so each query is one column of a
#: product of the same shape whatever else is in its block. BLAS picks
#: kernels and thread splits by shape, may split the columns of a
#: ``block @ slab.T`` product into chunks that round differently, and numpy
#: sends a one-row product to GEMV, which rounds differently again.
_BLOCK = 16
#: Index rows per canonical product (the last slab may be shorter). It bounds
#: the buffer BLAS packs them into, and it is the unit the screen skips.
_ROWS = 512
#: Queries per float32 screening pass, which bounds the screen's buffer to
#: this many rows of float32 scores against every entry.
_SCREEN = 4 * _BLOCK
#: Longest index row the screen takes on: its float32 pass cannot overflow.
#: Rows of ``build_index`` and ``load_index`` are unit vectors.
_SCREEN_ROW_MAX = 2.0**64


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


def _check_queries(index: DenseIndex, queries: Sequence) -> None:
    """A query of the wrong shape, or with a value that is not finite, is a
    ``ValueError``."""
    for i, q in enumerate(queries):
        if np.shape(q) != (index.dim,):
            raise ValueError(f"query dim {np.shape(q)} does not match index dim {index.dim}")
        if not np.isfinite(q).all():
            raise ValueError(f"query {i} has a value that is not finite")


def _score_blocks(index: DenseIndex, queries: Sequence, jobs=None):
    """Yield ``(ids, scores)`` per block of queries; row ``j`` of ``scores``
    holds the scores of query ``ids[j]`` against the entries of the block's
    slabs, and its other columns are stale.

    ``jobs`` lists the blocks as ``(ids, slab starts)``; by default every run
    of ``_BLOCK`` queries against every slab. Every score comes from the
    canonical product here, of a slab widened exactly to float64. The buffers
    are reused, so read each block before asking for the next.
    """
    if jobs is None:
        every = range(0, len(index), _ROWS)
        jobs = (
            (np.arange(lo, min(lo + _BLOCK, len(queries))), every)
            for lo in range(0, len(queries), _BLOCK)
        )
    block = np.zeros((_BLOCK, index.dim))
    wide = np.empty((_ROWS, index.dim))
    product = np.empty((_ROWS, _BLOCK))
    scores = np.empty((_BLOCK, len(index)))
    for ids, slabs in jobs:
        m = len(ids)
        block[:m] = [queries[i] for i in ids]
        block[m:] = 0.0
        for r in slabs:
            rows = wide[: min(_ROWS, len(index) - r)]
            rows[...] = index.matrix[r : r + _ROWS]
            np.matmul(rows, block.T, out=product[: len(rows)])
            scores[:m, r : r + len(rows)] = product[: len(rows), :m].T
        yield ids, scores[:m]


def _screen(index: DenseIndex, queries: Sequence, k: int) -> list[np.ndarray]:
    """Per query, the ascending positions whose canonical score can be among
    its top k, found by scoring against every entry in one float32 product.

    Each query is first scaled by a power of two, which is exact, so that its
    largest component lies in [0.5, 1). With ``u = 2**-24``, a screened score
    then differs from ``2**-e`` times the canonical score of the same pair by
    at most ``err * |q| * M + dim * a``: ``M`` is the longest row, ``err`` is
    ``2u + u*u + g(u) * (1 + u)**2 + g(2**-53)`` with ``g(v) = dim*v / (1 -
    dim*v)`` (the float32 rounding of both operands and of both ``dim``-term
    dot products), and ``a`` bounds what underflow adds. The k-th screened
    score is therefore within that bound of the k-th canonical score, and
    every entry of the true top k, ties included, within twice of it.
    """
    n, dim = len(index), index.dim
    u, u64 = 2.0**-24, 2.0**-53
    err = 2 * u + u * u + dim * u / (1 - dim * u) * (1 + u) ** 2 + dim * u64 / (1 - dim * u64)
    longest = index._longest_row
    matrix = index.matrix.astype(np.float32, copy=False)
    screen = np.empty((min(_SCREEN, len(queries)), n), dtype=np.float32)
    kept = []
    for lo in range(0, len(queries), _SCREEN):
        group = np.array(queries[lo : lo + _SCREEN], dtype=np.float64)
        exp = np.frexp(np.abs(group).max(axis=1))[1]
        np.ldexp(group, -exp[:, None], out=group)
        scores = np.matmul(group.astype(np.float32), matrix.T, out=screen[: len(group)])
        # twice the bound, and 2**-20 of it more for the float64 rounding of
        # the norms and of the bound itself
        margins = 2 * (1 + 2.0**-20) * (
            err * np.linalg.norm(group, axis=1) * longest
            + dim * (2.0**-147 * max(1.0, longest) + np.ldexp(1.0, -1074 - exp))
        )
        for row, margin in zip(scores, margins):
            kth = float(np.partition(row, n - k)[n - k])
            # rounded down to float32, so the floor is never above kth - margin
            floor = np.nextafter(np.float32(kth - margin), np.float32(-np.inf))
            kept.append(np.flatnonzero(row >= floor))
    return kept


def _hits(
    index: DenseIndex, positions: np.ndarray, scores: np.ndarray, k: int
) -> list[RetrievalHit]:
    """The first k of ``positions`` (ascending) by (score descending,
    position ascending)."""
    order = np.argsort(-scores, kind="stable")[:k]
    return [
        RetrievalHit(doc_id=index.doc_ids[positions[i]], score=float(scores[i]), rank=rank)
        for rank, i in enumerate(order, start=1)
    ]


def _top_k(index: DenseIndex, queries: Sequence, k: int) -> list[list[RetrievalHit]]:
    n = len(index)
    # A screen costs about half of scoring every slab, so it runs only where a
    # query's top k leave more than half of the slabs without a candidate
    # (never on one slab).
    if n <= 2 * k * _ROWS or index._longest_row > _SCREEN_ROW_MAX:
        out = []
        for _, scores in _score_blocks(index, queries):
            for row in scores:
                top = np.flatnonzero(row >= np.partition(row, n - k)[n - k])
                out.append(_hits(index, top, row[top], k))
        return out
    kept = _screen(index, queries, k)
    slabs = [positions // _ROWS for positions in kept]
    needing: dict[int, list[int]] = {}  # slab -> the queries with a candidate in it
    for i, of_query in enumerate(slabs):
        for slab in dict.fromkeys(of_query.tolist()):
            needing.setdefault(slab, []).append(i)
    jobs = [
        (np.array(ids[lo : lo + _BLOCK]), (slab * _ROWS,))
        for slab, ids in sorted(needing.items())
        for lo in range(0, len(ids), _BLOCK)
    ]
    rescored = [np.empty(len(positions)) for positions in kept]
    for (_, (r,)), (ids, scores) in zip(jobs, _score_blocks(index, queries, jobs)):
        for i, row in zip(ids, scores):
            inside = slabs[i] == r // _ROWS
            rescored[i][inside] = row[kept[i][inside]]
    return [_hits(index, positions, s, k) for positions, s in zip(kept, rescored)]


def search_batch(
    index: DenseIndex,
    queries: Sequence[Sequence[float]] | np.ndarray,
    k: int,
    workers: int = 1,
) -> list[list[RetrievalHit]]:
    """Top-k entries for each query; ties break toward earlier insertion.

    Only each query's candidates are sorted, by (score descending, position
    ascending): on one slab the entries at or above its k-th best score, and
    otherwise those its float32 screen keeps. A query's hits are the same
    bits whichever batch it is in. With ``workers > 1`` the queries are cut
    into at most that many contiguous runs of whole blocks, searched on as
    many threads and joined in order, so the hits are the same bits too.
    A query of the wrong dimension or with a value that is not finite is a
    ``ValueError``.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    k = min(k, len(index))
    _check_queries(index, queries)
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
    _check_queries(index, [query])
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
        vectors = [vec for vec, _ in known]
        _check_queries(index, vectors)
        with _one_blas_thread:
            for ids, scores in _score_blocks(index, vectors):
                ranks.extend(_rank_in(row, known[i][1]) for i, row in zip(ids, scores))
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
    try:
        return DenseIndex(mode=mode, dim=dim, doc_ids=doc_ids, matrix=raw.reshape(count, dim))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
