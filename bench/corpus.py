"""Seeded synthetic corpora for the benchmark, with the expected scores.

A corpus is one knowledge base (sidecar embeddings), its visual index and a
set of disjoint dataset chunks of ``CHUNK_SIZE`` samples each. One eval pass
reads one chunk, so no sample repeats within a run and a step memo can only
hit where a real evaluation would. Corpora are cached under the work
directory by (docs, chunks, seed) and are never part of a timed region.

The expected scores come from an independent reference: exact top-k from a
matrix product, then the rule backend's behaviour (a passage is
relevant iff it contains the gold answer) applied per variant.
"""
from __future__ import annotations

import json
import os
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 256
CHUNK_HITS = 760  # fact questions whose answer is in the KB
CHUNK_MISS = 40  # fact questions about an unrecorded fact: all NOREL, fallback
CHUNK_NORET = 200  # questions the rule backend answers without retrieval
CHUNK_SIZE = CHUNK_HITS + CHUNK_MISS + CHUNK_NORET
KEEP_CORPORA = 10  # cached corpora kept per KB size

VARIANTS = (
    "full",
    "always_ret",
    "external_scorer_passages",
    "random_passages_norel",
    "no_kb",
)

_WORD_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Corpus:
    root: Path
    docs: int
    seed: int
    kb: Path
    index: Path
    chunks: tuple[Path, ...]
    answers: Path  # rule-backend answer tables for the stub server
    expected: tuple[dict[str, int], ...]  # per chunk: variant -> correct count


def _chunk_ids(num_chunks: int) -> list[list[int]]:
    """Positions in the generated sample list that form each chunk."""
    hits_total = CHUNK_HITS * num_chunks
    facts_total = (CHUNK_HITS + CHUNK_MISS) * num_chunks
    out = []
    for c in range(num_chunks):
        hits = range(c * CHUNK_HITS, (c + 1) * CHUNK_HITS)
        miss = range(hits_total + c * CHUNK_MISS, hits_total + (c + 1) * CHUNK_MISS)
        noret = range(facts_total + c * CHUNK_NORET, facts_total + (c + 1) * CHUNK_NORET)
        out.append([*hits, *miss, *noret])
    return out


def _words(text: str, cache: dict[str, frozenset[str]]) -> frozenset[str]:
    words = cache.get(text)
    if words is None:
        words = cache[text] = frozenset(_WORD_RE.findall(text.lower()))
    return words


def _top_docs(matrix: np.ndarray, queries: np.ndarray, k: int, block: int = 128):
    """Row positions of the k best documents per query, ties to lower rows."""
    k = min(k, matrix.shape[0])
    out = []
    for lo in range(0, len(queries), block):
        scores = queries[lo : lo + block] @ matrix.T  # (queries, docs)
        kth = np.partition(scores, scores.shape[1] - k, axis=1)[:, scores.shape[1] - k]
        for row, threshold in zip(scores, kth):
            rows = np.flatnonzero(row >= threshold)
            out.append(rows[np.lexsort((rows, -row[rows]))][:k])
    return out


def expected_correct(samples, kb, matrix: np.ndarray, doc_ids, defaults) -> dict[str, int]:
    """Correct answers per variant for one chunk under the rule backend.

    A NORET question is answered right unless retrieval is forced on it; a
    fact question iff a selected passage contains its gold answer.
    """
    facts = [s for s in samples if s.gold_doc_id is not None]
    correct = dict.fromkeys(VARIANTS, len(samples) - len(facts))
    correct["always_ret"] = 0
    queries = np.stack([np.asarray(s.image_embedding, dtype=np.float64) for s in facts])
    words: dict[str, frozenset[str]] = {}
    for sample, rows in zip(facts, _top_docs(matrix, queries, defaults.top_k_docs)):
        gold = sample.gold_answers[0]
        candidates = [(doc_ids[r], sec.text) for r in rows
                      for sec in kb.documents[doc_ids[r]].sections]
        if any(gold in text for _, text in candidates):
            correct["full"] += 1
            correct["always_ret"] += 1
        asked = _words(sample.question, words)
        overlap = [len(asked & _words(text, words)) / len(asked) for _, text in candidates]
        best = sorted(range(len(candidates)), key=lambda j: (-overlap[j], j))
        if any(gold in candidates[j][1] for j in best[: defaults.external_scorer_top]):
            correct["external_scorer_passages"] += 1
        rng = random.Random(f"{defaults.seed}:{sample.id}:random_passages")
        chosen = []
        for doc in dict.fromkeys(d for d, _ in candidates):
            texts = [text for d, text in candidates if d == doc]
            chosen += rng.sample(texts, min(defaults.random_passages_per_doc, len(texts)))
        if any(gold in text for text in chosen):
            correct["random_passages_norel"] += 1
    return correct


def _generate(dest: Path, docs: int, seed: int, num_chunks: int) -> None:
    from reflectrag.engine import PipelineConfig
    from reflectrag.index import RetrievalMode, build_index, index_sidecar_path, save_index
    from reflectrag.kb import save_kb
    from reflectrag.samples import save_samples
    from reflectrag.synth import make_synthetic_suite

    suite = make_synthetic_suite(
        num_docs=docs,
        dim=DIM,
        num_fact_samples=(CHUNK_HITS + CHUNK_MISS) * num_chunks,
        num_noret_samples=CHUNK_NORET * num_chunks,
        num_miss_samples=CHUNK_MISS * num_chunks,
        seed=seed,
    )
    save_kb(suite.kb, dest / "kb.jsonl", embeddings="sidecar")
    index = build_index(suite.kb, RetrievalMode.VISUAL)
    save_index(index, dest / "index.jsonl")
    # Search what the CLI will load: the float32 sidecar, widened to float64.
    matrix = np.fromfile(index_sidecar_path(dest / "index.jsonl"), dtype="<f4")
    matrix = matrix.reshape(len(index), index.dim).astype(np.float64)
    defaults = PipelineConfig()
    expected = []
    for c, positions in enumerate(_chunk_ids(num_chunks)):
        chunk = [suite.samples[p] for p in positions]
        save_samples(chunk, dest / f"chunk{c:02d}.jsonl")
        expected.append(expected_correct(chunk, suite.kb, matrix, index.doc_ids, defaults))
    answers = {
        "answers_by_question": {q: list(a) for q, a in suite.answers_by_question.items()},
        "direct_answers": suite.direct_answers,
    }
    (dest / "answers.json").write_text(json.dumps(answers), encoding="utf-8")
    meta = {"docs": docs, "seed": seed, "chunks": num_chunks, "expected": expected}
    (dest / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")


def ensure_corpus(work: Path, docs: int, seed: int, num_chunks: int) -> Corpus:
    """Load the cached corpus for (docs, chunks, seed), generating it if absent."""
    base = work / "corpus"
    prefix = f"docs{docs}-chunks{num_chunks}x{CHUNK_SIZE}-"
    root = base / f"{prefix}seed{seed}"
    if not (root / "meta.json").exists():
        tmp = base / f".tmp-{os.getpid()}-{root.name}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        _generate(tmp, docs, seed, num_chunks)
        shutil.rmtree(root, ignore_errors=True)
        os.replace(tmp, root)
        stale = sorted(
            (p for p in base.iterdir() if p.name.startswith(prefix) and p != root),
            key=lambda p: p.stat().st_mtime,
        )
        for old in stale[: max(0, len(stale) - (KEEP_CORPORA - 1))]:
            shutil.rmtree(old, ignore_errors=True)
    os.utime(root)
    meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    return Corpus(
        root=root,
        docs=docs,
        seed=seed,
        kb=root / "kb.jsonl",
        index=root / "index.jsonl",
        chunks=tuple(root / f"chunk{c:02d}.jsonl" for c in range(num_chunks)),
        answers=root / "answers.json",
        expected=tuple(meta["expected"]),
    )
