import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import reflectrag.index as index_mod
from reflectrag.index import (
    DenseIndex,
    EmbedderError,
    HashEmbedder,
    RetrievalMode,
    build_index,
    candidate_passages,
    gold_rank,
    load_index,
    recall_at_k,
    save_index,
    search,
    search_batch,
)
from reflectrag.kb import load_kb, passages_of

from conftest import doc_record, write_kb_file


def make_index(vectors: list[list[float]], ids: list[str] | None = None) -> DenseIndex:
    matrix = np.asarray(vectors, dtype=np.float64)
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    ids = ids or [f"doc{i}" for i in range(len(vectors))]
    return DenseIndex(
        mode=RetrievalMode.VISUAL, dim=matrix.shape[1], doc_ids=tuple(ids), matrix=matrix
    )


class TestSearch:
    def test_identity_match(self):
        index = make_index([[1, 0], [0, 1]], ["A", "B"])
        hits = search(index, [1.0, 0.0], k=1)
        assert [(h.doc_id, h.score, h.rank) for h in hits] == [("A", 1.0, 1)]

    def test_exhaustive_two_entries(self):
        index = make_index([[1, 0], [0, 1]], ["A", "B"])
        hits = search(index, [0.6, 0.8], k=2)
        assert [h.doc_id for h in hits] == ["B", "A"]
        assert hits[0].score == pytest.approx(0.8)
        assert hits[1].score == pytest.approx(0.6)

    def test_k_clamps_to_entries(self):
        index = make_index([[1, 0], [0, 1]])
        hits = search(index, [1.0, 0.0], k=10)
        assert [h.rank for h in hits] == [1, 2]

    def test_tie_break_insertion_order(self):
        index = make_index([[1, 0], [1, 0], [0, 1]], ["first", "second", "other"])
        hits = search(index, [1.0, 0.0], k=2)
        assert [h.doc_id for h in hits] == ["first", "second"]

    def test_k_zero_rejected(self):
        index = make_index([[1, 0]])
        with pytest.raises(ValueError):
            search(index, [1.0, 0.0], k=0)

    def test_dim_mismatch_rejected(self):
        index = make_index([[1, 0]])
        with pytest.raises(ValueError):
            search(index, [1.0, 0.0, 0.0], k=1)

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(123)
        matrix = rng.standard_normal((300, 16))
        index = make_index(matrix.tolist())
        for _ in range(25):
            query = rng.standard_normal(16)
            query /= np.linalg.norm(query)
            scores = index.matrix @ query
            oracle = sorted(range(300), key=lambda i: (-scores[i], i))
            for k in (1, 7, 50):
                hits = search(index, query, k)
                assert [h.doc_id for h in hits] == [index.doc_ids[i] for i in oracle[:k]]
                for h, i in zip(hits, oracle):
                    assert h.score == pytest.approx(scores[i], abs=1e-9)

    def test_scores_within_unit_bound(self):
        rng = np.random.default_rng(5)
        index = make_index(rng.standard_normal((100, 8)).tolist())
        query = rng.standard_normal(8)
        query /= np.linalg.norm(query)
        for hit in search(index, query, k=100):
            assert -1 - 1e-6 <= hit.score <= 1 + 1e-6


def index_with_duplicates(seed: int, distinct: int = 80, copies: int = 40, dim: int = 16):
    """Random unit rows plus exact copies of some of them at later positions."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((distinct, dim))
    picked = rng.choice(distinct, size=copies, replace=False)
    matrix = np.vstack([rows, rows[picked]])
    order = rng.permutation(len(matrix))
    return make_index(matrix[order].tolist()), rng


def unit_queries(rng, n: int, dim: int) -> np.ndarray:
    queries = rng.standard_normal((n, dim))
    return queries / np.linalg.norm(queries, axis=1, keepdims=True)


class TestSearchBatch:
    @pytest.mark.parametrize("shape", [(300, 16), (2000, 64)])
    def test_rows_match_search_bit_for_bit(self, shape):
        rng = np.random.default_rng(11)
        index = make_index(rng.standard_normal(shape).tolist())
        queries = unit_queries(rng, 40, shape[1])
        single = [search(index, q, 7) for q in queries]
        # batches of 1..33 (one-row last blocks at 17 and 33), at two offsets
        for n in range(1, 34):
            for start in (0, 40 - n):
                batch = search_batch(index, queries[start : start + n], 7)
                assert batch == single[start : start + n], (n, start)

    def test_list_and_float32_queries_match_float64_rows(self):
        rng = np.random.default_rng(12)
        index = make_index(rng.standard_normal((50, 8)).tolist())
        queries = unit_queries(rng, 5, 8).astype(np.float32)
        expected = search_batch(index, queries.astype(np.float64), 4)
        assert search_batch(index, list(queries), 4) == expected
        assert search_batch(index, queries.tolist(), 4) == expected

    def test_duplicated_rows_match_oracle_with_ties_to_earlier_position(self):
        index, rng = index_with_duplicates(seed=21)
        queries = np.vstack([unit_queries(rng, 20, 16), index.matrix[:5]])
        for k in (1, 5, 40, len(index)):
            for query, hits in zip(queries, search_batch(index, queries, k)):
                scores = index.matrix @ query
                oracle = sorted(range(len(index)), key=lambda i: (-scores[i], i))[:k]
                assert [h.doc_id for h in hits] == [index.doc_ids[i] for i in oracle]
                assert [h.rank for h in hits] == list(range(1, k + 1))
                for h, i in zip(hits, oracle):
                    assert h.score == pytest.approx(scores[i], abs=1e-12)
        # an exact copy ties bit for bit and ranks right after the earlier row
        first_copy = next(
            i for i in range(len(index))
            if any(np.array_equal(index.matrix[i], index.matrix[j]) for j in range(i))
        )
        original = next(
            j for j in range(first_copy) if np.array_equal(index.matrix[j], index.matrix[first_copy])
        )
        hits = search(index, index.matrix[first_copy], 2)
        assert [h.doc_id for h in hits] == [index.doc_ids[original], index.doc_ids[first_copy]]
        assert hits[0].score == hits[1].score

    @pytest.mark.parametrize("k", [3, 4, 10])
    def test_k_at_least_len_returns_every_entry(self, k):
        index = make_index([[1, 0], [0, 1], [1, 1]], ["a", "b", "c"])
        hits = search_batch(index, [[1.0, 0.0], [0.0, 1.0]], k)
        assert [[h.doc_id for h in row] for row in hits] == [["a", "c", "b"], ["b", "c", "a"]]

    def test_empty_batch(self):
        assert search_batch(make_index([[1, 0]]), [], 3) == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be"):
            search_batch(make_index([[1, 0]]), [[1.0, 0.0]], k)

    def test_wrong_dimension_query_rejected(self):
        index = make_index([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match=r"query dim \(3,\) does not match index dim 2"):
            search_batch(index, [[1.0, 0.0], [1.0, 0.0, 0.0]], 1)
        with pytest.raises(ValueError, match=r"query dim \(1,\) does not match index dim 2"):
            search(index, [1.0], 1)


class TestSplitBurst:
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_workers_match_one_worker_bit_for_bit(self, workers):
        rng = np.random.default_rng(13)
        index = make_index(rng.standard_normal((300, 16)).tolist())
        queries = unit_queries(rng, 257, 16)
        for n in [*range(1, 41), 257]:
            expected = search_batch(index, queries[:n], 9)
            assert search_batch(index, queries[:n], 9, workers) == expected, n

    def test_runs_are_whole_blocks_in_order(self, monkeypatch):
        runs = []
        real = index_mod._top_k

        def recording(index, queries, k):
            runs.append(len(queries))
            return real(index, queries, k)

        monkeypatch.setattr(index_mod, "_top_k", recording)
        rng = np.random.default_rng(15)
        index = make_index(rng.standard_normal((50, 8)).tolist())
        search_batch(index, unit_queries(rng, 70, 8), 3, workers=3)
        search_batch(index, unit_queries(rng, 16, 8), 3, workers=3)
        assert runs == [32, 32, 6, 16]


def blas_thread_calls():
    calls = index_mod._openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS thread-count setter in this process")
    return calls


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads for the test; yields its getter."""
    get, set_ = blas_thread_calls()
    saved = get()
    set_(2)
    yield get
    set_(saved)


def spy_blas_threads(monkeypatch, get, meet=None) -> list[int]:
    """Record the OpenBLAS thread count each time queries are scored."""
    seen: list[int] = []
    real = index_mod._score_blocks

    def scoring(*args):
        if meet is not None:
            meet()
        seen.append(get())
        return real(*args)

    monkeypatch.setattr(index_mod, "_score_blocks", scoring)
    return seen


class TestOneBlasThread:
    def test_scores_equal_those_computed_without_the_limiter(self, two_blas_threads, monkeypatch):
        rng = np.random.default_rng(16)
        # (512 x 64) . (64 x 16) products: large enough for OpenBLAS to thread
        index = make_index(rng.standard_normal((600, 64)).tolist())
        queries = unit_queries(rng, 16, 64)
        limited = search_batch(index, queries, len(index))
        monkeypatch.setattr(index_mod, "_openblas_thread_calls", lambda: ())
        seen = spy_blas_threads(monkeypatch, two_blas_threads)
        assert search_batch(index, queries, len(index)) == limited
        assert seen == [2]

    def test_one_thread_inside_and_restored_after(self, two_blas_threads, monkeypatch):
        seen = spy_blas_threads(monkeypatch, two_blas_threads)
        index = make_index([[1, 0], [0, 1], [1, 1]], ["a", "b", "c"])
        search(index, [1.0, 0.0], 2)
        search_batch(index, [[1.0, 0.0]] * 40, 2, workers=2)
        gold_rank(index, np.array([0.0, 1.0]), "c")
        recall_at_k(index, [([1.0, 0.0], "a")], [1])
        assert seen == [1, 1, 1, 1, 1]
        assert two_blas_threads() == 2

    def test_restored_after_a_call_that_raises(self, two_blas_threads):
        index = make_index([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="query dim"):
            search_batch(index, [[1.0, 0.0], [1.0, 0.0, 0.0]], 1)
        with pytest.raises(ValueError, match="query dim"):
            search_batch(index, [[1.0, 0.0]] * 20 + [[1.0]], 1, workers=2)
        assert two_blas_threads() == 2

    def test_restored_after_two_threads_search_at_once(self, two_blas_threads, monkeypatch):
        rng = np.random.default_rng(17)
        index = make_index(rng.standard_normal((600, 64)).tolist())
        queries = unit_queries(rng, 10, 64)
        expected = search_batch(index, queries, 4)
        both_inside = threading.Barrier(2)
        seen = spy_blas_threads(
            monkeypatch, two_blas_threads, meet=lambda: both_inside.wait(timeout=10)
        )
        with ThreadPoolExecutor(max_workers=2) as pool:
            found = list(pool.map(lambda q: search_batch(index, q, 4), [queries[:5], queries[5:]]))
        assert found[0] + found[1] == expected
        assert seen == [1, 1]
        assert two_blas_threads() == 2


class TestBuildIndex:
    def test_visual_uses_stored_embeddings(self, tmp_path):
        docs = [
            doc_record("a", embedding=[1.0, 0.0, 0.0, 0.0]),
            doc_record("b", embedding=[0.0, 1.0, 0.0, 0.0]),
            doc_record("c", embedding=[0.0, 0.0, 1.0, 0.0]),
        ]
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
        index = build_index(kb, RetrievalMode.VISUAL)
        assert len(index) == 3
        assert index.doc_ids == ("a", "b", "c")

    def test_visual_skips_unembedded_docs(self, tmp_path):
        docs = [doc_record("a"), doc_record("b", embedding=None)]
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
        index = build_index(kb, RetrievalMode.VISUAL)
        assert index.doc_ids == ("a",)

    def test_visual_requires_some_embeddings(self, tmp_path):
        docs = [doc_record("a", embedding=None)]
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
        with pytest.raises(ValueError, match="no documents carry"):
            build_index(kb, RetrievalMode.VISUAL)

    def test_textual_modes_embed_title_and_summary(self, tmp_path):
        docs = [doc_record("a", title="Alpha", summary="")]
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
        embedder = HashEmbedder(dim=4)
        title_index = build_index(kb, RetrievalMode.TEXTUAL_TITLE, embedder)
        ts_index = build_index(kb, RetrievalMode.TEXTUAL_TITLE_SUMMARY, embedder)
        expected_title = embedder.embed("Alpha")
        expected_ts = embedder.embed("Alpha\n")  # empty summary still adds newline
        assert np.allclose(title_index.matrix[0], expected_title)
        assert np.allclose(ts_index.matrix[0], expected_ts)
        assert not np.allclose(title_index.matrix[0], ts_index.matrix[0])

    def test_textual_requires_embedder(self, tmp_path):
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", [doc_record("a")]))
        with pytest.raises(ValueError, match="embedder"):
            build_index(kb, RetrievalMode.TEXTUAL_TITLE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_embedding_names_the_document(self, tmp_path, bad):
        docs = [doc_record("a", title="Alpha"), doc_record("b", title="Beta")]
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))

        class Embedder:
            def embed(self, text):
                return [bad, 1.0, 0.0, 0.0] if text == "Beta" else [1.0, 0.0, 0.0, 0.0]

        with pytest.raises(EmbedderError, match="'b': non-finite"):
            build_index(kb, RetrievalMode.TEXTUAL_TITLE, Embedder())

    def test_double_build_is_byte_identical(self, tmp_path):
        docs = [doc_record(f"d{i}", title=f"Doc {i}") for i in range(5)]
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
        embedder = HashEmbedder(dim=4)
        for name in ("one", "two"):
            save_index(
                build_index(kb, RetrievalMode.TEXTUAL_TITLE, embedder),
                tmp_path / f"{name}.jsonl",
            )
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
        assert (tmp_path / "one.vec").read_bytes() == (tmp_path / "two.vec").read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        docs = [doc_record("a"), doc_record("b", embedding=[0.0, 1.0, 0.0, 0.0])]
        kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
        index = build_index(kb, RetrievalMode.VISUAL)
        save_index(index, tmp_path / "idx.jsonl")
        loaded = load_index(tmp_path / "idx.jsonl")
        assert loaded.doc_ids == index.doc_ids
        assert loaded.mode == index.mode
        assert np.allclose(loaded.matrix, index.matrix, atol=1e-6)


class TestCandidatePassages:
    @pytest.fixture()
    def kb(self, tmp_path):
        docs = [
            doc_record("a", sections=["a0.", "a1.", "a2."]),
            doc_record("b", sections=["b0.", "b1."], embedding=[0.0, 1.0, 0.0, 0.0]),
        ]
        return load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))

    def test_union_preserves_rank_then_section_order(self, kb):
        index = build_index(kb, RetrievalMode.VISUAL)
        hits = search(index, [1.0, 0.0, 0.0, 0.0], k=2)
        passages = candidate_passages(kb, hits, k=2)
        assert len(passages) == 5
        assert [p.key for p in passages[:3]] == [("a", 0), ("a", 1), ("a", 2)]

    def test_k_one_takes_top_doc_only(self, kb):
        index = build_index(kb, RetrievalMode.VISUAL)
        hits = search(index, [1.0, 0.0, 0.0, 0.0], k=2)
        passages = candidate_passages(kb, hits, k=1)
        assert passages == passages_of(kb, "a")

    def test_empty_hits(self, kb):
        assert candidate_passages(kb, [], k=3) == []


class TestRecall:
    def test_rank_semantics(self):
        # gold lands at rank 3: counted for R@5 and R@20, not R@1
        index = make_index([[1, 0], [0.9, 0.1], [0.5, 0.5], [0, 1]], ["w", "x", "g", "y"])
        query = np.asarray([1.0, 0.0])
        report = recall_at_k(index, [(query, "g")], ks=[1, 5, 20])
        assert [e.recall for e in report.entries] == [0.0, 1.0, 1.0]

    def test_exact_match_gives_full_recall_at_one(self):
        vectors = np.eye(6)
        index = make_index(vectors.tolist())
        queries = [(vectors[i], f"doc{i}") for i in range(6)]
        report = recall_at_k(index, queries, ks=[1])
        assert report.entries[0].recall == 1.0

    def test_unknown_gold_excluded_and_counted(self):
        index = make_index([[1, 0]], ["a"])
        report = recall_at_k(index, [([1.0, 0.0], "a"), ([1.0, 0.0], "ghost")], ks=[1])
        assert report.num_excluded == 1
        assert report.entries[0].num_queries == 1

    def test_monotone_and_matches_bruteforce(self):
        rng = np.random.default_rng(77)
        matrix = rng.standard_normal((200, 12))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        index = make_index(matrix.tolist())
        queries = []
        for i in range(20):
            gold = int(rng.integers(0, 200))
            noisy = matrix[gold] + 0.4 * rng.standard_normal(12)
            noisy /= np.linalg.norm(noisy)
            queries.append((noisy, f"doc{gold}"))
        ks = [1, 5, 20, 100]
        report = recall_at_k(index, queries, ks=ks)
        # independent oracle: rank every query against every entry
        expected = []
        for k in ks:
            hit = 0
            for vec, gold in queries:
                scores = index.matrix @ np.asarray(vec)
                gold_pos = index.doc_ids.index(gold)
                order = sorted(range(200), key=lambda i: (-scores[i], i))
                if gold_pos in order[:k]:
                    hit += 1
            expected.append(hit / len(queries))
        assert [e.recall for e in report.entries] == pytest.approx(expected)
        values = [e.recall for e in report.entries]
        assert values == sorted(values)

    def test_gold_rank_equals_search_rank(self):
        index, rng = index_with_duplicates(seed=31)
        queries = np.vstack([unit_queries(rng, 30, 16), index.matrix[:10]])
        golds = [index.doc_ids[int(i)] for i in rng.integers(0, len(index), len(queries))]
        for query, gold in zip(queries, golds):
            ranked = [h.doc_id for h in search(index, query, len(index))]
            assert gold_rank(index, query, gold) == ranked.index(gold) + 1
            # every copy of a duplicated row, too
            for doc_id in index.doc_ids[:10]:
                assert gold_rank(index, query, doc_id) == ranked.index(doc_id) + 1
        ks = [1, 3, 10, 50]
        report = recall_at_k(index, list(zip(queries, golds)), ks=ks)
        expected = []
        for k in ks:
            tops = [{h.doc_id for h in hits} for hits in search_batch(index, queries, k)]
            expected.append(sum(g in top for g, top in zip(golds, tops)) / len(golds))
        assert [e.recall for e in report.entries] == expected

    def test_bad_ks_rejected(self):
        index = make_index([[1, 0]])
        with pytest.raises(ValueError):
            recall_at_k(index, [([1.0, 0.0], "doc0")], ks=[0])

    def test_report_json_schema(self, tmp_path):
        import json

        from reflectrag.index import save_recall_report

        index = make_index([[1, 0]], ["a"])
        report = recall_at_k(index, [([1.0, 0.0], "a")], ks=[1, 5])
        obj = report.to_json_obj()
        assert obj == [
            {"k": 1, "recall": 1.0, "num_queries": 1},
            {"k": 5, "recall": 1.0, "num_queries": 1},
        ]
        save_recall_report(report, tmp_path / "recall.json")
        assert json.loads((tmp_path / "recall.json").read_text()) == obj


def screened_index(rows: int, dim: int, dtype=np.float64, *, seed: int):
    """Random unit rows of ``dtype`` with exact copies on both sides of every
    slab boundary and a cluster of rows 1e-9 apart spread over every slab.

    Returns the index and queries: random ones, ones near the cluster (whose
    top hits are near-ties far below the float32 margin) and the rows that
    straddle the boundaries (whose top hits tie exactly across two slabs).
    """
    rng = np.random.default_rng(seed)
    slab = index_mod._ROWS
    matrix = rng.standard_normal((rows, dim))
    for b in range(slab, rows, slab):
        matrix[b] = matrix[b - 1]
        matrix[b + 1] = matrix[b - 2]
    center = rng.standard_normal(dim)
    cluster = [
        p for b in range(0, rows, slab) for p in (b + 3, b + slab // 2, min(b + slab, rows) - 4)
    ]
    matrix[cluster] = center + 1e-9 * rng.standard_normal((len(cluster), dim))
    index = make_index(matrix.tolist())
    index = replace(index, matrix=index.matrix.astype(dtype))
    near = center + 0.05 * rng.standard_normal((8, dim))
    straddling = [index.matrix[b + i] for b in range(slab, rows, slab) for i in (-1, 1)]
    queries = np.vstack([unit_queries(rng, 16, dim), near, straddling])
    return index, queries


def canonical_scores(index: DenseIndex, query) -> np.ndarray:
    """The query's scores as one column of the canonical products: each slab
    of index rows times a zero-padded block that holds the query alone."""
    block = np.zeros((index_mod._BLOCK, index.dim))
    block[0] = query
    return np.concatenate([
        (index.matrix[r : r + index_mod._ROWS] @ block.T)[:, 0]
        for r in range(0, len(index), index_mod._ROWS)
    ])


def canonical_oracle(index: DenseIndex, query, k: int) -> list[tuple[str, float, int]]:
    scores = canonical_scores(index, query)
    order = np.lexsort((np.arange(len(index)), -scores))[:k]
    return [(index.doc_ids[i], float(scores[i]), rank) for rank, i in enumerate(order, start=1)]


def as_tuples(hits) -> list[tuple[str, float, int]]:
    return [(h.doc_id, h.score, h.rank) for h in hits]


# slabs of 512, 512 and 276 rows; and 12 slabs, on which a top 5 is screened,
# in float64 rows and in float32 rows as a loaded index holds them
SCREEN_SHAPES = [(1300, 64), (1300, 256), (6000, 32), (6000, 32, np.float32)]


class TestScreenedSearch:
    @pytest.mark.parametrize("shape", SCREEN_SHAPES)
    def test_screen_keeps_every_oracle_hit(self, shape):
        index, queries = screened_index(*shape, seed=31)
        for k in (1, 5, 50, len(index)):
            kept = index_mod._screen(index, queries, k)
            for query, positions in zip(queries, kept):
                assert np.all(np.diff(positions) > 0)
                top = {index.positions[d] for d, _, _ in canonical_oracle(index, query, k)}
                assert top <= set(positions.tolist()), k

    @pytest.mark.parametrize("shape", SCREEN_SHAPES)
    def test_hits_match_canonical_oracle_bit_for_bit(self, shape):
        index, queries = screened_index(*shape, seed=32)
        for k in (1, 5, 50, len(index)):
            some = queries if k < len(index) else queries[::5]
            expected = [canonical_oracle(index, q, k) for q in some]
            assert [as_tuples(hits) for hits in search_batch(index, some, k)] == expected, k
            for q, hits in zip(some[::7], expected[::7]):
                assert as_tuples(search(index, q, k)) == hits

    @pytest.mark.parametrize("shape", SCREEN_SHAPES)
    def test_batches_and_workers_match_oracle(self, shape):
        index, queries = screened_index(*shape, seed=33)
        for k in (1, 5):
            expected = [canonical_oracle(index, q, k) for q in queries]
            for n in range(1, 34):
                for workers in (1, 2, 3):
                    found = search_batch(index, queries[-n:], k, workers)
                    assert [as_tuples(h) for h in found] == expected[-n:], (k, n, workers)

    def test_exact_ties_across_a_slab_boundary_go_to_the_earlier_row(self):
        index, _ = screened_index(6000, 32, seed=34)
        for b in (512, 1024, 5632):
            hits = search(index, index.matrix[b], 2)
            assert [h.doc_id for h in hits] == [f"doc{b - 1}", f"doc{b}"]
            assert hits[0].score == hits[1].score

    @pytest.mark.parametrize("scale", [1e-300, 1e-30, 1e30, 1e300])
    def test_queries_of_any_magnitude_match_the_oracle(self, scale):
        index, queries = screened_index(1300, 64, seed=35)
        queries = queries * scale
        assert [as_tuples(h) for h in search_batch(index, queries, 1)] == [
            canonical_oracle(index, q, 1) for q in queries
        ]

    def test_screen_skips_the_slabs_without_a_candidate(self, monkeypatch):
        products = []
        real = index_mod._score_blocks

        def counting(index, queries, jobs=None):
            slabs = -(-len(index) // index_mod._ROWS)
            blocks = -(-len(queries) // index_mod._BLOCK)
            products.append(blocks * slabs if jobs is None else sum(len(s) for _, s in jobs))
            return real(index, queries, jobs)

        monkeypatch.setattr(index_mod, "_score_blocks", counting)
        rng = np.random.default_rng(36)
        index = make_index(rng.standard_normal((6000, 32)).tolist())
        search(index, index.matrix[3000], 1)
        # 40 queries whose best rows all lie in the first slab: one slab's blocks
        search_batch(index, index.matrix[:40], 1)
        search_batch(index, index.matrix[:40], 5)
        assert products[:2] == [1, 3]
        assert products[2] < 3 * 12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        index = make_index(np.eye(4).tolist())
        query = [0.0, 1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="query 1 has a value that is not finite"):
            search_batch(index, [query, [bad, 0.0, 0.0, 0.0]], 2)
        with pytest.raises(ValueError, match="not finite"):
            search(index, [0.0, bad, 0.0, 0.0], 2)
        with pytest.raises(ValueError, match="not finite"):
            gold_rank(index, np.array([bad, 0.0, 0.0, 0.0]), "doc0")
        with pytest.raises(ValueError, match="not finite"):
            recall_at_k(index, [(query, "doc1"), ([0.0, 0.0, bad, 0.0], "doc2")], [1])


def test_load_index_rejects_a_non_finite_entry(tmp_path):
    matrix = np.eye(4)
    save_index(make_index(matrix.tolist(), ["a", "b", "c", "d"]), tmp_path / "idx.jsonl")
    vec = np.fromfile(tmp_path / "idx.vec", dtype="<f4").reshape(4, 4)
    vec[2, 1] = np.nan
    vec[3, 0] = np.inf
    vec.tofile(tmp_path / "idx.vec")
    with pytest.raises(ValueError, match=r"entry 2 \('c'\) has a value that is not finite"):
        load_index(tmp_path / "idx.jsonl")


class TestIndexRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad, dtype):
        matrix = np.eye(4, dtype=dtype)
        matrix[2] = bad
        with pytest.raises(ValueError, match=r"entry 2 \('doc2'\) has a value that is not finite"):
            DenseIndex(RetrievalMode.VISUAL, 4, ("doc0", "doc1", "doc2", "doc3"), matrix)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_row_whose_sum_overflows_is_accepted(self):
        matrix = np.eye(4)
        matrix[1] = [1e308, 1e308, -1e308, 0.0]
        index = DenseIndex(RetrievalMode.VISUAL, 4, ("a", "b", "c", "d"), matrix)
        assert not index.matrix.flags.writeable

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (16,), (4, 4, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"matrix shape .* is not \(4, 4\)"):
            DenseIndex(RetrievalMode.VISUAL, 4, ("a", "b", "c", "d"), np.ones(shape))


def widened(index: DenseIndex) -> DenseIndex:
    return replace(index, matrix=index.matrix.astype(np.float64))


class TestLoadedFloat32Rows:
    """A loaded index holds its sidecar's float32 rows, and each canonical
    product widens them exactly, so it scores as the same rows in float64."""

    @pytest.fixture
    def saved(self, tmp_path):
        index, queries = screened_index(1300, 64, seed=37)
        return save_index(index, tmp_path / "idx.jsonl"), queries

    def test_matrix_is_the_sidecar_read_only_and_saves_the_same_bytes(self, saved, tmp_path):
        path, _ = saved
        loaded = load_index(path)
        assert loaded.matrix.dtype == np.float32
        assert not loaded.matrix.flags.writeable
        again = save_index(loaded, tmp_path / "again.jsonl")
        assert again.read_bytes() == path.read_bytes()
        assert (tmp_path / "again.vec").read_bytes() == (tmp_path / "idx.vec").read_bytes()

    def test_hits_equal_those_of_the_rows_in_float64(self, saved):
        path, queries = saved
        loaded = load_index(path)
        wide = widened(loaded)
        # 3 slabs: a top 1 is screened, a top 5 or 50 scores every slab
        for k in (1, 5, 50):
            expected = [as_tuples(h) for h in search_batch(wide, queries, k)]
            for workers in (1, 2, 3):
                found = search_batch(loaded, queries, k, workers)
                assert [as_tuples(h) for h in found] == expected, (k, workers)

    def test_gold_rank_and_recall_equal_those_of_the_rows_in_float64(self, saved):
        path, queries = saved
        loaded = load_index(path)
        wide = widened(loaded)
        golds = [search(wide, q, 3)[i % 3].doc_id for i, q in enumerate(queries)]
        for q, gold in zip(queries, golds):
            assert gold_rank(loaded, q, gold) == gold_rank(wide, q, gold)
        pairs = list(zip(queries, golds))
        assert recall_at_k(loaded, pairs, [1, 2, 3]) == recall_at_k(wide, pairs, [1, 2, 3])


def test_longest_row_of_float32_rows_sums_its_squares_in_float64():
    rows = np.random.default_rng(38).standard_normal((2000, 256)).astype(np.float32)
    index = DenseIndex(RetrievalMode.VISUAL, 256, tuple(map(str, range(2000))), rows)
    wide = rows.astype(np.float64)
    expected = float(np.sqrt(np.einsum("ij,ij->i", wide, wide).max()))
    # float32 sums would be off by about dim * 2**-24 of it
    assert index._longest_row == pytest.approx(expected, rel=2.0**-45)
