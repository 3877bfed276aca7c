import json

import numpy as np
import pytest

from reflectrag.kb import (
    KBLoadError,
    Passage,
    load_kb,
    passages_of,
    save_kb,
    sidecar_path,
)

from conftest import doc_record, write_kb_file


def test_load_counts_records(tmp_path):
    path = write_kb_file(
        tmp_path / "kb.jsonl",
        [doc_record("a"), doc_record("b"), doc_record("c")],
    )
    kb = load_kb(path)
    assert len(kb) == 3
    assert kb.embedding_dim == 4
    assert kb.doc_ids() == ["a", "b", "c"]


def test_duplicate_id_cites_line(tmp_path):
    docs = [doc_record(f"d{i}") for i in range(5)] + [doc_record("d2")]
    path = write_kb_file(tmp_path / "kb.jsonl", docs)
    with pytest.raises(KBLoadError, match="line 7"):
        load_kb(path)  # duplicate sits on line 7 (manifest + 6 records)


def test_malformed_json_cites_line(tmp_path):
    path = tmp_path / "kb.jsonl"
    good = json.dumps(doc_record("a"))
    path.write_text(
        '{"manifest": true, "embedding_dim": 4, "count": 2}\n' + good + "\n{oops\n"
    )
    with pytest.raises(KBLoadError, match="line 3"):
        load_kb(path)


def test_non_unit_embedding_rejected(tmp_path):
    path = write_kb_file(
        tmp_path / "kb.jsonl", [doc_record("a", embedding=[0.5, 0.0, 0.0, 0.0])]
    )
    with pytest.raises(KBLoadError, match="not unit-normalized") as exc_info:
        load_kb(path)
    assert "'a'" in str(exc_info.value)


def test_embedding_length_mismatch_names_doc(tmp_path):
    path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("doc-x", embedding=[1.0, 0.0])])
    with pytest.raises(KBLoadError, match="doc-x"):
        load_kb(path)


def test_count_mismatch_rejected(tmp_path):
    path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("a")], manifest={"count": 5})
    with pytest.raises(KBLoadError, match="count"):
        load_kb(path)


def test_empty_section_body_rejected(tmp_path):
    path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("a", sections=["ok", "  "])])
    with pytest.raises(KBLoadError, match="empty body"):
        load_kb(path)


def test_empty_title_rejected(tmp_path):
    record = doc_record("a")
    record["title"] = "  "
    path = write_kb_file(tmp_path / "kb.jsonl", [record])
    with pytest.raises(KBLoadError, match="title"):
        load_kb(path)


def test_zero_section_document_allowed(tmp_path):
    path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("bare", sections=[])])
    kb = load_kb(path)
    assert passages_of(kb, "bare") == []


def test_missing_embedding_is_warning_not_error(tmp_path, caplog):
    path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("a", embedding=None)])
    with caplog.at_level("WARNING"):
        kb = load_kb(path)
    assert kb.documents["a"].image_embedding is None
    assert any("image embedding" in r.message for r in caplog.records)


def test_passages_are_ordered_views(tmp_path):
    path = write_kb_file(
        tmp_path / "kb.jsonl", [doc_record("a", sections=["first.", "second.", "third."])]
    )
    kb = load_kb(path)
    passages = passages_of(kb, "a")
    assert [p.section_index for p in passages] == [0, 1, 2]
    assert passages[1] == Passage("a", 1, "second.")
    assert passages_of(kb, "a") == passages  # pure
    with pytest.raises(LookupError):
        passages_of(kb, "nope")


def test_passage_count_matches_sections(tmp_path):
    docs = [doc_record(f"d{i}", sections=["x."] * (i + 1)) for i in range(4)]
    kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
    for doc_id, doc in kb.documents.items():
        assert len(passages_of(kb, doc_id)) == len(doc.sections)


def test_round_trip_inline(tmp_path):
    docs = [
        doc_record("a", sections=["alpha.", "beta."], summary="sum"),
        doc_record("b", embedding=[0.0, 1.0, 0.0, 0.0]),
        doc_record("c", embedding=None),
    ]
    kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
    out = tmp_path / "kb2.jsonl"
    save_kb(kb, out)
    assert load_kb(out) == kb


def test_round_trip_sidecar(tmp_path):
    docs = [
        doc_record("a", embedding=[1.0, 0.0, 0.0, 0.0]),
        doc_record("b", embedding=[0.0, 0.0, 1.0, 0.0]),
    ]
    kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
    out = tmp_path / "side.jsonl"
    save_kb(kb, out, embeddings="sidecar")
    assert sidecar_path(out).exists()
    reloaded = load_kb(out)
    assert reloaded == kb
    assert reloaded.source_manifest.embedding_storage == "sidecar"


def test_sidecar_inline_embedding_conflict(tmp_path):
    path = write_kb_file(
        tmp_path / "kb.jsonl", [doc_record("a")], manifest={"embeddings": "sidecar"}
    )
    vec = np.asarray([[1.0, 0.0, 0.0, 0.0]], dtype="<f4")
    vec.tofile(sidecar_path(path))
    with pytest.raises(KBLoadError, match="inline embedding present"):
        load_kb(path)


def test_sidecar_size_mismatch(tmp_path):
    path = write_kb_file(
        tmp_path / "kb.jsonl",
        [doc_record("a", embedding=None)],
        manifest={"embeddings": "sidecar"},
    )
    np.asarray([1.0, 0.0], dtype="<f4").tofile(sidecar_path(path))
    with pytest.raises(KBLoadError, match="sidecar"):
        load_kb(path)


def write_sidecar_kb(tmp_path, rows, docs=None):
    """A sidecar KB with one document per row of ``rows``."""
    docs = docs or [doc_record(f"d{i}", embedding=None) for i in range(len(rows))]
    path = write_kb_file(tmp_path / "kb.jsonl", docs, manifest={"embeddings": "sidecar"})
    np.asarray(rows, dtype="<f4").tofile(sidecar_path(path))
    return path


@pytest.mark.parametrize(
    "bad, message",
    [
        ([2.0, 0.0, 0.0, 0.0], r"\(norm=2\)"),
        ([1.0, np.nan, 0.0, 0.0], r"\(norm=nan\)"),
        ([0.0, 0.0, 0.0, 0.0], r"\(norm=0\)"),
        ([1.0002, 0.0, 0.0, 0.0], r"\(norm=1\.0002\)"),
    ],
)
def test_sidecar_row_off_the_unit_sphere_cites_its_line(tmp_path, bad, message):
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], bad, [3.0, 0.0, 0.0, 0.0]]
    message = "line 4: document 'd2': embedding not unit-normalized " + message
    with pytest.raises(KBLoadError, match=message):
        load_kb(write_sidecar_kb(tmp_path, rows))


def test_sidecar_rows_within_tolerance_load_as_read_only_views(tmp_path):
    # norms 1 - 8e-5 and 1 + 8e-5 are inside UNIT_NORM_TOL but outside the
    # vectorized pass's stricter bound, so they take the per-row check
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.99992, 0.0, 0.0], [0.0, 0.0, 1.00008, 0.0]]
    kb = load_kb(write_sidecar_kb(tmp_path, rows))
    embeddings = [doc.image_embedding for doc in kb.documents.values()]
    assert np.array_equal(np.vstack(embeddings), np.asarray(rows, dtype=np.float32))
    for emb in embeddings:
        assert emb.dtype == np.float32 and not emb.flags.writeable
        assert emb.base is embeddings[0].base is not None


def test_sidecar_errors_keep_line_order(tmp_path):
    rows = [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]]
    docs = [doc_record(doc_id, embedding=None) for doc_id in ("d0", "d1", "d0")]
    # the bad norm on line 3 is reported before the duplicate id on line 4
    with pytest.raises(KBLoadError, match="line 3: document 'd1': embedding not unit"):
        load_kb(write_sidecar_kb(tmp_path, rows, docs))
    # a document error on a line comes before that line's embedding check
    docs[1]["sections"] = []
    docs[1]["title"] = ""
    with pytest.raises(KBLoadError, match="line 3: document 'd1': title must be non-empty"):
        load_kb(write_sidecar_kb(tmp_path, rows, docs))
