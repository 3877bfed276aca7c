import json

import numpy as np
import pytest

from reflectrag import kb as kb_module
from reflectrag.kb import (
    Document,
    KBLoadError,
    KnowledgeBase,
    Passage,
    Section,
    SourceManifest,
    idx_path,
    load_kb,
    passages_of,
    save_kb,
    sidecar_path,
    write_offset_index,
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


@pytest.mark.parametrize("extra, held", [
    (b"\0", "9 bytes"), (b"\0\0", "10 bytes"), (b"\0\0\0", "11 bytes"), (b"\0" * 4, "3 floats"),
])
def test_sidecar_must_be_exactly_count_by_dim_floats(tmp_path, extra, held):
    path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("a", embedding=None)], dim=2,
                         manifest={"embeddings": "sidecar"})
    sidecar_path(path).write_bytes(np.asarray([1.0, 0.0], dtype="<f4").tobytes() + extra)
    with pytest.raises(KBLoadError) as exc_info:
        load_kb(path)
    assert str(exc_info.value) == f"line 1: sidecar holds {held}, expected 1x2"


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


# --------------------------------------------------------------------------
# Offset index (<stem>.idx)
# --------------------------------------------------------------------------


def saved_kb(path, embeddings="sidecar", count=4):
    """``save_kb`` of a valid ``count``-document KB at ``path``."""
    docs = [
        doc_record(f"d{i}", title="ABCDEFGH"[i], sections=[f"Body {i}.", "More."],
                   embedding=np.eye(4)[i % 4].tolist())
        for i in range(count)
    ]
    save_kb(load_kb(write_kb_file(path.with_name("source.jsonl"), docs)), path, embeddings)
    assert idx_path(path).exists()
    return path


def load_outcome(path):
    """The loaded KB, or the message and line number of its error."""
    try:
        return load_kb(path)
    except KBLoadError as exc:
        return str(exc), exc.line_number


ERROR_CASES = [
    test_duplicate_id_cites_line,
    test_malformed_json_cites_line,
    test_non_unit_embedding_rejected,
    test_embedding_length_mismatch_names_doc,
    test_count_mismatch_rejected,
    test_empty_section_body_rejected,
    test_empty_title_rejected,
    test_sidecar_inline_embedding_conflict,
    test_sidecar_size_mismatch,
    test_sidecar_errors_keep_line_order,
]


@pytest.mark.parametrize("case", ERROR_CASES, ids=lambda case: case.__name__)
def test_error_case_with_an_index_written_for_another_kb(tmp_path, case):
    saved_kb(tmp_path / "kb.jsonl")  # the case then rewrites kb.jsonl, not kb.idx
    case(tmp_path)
    assert idx_path(tmp_path / "kb.jsonl").exists()


def edit_one_byte(path, old: bytes, new: bytes):
    raw = path.read_bytes()
    assert len(old) == len(new) == 1 and raw.count(old) >= 1
    at = raw.index(old, raw.index(b"\n"))  # the first one after the manifest
    path.write_bytes(raw[:at] + new + raw[at + 1:])


@pytest.mark.parametrize("embeddings", ["inline", "sidecar"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"{", b"[", "line 2: malformed JSON"),
        (b"A", b" ", "line 2: document 'd0': title must be non-empty"),
        (b"B", b" ", None),  # "Body 0." -> " ody 0.": still valid
        (b"1", b" ", None),  # an inline embedding value, or section title "S1"
    ],
)
def test_one_byte_edit_after_the_index_is_validated_in_full(tmp_path, embeddings, old, new, message):
    path = saved_kb(tmp_path / "kb.jsonl", embeddings)
    edit_one_byte(path, old, new)
    with_stale_index = load_outcome(path)
    if message is not None:
        assert with_stale_index[0].startswith(message)
    idx_path(path).unlink()
    assert load_outcome(path) == with_stale_index


@pytest.mark.parametrize(
    "row, message",
    [
        ([2.0, 0.0, 0.0, 0.0], "line 4: document 'd2': embedding not unit-normalized (norm=2)"),
        ([1.0, np.nan, 0.0, 0.0], "line 4: document 'd2': embedding not unit-normalized (norm=nan)"),
    ],
)
def test_changed_sidecar_row_is_validated_in_full(tmp_path, row, message):
    path = saved_kb(tmp_path / "kb.jsonl")
    vec = np.fromfile(sidecar_path(path), dtype="<f4").reshape(4, 4)
    vec[2] = row
    vec.tofile(sidecar_path(path))
    assert load_outcome(path) == (message, 4)
    idx_path(path).unlink()
    assert load_outcome(path) == (message, 4)


def test_changed_unit_sidecar_row_is_read_from_the_sidecar(tmp_path):
    path = saved_kb(tmp_path / "kb.jsonl")
    vec = np.fromfile(sidecar_path(path), dtype="<f4").reshape(4, 4)
    vec[2] = [0.0, 0.6, 0.8, 0.0]
    vec.tofile(sidecar_path(path))
    assert np.array_equal(load_kb(path).document("d2").image_embedding, vec[2])


def test_matching_index_parses_documents_on_first_access(tmp_path, monkeypatch):
    path = saved_kb(tmp_path / "kb.jsonl")
    parsed = []
    parse = kb_module._parse_document
    monkeypatch.setattr(
        kb_module, "_parse_document",
        lambda obj, dim, line_no, *row: parsed.append(line_no) or parse(obj, dim, line_no, *row),
    )
    kb = load_kb(path)
    assert parsed == []
    assert len(kb) == 4 and kb.doc_ids() == ["d0", "d1", "d2", "d3"]
    assert "d3" in kb and "nope" not in kb and "d3" in kb.documents
    assert parsed == []
    assert kb.document("d2").sections == (Section("S0", "Body 2."), Section("S1", "More."))
    kb.document("d2")
    assert parsed == [4]
    with pytest.raises(LookupError, match="unknown document id"):
        kb.document("nope")
    idx_path(path).unlink()
    assert load_kb(path) == kb
    assert len(parsed) == 1 + 4 + 3  # d2, the full load, then kb's other three for ==


@pytest.mark.parametrize("shift", ["next line", "mid line", "past the end"])
def test_wrong_offset_raises_on_first_access(tmp_path, shift):
    path = saved_kb(tmp_path / "kb.jsonl", "inline")
    table = json.loads(idx_path(path).read_text())
    offsets = table["offsets"]
    offsets[1] = {
        "next line": offsets[2],
        "mid line": offsets[1] + 5,
        "past the end": path.stat().st_size + 10,
    }[shift]
    idx_path(path).write_text(json.dumps(table))
    kb = load_kb(path)
    assert kb.document("d0").id == "d0"
    with pytest.raises(KBLoadError, match="line 3: "):
        kb.document("d1")


@pytest.mark.parametrize("embeddings", ["inline", "sidecar"])
def test_round_trip_with_and_without_the_index(tmp_path, embeddings):
    docs = [
        doc_record("a", sections=["alpha.", "beta."], summary="sum"),
        doc_record("b", embedding=[0.0, 1.0, 0.0, 0.0]),
        doc_record("c", sections=[]),
    ]
    if embeddings == "inline":
        docs.append(doc_record("d", embedding=None))
    kb = load_kb(write_kb_file(tmp_path / "kb.jsonl", docs))
    out = save_kb(kb, tmp_path / "out.jsonl", embeddings)
    lazy = load_kb(out)
    idx_path(out).unlink()
    full = load_kb(out)
    assert lazy == kb and full == kb
    assert lazy.source_manifest == full.source_manifest
    assert lazy.source_manifest.embedding_storage == embeddings


def test_missing_embedding_warning_with_the_index(tmp_path, caplog):
    path = save_kb(
        load_kb(write_kb_file(tmp_path / "src.jsonl", [doc_record("a"), doc_record("b", embedding=None)])),
        tmp_path / "kb.jsonl",
    )
    assert idx_path(path).exists()
    with caplog.at_level("WARNING"):
        load_kb(path)
    assert any("1/2 documents have no image embedding" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "bad",
    [
        Document("x", "  ", "", (Section("S", "text."),), None),
        Document("x", "X", "", (Section("S", " "),), None),
        Document("", "X", "", (), None),
        Document("x", "X", "", (), np.asarray([0.5, 0.0, 0.0, 0.0], dtype=np.float32)),
        Document("a", "Again", "", (), None),  # a second document with id "a"
    ],
)
def test_save_kb_of_an_invalid_document_writes_no_index(tmp_path, bad):
    good = Document("a", "A", "", (Section("S", "text."),), None)
    kb = KnowledgeBase({"a": good, "bad": bad}, 4, SourceManifest("mem", 2, "", "memory"))
    path = saved_kb(tmp_path / "kb.jsonl", "inline")  # leaves an index to replace
    save_kb(kb, path)
    assert not idx_path(path).exists()
    with pytest.raises(KBLoadError, match="line 3: "):
        load_kb(path)


@pytest.mark.parametrize("record", ["5", '"doc"', "null", "[1]"])
def test_record_that_is_not_an_object_cites_its_line(tmp_path, record):
    path = tmp_path / "kb.jsonl"
    path.write_text('{"manifest": true, "embedding_dim": 4, "count": 1}\n' + record + "\n")
    with pytest.raises(KBLoadError, match="line 2: document record must be a JSON object"):
        load_kb(path)


def test_threads_reading_a_lazy_kb_see_the_documents_of_a_full_load(tmp_path):
    import sys
    import threading

    path = saved_kb(tmp_path / "kb.jsonl", count=8)
    kb = load_kb(path)
    idx_path(path).unlink()
    full = load_kb(path)
    ids = full.doc_ids()
    seen: list[list] = [[] for _ in range(8)]

    def read(i):
        for doc_id in ids[i % 8:] + ids[: i % 8]:
            seen[i].append(kb.document(doc_id) == full.document(doc_id))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [[True] * 8] * 8


def count_parses(monkeypatch) -> list:
    """The line numbers :func:`kb._parse_document` is called with, from now on."""
    parsed = []
    parse = kb_module._parse_document
    monkeypatch.setattr(
        kb_module, "_parse_document",
        lambda obj, dim, line_no, *row: parsed.append(line_no) or parse(obj, dim, line_no, *row),
    )
    return parsed


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.update(ids=t["ids"][:3], offsets=t["offsets"][:3]),  # a truncated table
        lambda t: t.update(ids=t["ids"][:3]),
        lambda t: t.update(offsets=t["offsets"][:3]),
        lambda t: t["ids"].__setitem__(3, "d0"),  # a duplicate id
        lambda t: t["ids"].__setitem__(1, 7),
        lambda t: t["offsets"].__setitem__(1, str(t["offsets"][1])),
        lambda t: t["offsets"].__setitem__(1, True),
        lambda t: t.update(missing_embeddings="0"),
        lambda t: t.update(ids={"d0": 0}),
    ],
)
def test_malformed_index_for_these_bytes_is_validated_in_full(tmp_path, monkeypatch, mangle):
    path = saved_kb(tmp_path / "kb.jsonl", "inline")
    full = load_kb(path)
    table = json.loads(idx_path(path).read_text())
    mangle(table)
    idx_path(path).write_text(json.dumps(table))
    parsed = count_parses(monkeypatch)
    assert load_kb(path) == full
    assert parsed[:4] == [2, 3, 4, 5]  # every document, at load


def hand_written_kb(path, ends=("\n",) * 4):
    """A valid KB as another tool might write it: spaces in its JSON, a
    non-ASCII title, and ``ends`` after the manifest and each record."""
    docs = [doc_record("a", title="Café au lait"), doc_record("b", embedding=None), doc_record("c")]
    lines = [json.dumps({"manifest": True, "embedding_dim": 4, "count": 3})]
    lines += [json.dumps(d, ensure_ascii=False) for d in docs]
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))
    return path


@pytest.mark.parametrize("ends", [("\n",) * 4, ("\r\n",) * 4, ("\n", "\n", "\n", "")])
def test_write_offset_index_of_a_kb_from_other_tools(tmp_path, monkeypatch, ends):
    path = hand_written_kb(tmp_path / "kb.jsonl", ends)
    full = load_kb(path)
    assert write_offset_index(full) == idx_path(path)
    parsed = count_parses(monkeypatch)
    lazy = load_kb(path)
    assert parsed == []
    assert lazy == full and lazy.source_manifest == full.source_manifest
    assert sorted(parsed) == [2, 3, 4]


@pytest.mark.parametrize(
    "ends",
    [
        ("\n", "\n  \n", "\n", "\n"),  # a blank line
        ("\n", "\u2028\n", "\u2028\n", "\u2028\n"),  # str.splitlines ends a line at U+2028
        ("\n", "\r", "\n \n", "\n"),  # two records on one "\n" line, and a blank one
        ("\n", "\x1c", "\n\t\n", "\n"),
        ("\n", "\u2029", "\n\xa0\n", "\n"),
    ],
)
def test_write_offset_index_skips_a_kb_not_one_record_per_line(tmp_path, ends):
    path = hand_written_kb(tmp_path / "kb.jsonl", ends)
    full = load_kb(path)
    assert write_offset_index(full) is None
    assert not idx_path(path).exists()
    assert load_kb(path) == full


def test_write_offset_index_checks_every_document_and_the_file(tmp_path):
    path = saved_kb(tmp_path / "kb.jsonl", "inline")
    saved = idx_path(path).read_bytes()
    kb = load_kb(path)  # lazily, from the index save_kb wrote
    idx_path(path).unlink()
    assert write_offset_index(kb) == idx_path(path)
    assert idx_path(path).read_bytes() == saved
    edit_one_byte(path, b"A", b"Z")  # changed since load: d0's title
    idx_path(path).unlink()
    assert write_offset_index(kb) is None and not idx_path(path).exists()
    path = saved_kb(tmp_path / "kb.jsonl", "inline")
    kb = load_kb(path)
    table = json.loads(idx_path(path).read_text())
    table["offsets"][2] = table["offsets"][1]
    idx_path(path).write_text(json.dumps(table))
    kb = load_kb(path)
    with pytest.raises(KBLoadError, match="line 4: offset index gives 'd2' the line of 'd1'"):
        write_offset_index(kb)
