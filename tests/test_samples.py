"""Dataset files: inline embeddings, rows of a memory-mapped ``<stem>.npy``,
and the errors of each form."""
import json

import numpy as np
import pytest

from reflectrag.backend import serve_generate
from reflectrag.cli import main
from reflectrag.kb import KBLoadError, load_kb
from reflectrag.samples import (
    QuerySample,
    SampleError,
    embeddings_path,
    load_samples,
    sample_to_dict,
    save_samples,
)
from reflectrag.synth import RuleBackend
from reflectrag.util import json_line

from conftest import doc_record, make_synthetic_data, write_kb_file
from stub_server import StubServer

FIVE_VARIANTS = "full,always_ret,external_scorer_passages,random_passages_norel,no_kb"


def run(argv):
    return main([str(a) for a in argv])


def sample(i, embedding=(0.6, 0.8), **extra):
    return QuerySample(
        id=f"s{i}", question=f"question {i}?", image_ref=f"img{i}",
        image_embedding=None if embedding is None else np.asarray(embedding),
        gold_answers=("answer",), gold_doc_id=None, dataset="d", split="test", **extra,
    )


def write_inline(samples, path):
    path.write_text("".join(json_line(sample_to_dict(s)) + "\n" for s in samples))
    return path


def assert_same_samples(loaded, expected):
    def fields(s):
        return sample_to_dict(s) | {"image_embedding": None}

    assert [fields(s) for s in loaded] == [fields(s) for s in expected]
    for got, want in zip(loaded, expected):
        if want.image_embedding is None:
            assert got.image_embedding is None
            continue
        assert got.image_embedding.dtype == np.float32
        assert not got.image_embedding.flags.writeable
        want32 = np.asarray(want.image_embedding, dtype=np.float32)
        assert got.image_embedding.tobytes() == want32.tobytes()


class TestRoundTrip:
    def test_embeddings_are_rows_of_a_little_endian_float32_npy(self, tmp_path):
        samples = [sample(0), sample(1, None), sample(2, (0.0, 1.0), subset="unseen_q",
                                                       captions=("a cat",))]
        path = save_samples(samples, tmp_path / "d.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["image_embedding"] for r in records] == [{"row": 0}, None, {"row": 1}]
        rows = np.load(embeddings_path(path))
        assert (rows.dtype.str, rows.shape, rows.flags.c_contiguous) == ("<f4", (2, 2), True)
        assert_same_samples(load_samples(path), samples)

    def test_rows_load_as_the_float32_values_of_the_inline_form(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = [sample(i, rng.standard_normal(16)) for i in range(5)]  # float64 in memory
        sidecar = load_samples(save_samples(samples, tmp_path / "d.jsonl"))
        inline = load_samples(write_inline(samples, tmp_path / "inline.jsonl"))
        assert_same_samples(sidecar, inline)
        assert_same_samples(sidecar, samples)

    def test_without_embeddings_no_npy_is_written_and_a_stale_one_is_removed(self, tmp_path):
        path = save_samples([sample(0)], tmp_path / "d.jsonl")
        assert embeddings_path(path).exists()
        samples = [sample(0, None), sample(1, None)]
        save_samples(samples, path)
        assert not embeddings_path(path).exists()
        assert '"image_embedding":null' in path.read_text()
        assert_same_samples(load_samples(path), samples)

    def test_a_file_may_mix_inline_and_row_lines(self, tmp_path):
        samples = [sample(0), sample(1, (1.0, 0.0)), sample(2, (0.28, 0.96)), sample(3, None)]
        path = save_samples(samples, tmp_path / "d.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = json_line(sample_to_dict(samples[1]))
        path.write_text("\n".join(lines) + "\n")
        assert [json.loads(line)["image_embedding"] for line in lines] == [
            {"row": 0}, [1.0, 0.0], {"row": 2}, None]
        assert_same_samples(load_samples(path), samples)

    def test_an_inline_only_file_never_opens_the_npy(self, tmp_path):
        path = write_inline([sample(0), sample(1, (0, 1))], tmp_path / "d.jsonl")
        embeddings_path(path).write_bytes(b"not an array")
        assert_same_samples(load_samples(path), [sample(0), sample(1, (0, 1))])

    def test_embeddings_of_different_lengths_stay_inline(self, tmp_path):
        samples = [sample(0), sample(1, (0.0, 0.6, 0.8))]
        path = save_samples(samples, tmp_path / "d.jsonl")
        assert not embeddings_path(path).exists()
        assert_same_samples(load_samples(path), samples)


class TestSidecarErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        return save_samples([sample(0), sample(1, (1.0, 0.0))], tmp_path / "d.jsonl")

    def test_missing_npy_names_the_file(self, saved):
        npy = embeddings_path(saved)
        npy.unlink()
        with pytest.raises(SampleError) as exc_info:
            load_samples(saved)
        assert str(exc_info.value) == f"{npy}: embeddings file not found"

    def test_a_file_that_is_not_npy_names_the_file(self, saved):
        npy = embeddings_path(saved)
        npy.write_bytes(b"not an array")
        with pytest.raises(SampleError) as exc_info:
            load_samples(saved)
        # the rest of the message is numpy's
        assert str(exc_info.value).startswith(f"{npy}: not a NumPy array file: ")

    @pytest.mark.parametrize("array, held", [
        (np.ones(4, "<f4"), "1-D <f4"),
        (np.ones((2, 2, 1), "<f4"), "3-D <f4"),
        (np.ones((2, 2), "<f8"), "2-D <f8"),
        (np.ones((2, 2), ">f4"), "2-D >f4"),
    ])
    def test_an_array_that_is_not_2d_little_endian_float32_names_the_file(self, saved, array, held):
        npy = embeddings_path(saved)
        np.save(npy, array)
        with pytest.raises(SampleError) as exc_info:
            load_samples(saved)
        assert str(exc_info.value) == f"{npy}: holds a {held} array, not a 2-D <f4 one"

    @pytest.mark.parametrize("ref", [
        {"row": True}, {"row": -1}, {"row": 2}, {"row": 1.0}, {"row": "1"},
        {"row": 1, "dim": 2}, {"rows": 1}, {},
    ])
    def test_a_bad_reference_names_the_path_and_the_line(self, saved, ref):
        lines = saved.read_text().splitlines()
        record = json.loads(lines[1])
        record["image_embedding"] = ref
        lines[1] = json.dumps(record)
        saved.write_text("\n\n".join(lines) + "\n")  # the blank line still counts
        with pytest.raises(SampleError) as exc_info:
            load_samples(saved)
        assert str(exc_info.value) == (
            f'{saved}: line 3: image_embedding {json_line(ref)} is not {{"row": i}} '
            f"with 0 <= i < 2"
        )


@pytest.mark.parametrize("embedding", [
    ["0.6", True, 1], [[0.6, 0.8]], [0.6, None], "0.6, 0.8", 0.6, True,
])
def test_an_inline_embedding_that_is_not_a_flat_list_of_numbers_names_the_line(
    tmp_path, embedding
):
    record = sample_to_dict(sample(1, None)) | {"image_embedding": embedding}
    path = write_inline([sample(0)], tmp_path / "d.jsonl")
    path.write_text(path.read_text() + json.dumps(record) + "\n")
    with pytest.raises(SampleError) as exc_info:
        load_samples(path)
    assert str(exc_info.value) == (
        f'{path}: line 2: image_embedding must be null, a list of JSON numbers or {{"row": i}}'
    )


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "a sample must be a JSON object"),
    ('"s1"', "a sample must be a JSON object"),
    ("null", "a sample must be a JSON object"),
    ('{"question": "q?", "image_ref": "i"}', "missing required key 'id'"),
    ('{"id": "s1", "image_ref": "i"}', "missing required key 'question'"),
    ('{"id": "s1", "question": "q?"}', "missing required key 'image_ref'"),
])
def test_a_line_that_is_not_a_sample_names_the_path_and_the_line(tmp_path, line, message):
    path = write_inline([sample(0)], tmp_path / "d.jsonl")
    path.write_text(path.read_text() + "\n" + line + "\n")
    with pytest.raises(SampleError) as exc_info:
        load_samples(path)
    assert str(exc_info.value) == f"{path}: line 3: {message}"


def test_eval_exits_2_naming_the_line_that_is_not_a_sample(forms, tmp_path, capsys):
    root, datasets = forms
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(datasets["inline"].read_text() + "[1, 2]\n")
    line_no = len(dataset.read_text().splitlines())
    assert run(["eval", "--kb", root / "kb.jsonl", "--index", root / "index.jsonl",
                "--dataset", dataset, "--backend", "rule", "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: {dataset}: line {line_no}: a sample must be a JSON object\n")


def test_a_dataset_byte_that_is_not_utf8_names_the_path_and_the_line(tmp_path):
    path = write_inline([sample(0), sample(1)], tmp_path / "d.jsonl")
    path.write_bytes(path.read_bytes().replace(b"question 1", b"question \xff"))
    with pytest.raises(SampleError) as exc_info:
        load_samples(path)
    assert str(exc_info.value) == f"{path}: line 2: byte 0xff is not UTF-8 (invalid start byte)"


def test_a_kb_byte_that_is_not_utf8_names_the_path_and_the_line(tmp_path):
    path = write_kb_file(tmp_path / "kb.jsonl", [doc_record("a"), doc_record("b")])
    path.write_bytes(path.read_bytes().replace(b'"id": "b"', b'"id": "\xe9b"'))
    with pytest.raises(KBLoadError) as exc_info:
        load_kb(path)
    assert str(exc_info.value) == (
        f"{path}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"
    )


@pytest.fixture(scope="module")
def forms(tmp_path_factory):
    """A synthetic corpus whose dataset is saved with its ``.npy`` and also
    rewritten inline: the same samples in both forms."""
    root = make_synthetic_data(tmp_path_factory.mktemp("forms"), docs=18, fact_samples=10,
                               noret_samples=4, miss_samples=1, seed=17)
    sidecar = root / "dataset.jsonl"
    assert embeddings_path(sidecar).exists()
    inline = write_inline(load_samples(sidecar), root / "inline.jsonl")
    assert '"row"' not in inline.read_text()
    return root, {"sidecar": sidecar, "inline": inline}


def assert_same_outputs(left, right):
    names = sorted(p.name for p in left.iterdir())
    assert names == sorted(p.name for p in right.iterdir())
    for name in names:
        assert (left / name).read_bytes() == (right / name).read_bytes(), name


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("backend", ["rule", "remote"])
def test_eval_writes_the_same_bytes_from_both_forms(forms, tmp_path, backend, jobs):
    root, datasets = forms
    rule = RuleBackend.from_samples(load_samples(datasets["inline"]))
    with StubServer(lambda path, payload: (200, serve_generate(rule, payload)),
                    keep_alive=True) as server:
        for form, dataset in datasets.items():
            assert run(["eval", "--kb", root / "kb.jsonl", "--index", root / "index.jsonl",
                        "--dataset", dataset, "--backend", backend, "--endpoint", server.endpoint,
                        "--variants", FIVE_VARIANTS, "--no-timings", "--jobs", jobs,
                        "--out", tmp_path / form]) == 0
    assert (len(server.requests) > 0) == (backend == "remote")
    assert len(list((tmp_path / "sidecar").glob("traces_*.jsonl"))) == 5
    assert_same_outputs(tmp_path / "sidecar", tmp_path / "inline")


def test_stage2_mining_writes_the_same_sequences_from_both_forms(forms, tmp_path):
    root, datasets = forms
    for form, dataset in datasets.items():
        assert run(["mine", "--stage", 2, "--kb", root / "kb.jsonl", "--index",
                    root / "index.jsonl", "--dataset", dataset, "--backend", "rule",
                    "--seed", 17, "--out", tmp_path / form]) == 0
    for name in ("stage2_sequences.jsonl", "stage2_accounting.json"):
        assert (tmp_path / "sidecar" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()


def test_eval_writes_the_same_bytes_from_lines_padded_with_spaces(forms, tmp_path):
    """Lines with whitespace around the value take json.loads's path, not the
    scanner's, and decode to the same index and samples."""
    root, datasets = forms
    padded = tmp_path / "padded"
    padded.mkdir()
    for name in ("index.jsonl", "index.vec", "inline.jsonl"):
        data = (root / name).read_bytes()
        if name.endswith(".jsonl"):
            data = b"".join(b" " + line + b" \n" for line in data.splitlines())
        (padded / name).write_bytes(data)
    for form, index, dataset in (("plain", root / "index.jsonl", datasets["inline"]),
                                 ("padded", padded / "index.jsonl", padded / "inline.jsonl")):
        assert run(["eval", "--kb", root / "kb.jsonl", "--index", index, "--dataset", dataset,
                    "--backend", "rule", "--variants", FIVE_VARIANTS, "--no-timings",
                    "--out", tmp_path / f"out-{form}"]) == 0
    assert_same_outputs(tmp_path / "out-plain", tmp_path / "out-padded")
