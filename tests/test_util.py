import pytest

from reflectrag.util import atomic_open, atomic_write_bytes


def test_atomic_open_streams_then_renames(tmp_path):
    target = tmp_path / "sub" / "out.jsonl"
    with atomic_open(target) as fh:
        fh.write("a\n")
        assert not target.exists()
        fh.write("b\r\n")
    assert target.read_bytes() == b"a\nb\r\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.jsonl"]


def test_exception_mid_stream_leaves_neither_target_nor_temp_file(tmp_path):
    target = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("partial\n")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []


def test_failed_rewrite_keeps_the_old_file(tmp_path):
    target = tmp_path / "report.json"
    atomic_write_bytes(target, b"old")
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(target, "wb") as fh:
            fh.write(b"new")
            raise KeyboardInterrupt
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]
