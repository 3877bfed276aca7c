import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflectrag.util import atomic_open, atomic_write_bytes, json_value


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


def decoded(decode, text):
    """What ``decode(text)`` gives: the value's repr, which tells NaN, -0.0
    and 1 from 1.0 apart, or the exception's type, message and position."""
    try:
        return repr(decode(text))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "msg", None), getattr(exc, "pos", None)


# Any character, lone surrogates included
chars = st.characters(exclude_categories=())
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
           | st.floats() | st.text(chars))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(chars), inner, max_size=4),
    max_leaves=12,
)
spaces = st.text(" \t\r\n", max_size=3)


@st.composite
def json_texts(draw):
    """A JSON text, maybe padded, prefixed with a BOM, cut short, followed by
    a second value, or with a character changed."""
    text = json.dumps(draw(values), ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    text = draw(spaces) + text + draw(spaces)
    if draw(st.booleans()):
        text = draw(st.sampled_from(["", "\ufeff"])) + text
    edit = draw(st.sampled_from(["none", "cut", "second", "change"]))
    if edit == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif edit == "second":
        text += draw(st.sampled_from([" ", ",", ""])) + json.dumps(draw(values))
    elif edit == "change" and text:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(chars) + text[at + 1:]
    return text


@settings(max_examples=500, deadline=None)
@given(st.text(chars) | st.text('{}[]",:0123456789.eE+-tfnul \\') | json_texts())
@example("")
@example(" ")
@example("1 2")
@example("{} {}")
@example(" {} ")
@example("\ufeff{}")
@example("\ufeff")
@example("NaN")
@example("-Infinity")
@example("[Infinity, -0.0, 1, 1.0, 1e400]")
@example('"\\ud800"')
@example('"\ud800"')
@example('"\\u00e9\\n\\t\\/"')
@example("1" * 5000)
@example("[" * 100_000)
@example(str(2**100))
@example('{"doc_id":"a"')
@example('{"doc_id":"b"},{"doc_id":"c"}')
@example('{"a": 1, "a": 2}')
@example('"\x01"')
def test_json_value_gives_what_json_loads_gives(text):
    assert decoded(json_value, text) == decoded(json.loads, text)
