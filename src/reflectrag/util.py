"""Shared helpers: compact JSON lines and an exact fast reader for them, a
check for lists of JSON numbers, UTF-8 decoding that names the bad line,
atomic file writes (one-shot and streamed), and config dataclasses to and
from JSON objects, typed by their field annotations."""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
import typing
from enum import Enum
from pathlib import Path
from typing import IO, Any, Iterator, TypeVar

T = TypeVar("T")


_COMPACT = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)


def json_line(obj: Any) -> str:
    """Compact single-line JSON preserving dict insertion order."""
    return _COMPACT.encode(obj)


_SCAN = json.JSONDecoder().scan_once


def json_value(line: str) -> Any:
    """``json.loads(line)``: the same value, or the same exception.

    A line that holds just one JSON value, as :func:`json_line` writes it, is
    decoded by one call of the C scanner, without ``json.loads``'s Python
    layers. Anything else (whitespace around the value, a BOM, an empty or
    malformed line) goes to ``json.loads`` itself.
    """
    try:
        value, end = _SCAN(line, 0)
    except (StopIteration, ValueError):  # json.loads raises its own error
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Yield a handle on a temp file in ``path``'s directory; rename it to
    ``path`` when the block exits normally, delete it when the block raises.

    An interrupted run never leaves a half-written file behind. Text modes
    write UTF-8 and never translate newlines.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def is_json_numbers(value: Any) -> bool:
    """Whether ``value`` is a list of JSON numbers. Types are exact, since numpy
    would read ``"0.6"`` and ``true`` as numbers."""
    return type(value) is list and set(map(type, value)) <= {int, float}


def decode_utf8(raw: bytes, path: str | Path, error: type[Exception]) -> str:
    """``raw``, the bytes of file ``path``, decoded as UTF-8; a byte that is
    not UTF-8 raises ``error`` naming the path and the byte's 1-based line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no}: byte 0x{raw[exc.start]:02x} "
                    f"is not UTF-8 ({exc.reason})") from None


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dataclass_from_dict(cls: type[T], obj: Any) -> T:
    """Build dataclass ``cls`` from the JSON object ``obj``, parsing each
    value by its field's annotation.

    A nested dataclass is read recursively, a ``str`` field takes only a
    string, and any other type (``int``, ``float``, an enum) is called on
    the value. ``X | None`` keeps ``None`` when the field's default is
    ``None``. Missing keys take the defaults and unknown keys are ignored.
    A value that does not parse raises ``ValueError`` naming
    ``Class.field``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {obj!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            continue
        value = obj[f.name]
        if value is None and f.default is None:
            kwargs[f.name] = None
            continue
        kind = hints[f.name]
        kind = next((t for t in typing.get_args(kind) if t is not type(None)), kind)
        try:
            if dataclasses.is_dataclass(kind):
                value = dataclass_from_dict(kind, value)
            elif kind is str and not isinstance(value, str):
                raise TypeError("expected a string")
            else:
                value = kind(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{cls.__name__}.{f.name}: bad value {value!r}: {exc}") from exc
        kwargs[f.name] = value
    return cls(**kwargs)


def dataclass_to_dict(obj: Any) -> dict:
    """:func:`dataclasses.asdict` with enum members written as their values;
    the inverse of :func:`dataclass_from_dict`."""
    return dataclasses.asdict(
        obj, dict_factory=lambda items: {k: v.value if isinstance(v, Enum) else v for k, v in items}
    )
