"""Shared helpers: compact JSON lines, atomic file writes (one-shot and
streamed), config dataclasses from JSON objects."""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Callable, Iterator, TypeVar

T = TypeVar("T")


def json_line(obj: Any) -> str:
    """Compact single-line JSON preserving dict insertion order."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


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


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dataclass_from_dict(cls: type[T], obj: dict, parsers: dict[str, Callable]) -> T:
    """Build dataclass ``cls`` from the JSON object ``obj``.

    Missing keys take the field defaults and unknown keys are ignored. A
    value goes through ``parsers[name]`` when there is one, except ``None``
    for a field whose default is ``None``. A value a parser rejects raises
    ``ValueError`` naming the field.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {obj!r}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            continue
        value = obj[f.name]
        parse = parsers.get(f.name)
        if parse is not None and not (value is None and f.default is None):
            try:
                value = parse(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{cls.__name__}.{f.name}: bad value {value!r}: {exc}") from exc
        kwargs[f.name] = value
    return cls(**kwargs)
