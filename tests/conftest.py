import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from reflectrag import _http

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
#: Environment in which ``scripts/*.py`` import this checkout's package.
SCRIPT_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


def script_command(name: str, *args) -> list[str]:
    """``python scripts/<name> args...``; run it with :data:`SCRIPT_ENV`."""
    return [sys.executable, str(ROOT / "scripts" / name), *map(str, args)]


def make_synthetic_data(out: Path, **options) -> Path:
    """Run ``scripts/make_synthetic_data.py --out out`` with ``options`` as
    flags (``fact_samples=10`` is ``--fact-samples 10``); returns ``out``."""
    flags = [x for k, v in options.items() for x in (f"--{k.replace('_', '-')}", v)]
    subprocess.run(script_command("make_synthetic_data.py", "--out", out, *flags),
                   env=SCRIPT_ENV, check=True, capture_output=True)
    return out


@dataclass(frozen=True)
class SyntheticFiles:
    kb: Path
    index: Path
    dataset: Path
    expectations: Path


@pytest.fixture(autouse=True)
def close_idle_connections():
    """Closes the transport's pooled idle connections after each test, so
    none is left for the garbage collector to drop unclosed."""
    yield
    _http.close_idle_connections()


@pytest.fixture(scope="session")
def synthetic_files(tmp_path_factory) -> SyntheticFiles:
    """Small synthetic corpus on disk for CLI-level tests."""
    root = make_synthetic_data(tmp_path_factory.mktemp("synthetic"), docs=18,
                               fact_samples=10, noret_samples=4, miss_samples=1, seed=17)
    names = ("kb.jsonl", "index.jsonl", "dataset.jsonl", "expectations.jsonl")
    return SyntheticFiles(*(root / name for name in names))


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


def write_kb_file(path: Path, docs: list[dict], dim: int = 4, manifest: dict | None = None) -> Path:
    header = {"manifest": True, "embedding_dim": dim, "count": len(docs)}
    if manifest:
        header.update(manifest)
    lines = [json.dumps(header)] + [json.dumps(d) for d in docs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def doc_record(
    doc_id: str,
    title: str | None = None,
    sections: list[str] | None = None,
    embedding: list[float] | None = (1.0, 0.0, 0.0, 0.0),
    summary: str = "",
) -> dict:
    return {
        "id": doc_id,
        "title": title or doc_id.title(),
        "summary": summary,
        "sections": [
            {"title": f"S{i}", "text": text}
            for i, text in enumerate(sections if sections is not None else ["Body text."])
        ],
        "image_embedding": None if embedding is None else list(embedding),
    }


@pytest.fixture()
def plant_kb_path(data_dir) -> Path:
    return data_dir / "plant_kb.jsonl"


@pytest.fixture()
def plant_samples_path(data_dir) -> Path:
    return data_dir / "plant_samples.jsonl"


@pytest.fixture()
def plant_scripts_path(data_dir) -> Path:
    return data_dir / "plant_scripts.json"
