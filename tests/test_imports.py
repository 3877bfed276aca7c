"""Every ``reflectrag`` name that ``bench/*.py`` and ``scripts/*.py`` import
resolves, so a deletion that breaks the benchmark or a script fails here
instead of in a benchmark run."""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reflectrag_imports():
    """(file, module, name) per imported name; ``name`` is None for ``import m``."""
    for path in sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]):
        where = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "reflectrag":
                    yield from ((where, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                yield from (
                    (where, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "reflectrag"
                )


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        # ``from package import submodule`` imports the submodule on demand.
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_and_script_imports_resolve():
    imports = list(reflectrag_imports())
    assert {where.split("/")[0] for where, _, _ in imports} == {"bench", "scripts"}
    broken = [
        f"{where}: from {module} import {name}" if name else f"{where}: import {module}"
        for where, module, name in imports
        if not resolves(module, name)
    ]
    assert broken == []
