"""Every ``reflectrag`` name that ``bench/*.py`` and ``scripts/*.py`` import
resolves, and so does every attribute that ``bench/tracing.py`` patches, so
a deletion or rename that breaks the benchmark or a script fails here
instead of in a benchmark run. Every ``reflectrag`` name that README
names resolves too."""
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


def traced_seams():
    """(dotted owner, attribute) per ``tracer.patch(owner, "attribute", ...)``
    in ``bench/tracing.py`` whose owner is a ``reflectrag`` module or class."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    local = {}  # local name -> dotted reflectrag path
    loops = {}  # loop variable -> the owners of ``for name in (owner, ...)``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module.split(".")[0] == "reflectrag"
        ):
            local.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            loops[ast.unparse(node.target)] = node.iter.elts
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "tracer.patch":
            owner, attr = node.args[:2]
            for expr in loops.get(ast.unparse(owner), [owner]):
                head, _, rest = ast.unparse(expr).partition(".")
                if head in local:
                    yield ".".join(filter(None, (local[head], rest))), attr.value


def resolve(dotted: str):
    """The object at ``dotted``: its longest importable prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part, None)
        return obj
    return None


def test_traced_seams_resolve():
    seams = list(traced_seams())
    assert ("reflectrag._http", "post_json") in seams
    assert ("reflectrag.backend.RemoteBackend", "constrained_generate") in seams
    broken = [f"{owner}.{attr}" for owner, attr in seams if not hasattr(resolve(owner), attr)]
    assert broken == []


def readme_module_names():
    """Each backticked ``module.name`` in README whose module is a
    ``reflectrag`` module, as a dotted path from ``reflectrag``. File names
    (``kb.jsonl``) and the config fields of ``backend`` (``backend.kind``)
    are left out."""
    import dataclasses
    import pkgutil
    import re

    import reflectrag
    from reflectrag.cli import BackendSpec

    modules = {m.name for m in pkgutil.iter_modules(reflectrag.__path__)}
    fields = {f.name for f in dataclasses.fields(BackendSpec)}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for token in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text))):
        module, _, name = token.removeprefix("reflectrag.").partition(".")
        is_file = Path(token).suffix in {".py", ".json", ".jsonl", ".npy", ".vec", ".idx"}
        is_field = module == "backend" and name in fields
        if module in modules and not (is_file or is_field):
            yield f"reflectrag.{module}.{name}".rstrip(".")


def test_readme_module_names_resolve():
    names = list(readme_module_names())
    assert "reflectrag.engine.trace_line" in names
    assert [name for name in names if resolve(name) is None] == []
