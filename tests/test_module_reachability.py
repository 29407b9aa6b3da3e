"""Every ``repro`` module is on a paper job's import path, and every
top-level name it defines is used outside the tests, so none is test-only."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent

# Modules no job imports, each with the reason it stays.
ALLOWED = {
    "repro.oracle": "the DuckDB reference the tests check Spark aggregations against",
}

# Imports every job without running it (in a fresh interpreter, so modules
# other tests imported do not count), then prints the modules not loaded.
_SCRIPT = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
for job in sorted(sys.argv[2:]):
    importlib.import_module(job)
loaded = set(sys.modules)
import repro
for m in pkgutil.walk_packages(repro.__path__, "repro."):
    if m.name not in loaded:
        print(m.name)
"""


def test_every_module_is_reachable_from_a_job():
    jobs = ROOT / "jobs"
    src = str(Path(repro.__path__[0]).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(jobs), *(p.stem for p in jobs.glob("*.py"))],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert set(out.split()) == set(ALLOWED)


def _modules(root: Path) -> dict[str, ast.Module]:
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in root.rglob("*.py")}


def _defined(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assigned names, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("__")}


def _loaded(tree: ast.Module) -> set[str]:
    """Names read, as a variable, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
    return out


def test_every_top_level_name_is_used_outside_the_tests():
    src = _modules(ROOT / "src")
    users = {**src, **_modules(ROOT / "jobs"), **_modules(ROOT / "perfbench")}
    loaded = set().union(*map(_loaded, users.values()))
    allowed = {f"src/{m.replace('.', '/')}.py" for m in ALLOWED}
    unused = sorted(
        f"{path}: {name}"
        for path, tree in src.items() if path not in allowed
        for name in _defined(tree) - loaded
    )
    assert unused == []
