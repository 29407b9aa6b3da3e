"""Every ``repro`` module is on a paper job's import path, so none is test-only."""
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
