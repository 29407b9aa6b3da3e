"""Spark's Python worker daemon, importing pyspark from its installed
directory rather than from Spark's archives.

Spark starts the daemon with ``$SPARK_HOME/python/lib``'s ``pyspark.zip``
and py4j zip and the spark-core jar on ``sys.path``. PySpark's worker
calls ``importlib.invalidate_caches()`` on every task, and CPython 3.11's
``zipimporter`` then re-reads its archive's whole directory: about 270 ms
of CPU per task on a 4-vCPU host, before the task's own code runs.

``harness.job_spark`` names this module in ``spark.python.daemon.module``,
so Spark runs it as ``python -m repro.sparkdaemon``. It then drops the
archives from ``sys.path`` and ``sys.path_importer_cache`` and starts
``pyspark.daemon``, whose forked workers inherit the shorter path. It
drops them only if every package in ``PACKAGES`` keeps its version
without them; otherwise Spark's path stays as it is, so a worker never
mixes versions. Importing the module changes nothing.
"""
import os
import re
import sys
from importlib.machinery import PathFinder

ARCHIVES = (".zip", ".jar")
PACKAGES = ("pyspark", "py4j")  # the packages Spark ships in its archives

_VERSION = re.compile(rb"""^__version__(?:\s*:\s*str)?\s*=\s*["']([^"']+)["']""", re.M)


def _in_archive(entry: str) -> bool:
    return any(part.endswith(ARCHIVES) for part in entry.split(os.sep))


def package_version(package: str, path: list[str]) -> str | None:
    """``package.__version__`` as importing it from ``path`` would give,
    read from its ``version.py`` without importing it; None if absent."""
    spec = PathFinder.find_spec(package, path)
    if spec is None or spec.origin is None:
        return None
    try:
        source = spec.loader.get_data(os.path.join(os.path.dirname(spec.origin), "version.py"))
    except OSError:
        return None
    m = _VERSION.search(source)
    return m and m.group(1).decode()


def archive_free_path(path: list[str]) -> list[str]:
    """``path`` without its archive entries, if every package in
    ``PACKAGES`` imports from it at the version it has on ``path``;
    otherwise ``path`` itself."""
    kept = [e for e in path if not _in_archive(e)]
    for package in PACKAGES:
        version = package_version(package, path)
        if version is None or package_version(package, kept) != version:
            return path
    return kept


if __name__ == "__main__":
    sys.path[:] = archive_free_path(sys.path)
    for entry in [e for e in sys.path_importer_cache if _in_archive(e)]:
        del sys.path_importer_cache[entry]

    from pyspark.daemon import manager

    manager()
