"""The Python worker daemon: workers import the installed pyspark, at
Spark's own version, and fall back to Spark's archives otherwise."""
import os
import subprocess
import sys
import zipfile

import pandas as pd
import pytest
import repro

from repro.sparkdaemon import archive_free_path, package_version


def _worker_pyspark(it):
    import pyspark

    for _ in it:
        pass
    yield pd.DataFrame({"file": [pyspark.__file__], "version": [pyspark.__version__]})


def test_workers_import_the_installed_pyspark_at_sparks_version(spark):
    n = spark.sparkContext.defaultParallelism
    got = (spark.range(0, n, numPartitions=n)
           .mapInPandas(_worker_pyspark, "file string, version string").toPandas())
    assert len(got) == n
    assert (got.version == spark.version).all(), got
    for f in got.file:
        assert not any(part.endswith((".zip", ".jar")) for part in f.split(os.sep)), f


def _package(root, name, version, archive=False):
    """``name`` with a ``version.py`` of ``version``, in directory ``root``
    or, with ``archive``, in ``root/<name>.zip``; returns its path entry."""
    files = {f"{name}/__init__.py": "", f"{name}/version.py": f"__version__: str = '{version}'\n"}
    if archive:
        entry = str(root / f"{name}.zip")
        with zipfile.ZipFile(entry, "w") as z:
            for arc, text in files.items():
                z.writestr(arc, text)
        return entry
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return str(root)


@pytest.fixture
def spark_path(tmp_path, monkeypatch):
    """A worker path as Spark builds it: pyspark 4.1.2 and py4j 0.10.9.9 in
    archives, a jar, and then the interpreter's own directories."""
    monkeypatch.setattr(sys, "path_importer_cache", dict(sys.path_importer_cache))
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "core.jar").write_bytes(b"")
    return [
        _package(tmp_path / "lib", "pyspark", "4.1.2", archive=True),
        _package(tmp_path / "lib", "py4j", "0.10.9.9", archive=True),
        str(tmp_path / "lib" / "core.jar"),
    ]


@pytest.mark.parametrize("installed, dropped", [
    ({"pyspark": "4.1.2", "py4j": "0.10.9.9"}, True),
    ({"pyspark": "4.1.1", "py4j": "0.10.9.9"}, False),
    ({"pyspark": "4.1.2", "py4j": "0.10.9.7"}, False),
    ({"py4j": "0.10.9.9"}, False),
    ({"pyspark": "4.1.2"}, False),
])
def test_archives_are_dropped_only_at_the_same_versions(tmp_path, spark_path, installed, dropped):
    site = tmp_path / "site"
    site.mkdir()
    for name, version in installed.items():
        _package(site, name, version)
    path = spark_path + [str(site)]
    assert package_version("pyspark", path) == "4.1.2"
    assert archive_free_path(path) == ([str(site)] if dropped else path)


def test_import_leaves_the_path_alone(spark_path):
    # Only running the module as Spark's daemon edits the path.
    script = ("import sys; before = list(sys.path); import repro.sparkdaemon; "
              "print(sys.path == before, any(e.endswith('.zip') for e in sys.path))")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*spark_path, src])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["True", "True"]
