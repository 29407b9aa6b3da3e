"""Shared harness for jobs/: the per-process dataset builds, markdown
tables and the job SparkSession.

A dataset is built on its first use in a process, into a temporary
directory removed at exit, so every job reads what this code writes.
Directories left by killed processes are removed by the next process
that builds.
The paper's cluster model lives in ``repro.iosim``.
"""
import functools
import glob
import os
import shutil
import tempfile

import pandas as pd
from pyspark.sql import SparkSession

from repro import sparkdaemon
from repro.core.dataset import build_pcr_dataset

FLOAT_FMT = "{:.3g}"  # float cells of fmt_table's markdown tables

_BUILT: dict[tuple[str, float], str] = {}  # (name, sf) -> finished build


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's process
        return True
    return True


def _remove_dead_builds() -> None:
    """Remove the build directories of processes that are gone: a killed
    job never reaches the exit that would have removed its own."""
    for d in glob.glob(os.path.join(tempfile.gettempdir(), "repro-data-*-*")):
        pid = os.path.basename(d).split("-")[2]
        if pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(d, ignore_errors=True)


@functools.cache
def _scratch() -> tempfile.TemporaryDirectory:
    """The directory of this process's builds, ``repro-data-<pid>-*``:
    made on first use, removed at exit. The first use also removes the
    directories of dead processes."""
    _remove_dead_builds()
    return tempfile.TemporaryDirectory(prefix=f"repro-data-{os.getpid()}-")


def get_or_build(spark: SparkSession, name: str, sf: float = 1.0) -> str:
    """The directory of dataset ``name`` at ``sf``, built on this process's
    first call into a fresh directory. Only a build that returned is
    recorded, so a failed one is never served."""
    if (name, sf) not in _BUILT:
        out = tempfile.mkdtemp(prefix=f"{name}_sf{sf:g}_", dir=_scratch().name)
        build_pcr_dataset(spark, name, out, sf=sf)
        _BUILT[name, sf] = out
    return _BUILT[name, sf]


def fmt_table(pdf: pd.DataFrame) -> str:
    """Render a small DataFrame as a GitHub-markdown table."""
    cols = list(pdf.columns)
    lines = ["| " + " | ".join(str(c) for c in cols) + " |",
             "|" + "|".join(["---"] * len(cols)) + "|"]
    for _, r in pdf.iterrows():
        cells = [
            FLOAT_FMT.format(v) if isinstance(v, float) else str(v) for v in r
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def job_spark(app: str) -> SparkSession:
    """SparkSession for job runs; the pytest ``spark`` fixture uses it too.

    Master and driver memory are fixed at JVM launch (``spark-submit`` or
    ``PYSPARK_SUBMIT_ARGS``); the configs set here are honoured after it.
    Console progress bars are off, so a job's output is its report.
    Python workers start from ``repro.sparkdaemon``, which imports the
    installed pyspark instead of Spark's archives.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.python.daemon.module", sparkdaemon.__name__)
        .getOrCreate()
    )
