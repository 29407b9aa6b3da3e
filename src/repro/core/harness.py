"""Shared harness for jobs/: the dataset cache, markdown tables and the
job SparkSession.

Datasets are built once under ``$REPRO_DATA`` (default ``.data/`` in the
repo) and reused across jobs. The paper's cluster model lives in
``repro.iosim``.
"""
import os

import pandas as pd
from pyspark.sql import SparkSession

from repro import sparkdaemon
from repro.core.dataset import build_pcr_dataset, metadata_path

FLOAT_FMT = "{:.3g}"  # float cells of fmt_table's markdown tables


def data_root() -> str:
    """The dataset cache's directory, as a normalized absolute path."""
    return os.path.abspath(os.environ.get(
        "REPRO_DATA", os.path.join(os.path.dirname(__file__), "../../../.data")
    ))


def dataset_dir(name: str, sf: float = 1.0) -> str:
    return os.path.join(data_root(), f"{name}_sf{sf:g}")


def get_or_build(spark: SparkSession, name: str, sf: float = 1.0) -> str:
    """Build (or reuse) a PCR dataset; returns its directory."""
    out = dataset_dir(name, sf)
    if not os.path.exists(metadata_path(out)):
        build_pcr_dataset(spark, name, out, sf=sf)
    return out


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
