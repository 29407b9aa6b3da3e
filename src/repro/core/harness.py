"""Shared harness for jobs/: dataset cache + cluster config.

Datasets are built once under ``$REPRO_DATA`` (default ``.data/`` in the
repo) and reused across jobs. Cluster constants mirror the paper's §6.1
setup (10 training nodes; per-node model rates from §A.5), with the
storage bandwidth chosen so the *full-fidelity* dataset is I/O bound at
half the compute rate — the same regime as the paper's Figure 5 cluster
(which pulls 450 MB/s against ~400 MiB/s of storage). Our synthetic
images are ~20x smaller than ImageNet's, so expressing bandwidth
through this regime (rather than copying 400 MiB/s verbatim) preserves
which configurations are I/O bound — the property every downstream
result depends on. See DESIGN.md "Simulated time vs wall-clock".
"""
import os

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.dataset import build_pcr_dataset, metadata_path
from repro.iosim.pipeline import MODEL_RATES

N_NODES = 10  # paper: 10 training workers (20 in the "heavy" runs)
FLOAT_FMT = "{:.3g}"  # float cells of fmt_table's markdown tables


def data_root() -> str:
    return os.environ.get(
        "REPRO_DATA", os.path.join(os.path.dirname(__file__), "../../../.data")
    )


def dataset_dir(name: str, sf: float = 1.0) -> str:
    return os.path.join(data_root(), f"{name}_sf{sf:g}")


def get_or_build(spark: SparkSession, name: str, sf: float = 1.0) -> str:
    """Build (or reuse) a PCR dataset; returns its directory."""
    out = dataset_dir(name, sf)
    if not os.path.exists(metadata_path(out)):
        build_pcr_dataset(spark, name, out, sf=sf)
    return out


def cluster_rate(model: str) -> float:
    """Aggregate compute rate (images/s) of the ``N_NODES`` training nodes."""
    return MODEL_RATES[model] * N_NODES


def reference_bandwidth(stats: pd.Series) -> float:
    """Cluster storage bandwidth (bytes/s) for the Figure-5 regime.

    Chosen so full-fidelity (scan 10) data throughput is half the
    ``resnet_lite`` cluster compute rate — scan 10 I/O bound by 2x, scan
    5 (~half the bytes) right at the compute limit, matching the paper's
    cluster.
    ``stats`` is the dataset's ``analysis.scan_size_stats`` row.
    """
    return 0.5 * cluster_rate("resnet_lite") * float(stats["mean_cum_10"])


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
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
