"""Aggregations of the PCR metadata sidecar: Table 1 ratios, Fig 8 sizes.

``scan_size_stats`` is the one Spark aggregation of the sidecar's
per-scan means (oracle-checked against DuckDB in tests);
``size_reduction_table`` and the cluster model in ``repro.iosim`` are
arithmetic on its row, so a caller aggregates a dataset once and passes
the row down. ``cum_g_bytes`` counts header + scans 1..g per image — the
exact bytes the PCR loader reads for that image at fidelity g.
"""
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.jpeg import N_SCANS

# The scan groups the paper's tables and training figures report.
TABLE_SCANS = (1, 2, 5, 10)


def with_cumulative(meta: DataFrame) -> DataFrame:
    """Add ``cum_g_bytes`` columns: bytes read per image at fidelity g."""
    out = meta
    expr = F.col("header_bytes")
    for g in range(1, N_SCANS + 1):
        expr = expr + F.col(f"scan_{g}_bytes")
        out = out.withColumn(f"cum_{g}_bytes", expr)
    return out


def scan_size_stats(meta: DataFrame) -> pd.Series:
    """Mean per-image bytes at each fidelity + the baseline mean and the
    image count, as one row (Fig 8)."""
    cum = with_cumulative(meta)
    aggs = [F.avg(f"cum_{g}_bytes").alias(f"mean_cum_{g}") for g in range(1, N_SCANS + 1)]
    aggs += [
        F.avg("baseline_bytes").alias("mean_baseline"),
        F.count("*").alias("n_images"),
    ]
    return cum.agg(*aggs).toPandas().iloc[0]


def size_reduction_table(stats: pd.Series) -> dict:
    """One Table-1 row: reduction factor per ``TABLE_SCANS`` scan + mean
    image size.

    Reduction factor for scan g = mean full-fidelity bytes / mean bytes
    read at fidelity g (so scan 10 is 1x by construction).
    """
    full = stats[f"mean_cum_{N_SCANS}"]
    row = {
        f"scan_{g}": float(full / stats[f"mean_cum_{g}"]) for g in TABLE_SCANS
    }
    row["mean_size_bytes"] = float(full)
    return row


def scan_size_distribution(meta: DataFrame) -> pd.DataFrame:
    """Per-scan cumulative size quartiles (the Fig 8 interquartile view)."""
    q = with_cumulative(meta).agg(
        *[
            F.percentile_approx(f"cum_{g}_bytes", [0.25, 0.5, 0.75]).alias(f"q{g}")
            for g in range(1, N_SCANS + 1)
        ]
    ).collect()[0]
    return pd.DataFrame(
        [
            {"scan": g, "p25": q[f"q{g}"][0], "p50": q[f"q{g}"][1],
             "p75": q[f"q{g}"][2]}
            for g in range(1, N_SCANS + 1)
        ]
    )
