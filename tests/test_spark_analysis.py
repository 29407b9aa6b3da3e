"""Tests for the analysis module (Table 1 / Fig 8 machinery) and the
cluster model's rate table on its stats row (Fig 5)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.analysis import (
    scan_size_distribution,
    scan_size_stats,
    size_reduction_table,
    with_cumulative,
)
from repro.core.dataset import read_metadata
from repro.formats.tfrecord import RECORD_OVERHEAD
from repro.iosim import MiB, cluster_rate, speedup_table
from repro.jpeg import N_SCANS
from repro.oracle import assert_equivalent


def test_cumulative_columns_monotone(spark, celeba_dir):
    cum = with_cumulative(read_metadata(spark, celeba_dir))
    bad = cum.filter(
        " OR ".join(
            f"cum_{g}_bytes > cum_{g + 1}_bytes" for g in range(1, N_SCANS)
        )
    )
    assert bad.count() == 0


def test_cumulative_oracle(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    cum = with_cumulative(meta).select("record", "pos", "cum_3_bytes")
    scans = " + ".join(f"scan_{g}_bytes" for g in range(1, 4))
    assert_equivalent(
        cum,
        f"SELECT record, pos, header_bytes + {scans} AS cum_3_bytes FROM meta",
        meta=meta,
    )


def test_full_cumulative_accounts_whole_progressive_file(spark, celeba_dir):
    # header + all scans + EOI marker == progressive file size.
    cum = with_cumulative(read_metadata(spark, celeba_dir))
    bad = cum.filter(
        F.col(f"cum_{N_SCANS}_bytes") + 2 != F.col("progressive_bytes")
    )
    assert bad.count() == 0


def test_size_reduction_table_shape(spark, celeba_dir):
    row = size_reduction_table(scan_size_stats(read_metadata(spark, celeba_dir)))
    assert row["scan_10"] == pytest.approx(1.0)
    assert row["scan_1"] > row["scan_2"] > row["scan_5"] > 1.0
    assert row["mean_size_bytes"] > 0


def test_scan_size_stats_oracle(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    got = with_cumulative(meta).agg(
        F.avg("cum_1_bytes").alias("m1"), F.avg("baseline_bytes").alias("mb")
    )
    assert_equivalent(
        got,
        "SELECT avg(header_bytes + scan_1_bytes) AS m1, avg(baseline_bytes) AS mb FROM meta",
        meta=meta,
    )


def test_speedup_table_min_rule(spark, celeba_dir):
    stats = scan_size_stats(read_metadata(spark, celeba_dir))
    t = speedup_table(stats, "resnet_lite", bandwidth=1 * MiB)
    scans = [f"scan_{g}" for g in range(1, N_SCANS + 1)]
    assert t.index.tolist() == scans + ["tfrecord"]
    assert (t["predicted_rate"] <= cluster_rate("resnet_lite") + 1e-9).all()
    # Lower scans -> higher predicted rate while IO bound.
    assert t.loc[scans, "predicted_rate"].is_monotonic_decreasing
    assert t.loc["tfrecord", "mean_bytes"] == stats["mean_baseline"] + RECORD_OVERHEAD


def test_speedup_table_compute_bound_saturates(spark, celeba_dir):
    stats = scan_size_stats(read_metadata(spark, celeba_dir))
    t = speedup_table(stats, "resnet_lite", bandwidth=10_000 * MiB)
    assert t["predicted_rate"].to_numpy() == pytest.approx(cluster_rate("resnet_lite"))


def test_scan_size_distribution_monotone_medians(spark, celeba_dir):
    d = scan_size_distribution(read_metadata(spark, celeba_dir))
    med = d.sort_values("scan")["p50"].to_numpy()
    assert (med[1:] >= med[:-1]).all()
    assert (d["p25"] <= d["p75"]).all()


def test_scan_size_distribution_matches_per_scan_quantiles(spark, celeba_dir):
    # The one-aggregation distribution equals one percentile_approx
    # select per scan, values and dtypes.
    meta = read_metadata(spark, celeba_dir)
    cum = with_cumulative(meta)
    rows = []
    for g in range(1, N_SCANS + 1):
        q = cum.select(
            F.percentile_approx(f"cum_{g}_bytes", [0.25, 0.5, 0.75])
        ).collect()[0][0]
        rows.append({"scan": g, "p25": q[0], "p50": q[1], "p75": q[2]})
    pd.testing.assert_frame_equal(scan_size_distribution(meta), pd.DataFrame(rows))


def test_stats_single_row(spark, celeba_dir):
    s = scan_size_stats(read_metadata(spark, celeba_dir))
    assert isinstance(s, pd.Series)
    assert s["n_images"] > 0
