"""Sanity checks that the DuckDB oracle catches real mismatches, over PCR data."""
import pytest
from pyspark.sql import functions as F

from repro.core.dataset import collect_features, read_metadata
from repro.oracle import assert_equivalent

SIZES_BY_LABEL = (
    "SELECT label, sum(progressive_bytes) AS bytes, count(*) AS n "
    "FROM meta GROUP BY label"
)


def test_oracle_accepts_matching_aggregation(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    got = meta.groupBy("label").agg(
        F.sum("progressive_bytes").alias("bytes"), F.count("*").alias("n")
    )
    assert_equivalent(got, SIZES_BY_LABEL, meta=meta)


def test_oracle_rejects_wrong_result(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    wrong = meta.groupBy("label").agg(
        (F.sum("progressive_bytes") + 1).alias("bytes"), F.count("*").alias("n")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, SIZES_BY_LABEL, meta=meta)


def test_oracle_join_path(spark, celeba_dir):
    """A Spark join of the loader's (record, pos, label) rows to the
    metadata sidecar, checked against DuckDB (``collect_features``
    itself joins in pandas)."""
    feats = spark.createDataFrame(
        collect_features(spark, celeba_dir, 1)[["record", "pos", "label"]])
    meta = read_metadata(spark, celeba_dir)
    got = (
        feats.join(meta.select("record", "pos", "is_test"), on=["record", "pos"])
        .groupBy("is_test")
        .agg(F.count("*").alias("n"), F.sum("label").alias("positives"))
    )
    assert_equivalent(
        got,
        "SELECT is_test, count(*) AS n, sum(feats.label) AS positives "
        "FROM feats JOIN meta USING (record, pos) GROUP BY is_test",
        feats=feats,
        meta=meta,
    )
