"""Integration tests: Spark encode pipeline, PCR loaders, metadata oracle."""
import os

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import pcr
from repro.core.dataset import (
    collect_features,
    dataset_summary,
    features_to_arrays,
    load_features,
    read_metadata,
    record_paths,
)
from repro.formats import tfrecord
from repro.jpeg import N_SCANS, decode
from repro.oracle import assert_equivalent
from repro.synth_images import SPECS, n_images
from repro.train.features import extract_features


def test_record_files_exist(spark, celeba_dir):
    paths = record_paths(celeba_dir)
    expected = -(-n_images(SPECS["celeba_lite"], 0.25) // SPECS["celeba_lite"].images_per_record)
    assert len(paths) == expected
    for p in paths:
        assert os.path.getsize(p) > 0
        assert os.path.exists(p.replace(".pcr", ".tfrec"))


def test_metadata_row_count_and_split(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    n = n_images(SPECS["celeba_lite"], 0.25)
    assert meta.count() == n
    n_test = meta.filter("is_test").count()
    assert n_test == sum(1 for i in range(n) if i % 5 == 0)


def test_metadata_sizes_match_files(spark, celeba_dir):
    # Sum of per-image scan bytes equals on-disk payload extents.
    meta = read_metadata(spark, celeba_dir)
    for path in record_paths(celeba_dir):
        info = pcr.read_index(path)
        agg = (
            meta.filter(F.col("record") == path)
            .agg(
                *[F.sum(f"scan_{g}_bytes").alias(f"s{g}") for g in range(1, N_SCANS + 1)],
                F.sum("header_bytes").alias("h"),
            )
            .collect()[0]
        )
        for g in range(1, N_SCANS + 1):
            assert agg[f"s{g}"] == sum(info.scan_lens[g - 1])
        assert agg["h"] == sum(info.header_lens)


def test_metadata_oracle_scan_sums(spark, celeba_dir):
    """Spark SQL aggregation over metadata cross-checked with DuckDB."""
    meta = read_metadata(spark, celeba_dir)
    got = meta.groupBy("record").agg(
        F.count("*").alias("n"),
        F.sum("scan_1_bytes").alias("scan1_total"),
        F.avg("baseline_bytes").alias("mean_baseline"),
    )
    assert_equivalent(
        got,
        """
        SELECT record, count(*) AS n, sum(scan_1_bytes) AS scan1_total,
               avg(baseline_bytes) AS mean_baseline
        FROM meta GROUP BY record
        """,
        meta=meta,
    )


def test_metadata_oracle_label_histogram(spark, celeba_dir):
    meta = read_metadata(spark, celeba_dir)
    got = meta.groupBy("label").agg(F.count("*").alias("n"))
    assert_equivalent(
        got, "SELECT label, count(*) AS n FROM meta GROUP BY label", meta=meta
    )


@pytest.mark.parametrize("g", [1, 5, 10])
def test_load_features_shape(spark, celeba_dir, g):
    df = load_features(spark, celeba_dir, g)
    rows = df.collect()
    assert len(rows) == n_images(SPECS["celeba_lite"], 0.25)
    from repro.train.features import N_FEATURES

    assert all(len(r["features"]) == N_FEATURES for r in rows)


def test_collect_features_join_complete(spark, celeba_dir):
    pdf = collect_features(spark, celeba_dir, 5)
    assert set(["record", "pos", "label", "features", "make", "is_zero", "is_test"]) <= set(pdf.columns)
    assert pdf[["record", "pos"]].duplicated().sum() == 0


def _pcr_and_tfrecord_twins(out_dir):
    """(PCR at full fidelity, baseline TFRecord twin) items of every record."""
    for path in record_paths(out_dir):
        twin = path[: -len(".pcr")] + ".tfrec"
        yield pcr.read_pcr(path, N_SCANS), tfrecord.read_tfrecord(twin)


def test_tfrecord_and_pcr_labels_agree(celeba_dir):
    for a, b in _pcr_and_tfrecord_twins(celeba_dir):
        assert [label for label, _ in a] == [label for label, _ in b]


def test_tfrecord_and_pcr_full_fidelity_features_identical(celeba_dir):
    """Scan 10 decodes to the same pixels as the baseline twin (lossless
    transcode), so features must be bit-equal."""
    for a, b in _pcr_and_tfrecord_twins(celeba_dir):
        assert len(a) == len(b)
        for (_, ja), (_, jb) in zip(a, b):
            assert np.array_equal(
                extract_features(decode(ja)), extract_features(decode(jb))
            )


def test_lower_scan_features_differ(spark, celeba_dir):
    a = collect_features(spark, celeba_dir, 1)
    b = collect_features(spark, celeba_dir, N_SCANS)
    fa = np.stack(a["features"].to_numpy())
    fb = np.stack(b["features"].to_numpy())
    assert not np.allclose(fa, fb, atol=1e-3)


def test_features_to_arrays_split(spark, celeba_dir):
    pdf = collect_features(spark, celeba_dir, 5)
    Xtr, ytr, Xte, yte = features_to_arrays(pdf)
    assert len(Xtr) + len(Xte) == len(pdf)
    assert Xtr.shape[1] == Xte.shape[1]
    assert set(np.unique(ytr)) <= {0, 1}


def test_dataset_summary_table3_row(spark, celeba_dir):
    row = dataset_summary(spark, celeba_dir, "celeba_lite")
    assert row["classes"] == 2
    assert row["quality"] == SPECS["celeba_lite"].quality
    assert row["images"] == n_images(SPECS["celeba_lite"], 0.25)
    assert row["size_bytes"] == sum(
        os.path.getsize(p) for p in record_paths(celeba_dir)
    )


def test_hierarchical_metadata(spark, cars_dir):
    meta = read_metadata(spark, cars_dir)
    bad = meta.filter(F.col("make") != F.col("label") % SPECS["cars_lite"].n_makes)
    assert bad.count() == 0
    assert meta.filter("is_zero = 1").count() > 0
