"""Integration tests: Spark encode pipeline, PCR loaders, metadata oracle."""
import os
import shutil

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import pcr
from repro.core.dataset import (
    collect_features,
    dataset_summary,
    features_to_arrays,
    load_features,
    map_records,
    metadata_path,
    read_metadata,
    record_paths,
    tfrecord_path,
)
from repro.formats import tfrecord
from repro.jpeg import N_SCANS, decode
from repro.oracle import assert_equivalent
from repro.synth_images import SPECS, n_images
from repro.train.features import N_FEATURES, extract_features


def test_record_files_exist(spark, celeba_dir):
    paths = record_paths(celeba_dir)
    expected = -(-n_images(SPECS["celeba_lite"], 0.25) // SPECS["celeba_lite"].images_per_record)
    assert len(paths) == expected
    for p in paths:
        assert os.path.getsize(p) > 0
        assert os.path.exists(tfrecord_path(p))


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
    """One (labels, features matrix) per record, one matrix row per image."""
    records = load_features(spark, celeba_dir, g).collect()
    assert len(records) == len(record_paths(celeba_dir))
    assert sum(len(labels) for labels, _ in records) == n_images(SPECS["celeba_lite"], 0.25)
    for labels, X in records:
        assert X.dtype == np.float64
        assert X.shape == (len(labels), N_FEATURES)


def test_tfrecord_path_swaps_only_the_suffix():
    assert tfrecord_path("/d/runs.pcr/record_0000.pcr") == "/d/runs.pcr/record_0000.tfrec"


@pytest.mark.parametrize("n_of_p", [lambda p: 1, lambda p: p, lambda p: 2 * p + 1],
                         ids=["1", "parallelism", "2*parallelism+1"])
def test_map_records_one_wave_of_contiguous_slices(spark, n_of_p):
    """min(defaultParallelism, n) non-empty partitions whose ids ascend
    without a gap, task i holding ids i*n//k up to (i+1)*n//k, each id
    yielded once."""
    p = spark.sparkContext.defaultParallelism
    n = n_of_p(p)
    k = min(p, n)
    parts = map_records(spark, n, lambda r: r).glom().collect()
    assert parts == [list(range(i * n // k, (i + 1) * n // k)) for i in range(k)]
    assert all(parts), parts


@pytest.mark.parametrize("dataset", ["celeba_dir", "cars_dir"])
def test_load_features_one_task_wave(spark, request, dataset):
    """min(defaultParallelism, records) tasks, each holding a contiguous
    slice of whole records in record order."""
    out = request.getfixturevalue(dataset)
    parts = load_features(spark, out, 1).glom().collect()
    paths = record_paths(out)
    k = min(spark.sparkContext.defaultParallelism, len(paths))
    assert len(parts) == k
    assert all(parts), parts
    # Read partition after partition, the elements are every record's
    # labels in record order.
    assert [labels for part in parts for labels, _ in part] == [
        pcr.read_index(p).labels for p in paths]
    assert [len(part) for part in parts] == [
        (i + 1) * len(paths) // k - i * len(paths) // k for i in range(k)]


@pytest.mark.parametrize("dataset,name,sf", [("celeba_dir", "celeba_lite", 0.25),
                                             ("cars_dir", "cars_lite", 1.0)])
def test_record_layout(request, dataset, name, sf):
    """Record r of k is ``record_{r:04d}.pcr`` and holds images
    ``r*n//k`` up to ``(r+1)*n//k`` in pos order."""
    out = request.getfixturevalue(dataset)
    n = n_images(SPECS[name], sf)
    paths = record_paths(out)
    k = len(paths)
    assert [os.path.basename(p) for p in paths] == [
        f"record_{r:04d}.pcr" for r in range(k)
    ]
    meta = pd.read_parquet(metadata_path(out)).sort_values(["record", "pos"])
    for r, path in enumerate(paths):
        rows = meta[meta["record"] == path]
        assert rows["pos"].tolist() == list(range(len(rows)))
        assert rows["idx"].tolist() == list(range(r * n // k, (r + 1) * n // k))
    assert len(meta) == n


@pytest.mark.parametrize("g", [1, 5, 10])
def test_collect_features_frame(spark, celeba_dir, g):
    """Column order and dtypes are pinned, and every image's features are
    bit-equal to a serial read_pcr -> decode -> extract_features."""
    pdf = collect_features(spark, celeba_dir, g)
    assert list(pdf.dtypes.astype(str).items()) == [
        ("record", "object"), ("pos", "int32"), ("label", "int32"),
        ("features", "object"), ("idx", "int64"), ("make", "int32"),
        ("is_zero", "int32"), ("is_test", "bool"),
    ]
    want = [(path, pos, label, extract_features(decode(jpeg)))
            for path in record_paths(celeba_dir)
            for pos, (label, jpeg) in enumerate(pcr.read_pcr(path, g))]
    assert list(zip(pdf["record"], pdf["pos"], pdf["label"])) == [w[:3] for w in want]
    for got, (*_, feats) in zip(pdf["features"], want):
        assert got.dtype == feats.dtype and got.tobytes() == feats.tobytes()


def test_collect_features_join_complete(spark, celeba_dir):
    pdf = collect_features(spark, celeba_dir, 5)
    assert list(pdf.columns) == [
        "record", "pos", "label", "features", "idx", "make", "is_zero", "is_test"
    ]
    assert len(pdf) == read_metadata(spark, celeba_dir).count()
    keys = list(zip(pdf["record"], pdf["pos"]))
    assert keys == sorted(set(keys))
    for path, rows in pdf.groupby("record"):
        assert rows["label"].tolist() == pcr.read_index(path).labels


def test_collect_features_rejects_metadata_mismatch(spark, celeba_dir, tmp_path):
    """A metadata row lost or duplicated must fail the load, not silently
    drop or repeat an image."""
    out = str(tmp_path / "celeba_lite")
    shutil.copytree(celeba_dir, out)
    meta_path = os.path.join(out, "metadata.parquet")
    meta = pd.read_parquet(meta_path)
    shutil.rmtree(meta_path)  # Spark wrote a directory; pandas writes one file
    meta.to_parquet(meta_path, index=False)
    assert len(collect_features(spark, out, 1)) == len(meta)
    for bad in (meta.drop(index=3), pd.concat([meta, meta.iloc[[3]]])):
        bad.to_parquet(meta_path, index=False)
        with pytest.raises(ValueError):
            collect_features(spark, out, 1)


def test_collect_features_loads_a_moved_dataset(spark, celeba_dir, tmp_path):
    """A copy of a dataset in another directory, its sidecar untouched (it
    keeps the paths the build wrote), loads the same labels and features;
    ``record`` names the copy's files."""
    out = str(tmp_path / "moved" / "celeba_lite")
    shutil.copytree(celeba_dir, out)
    want = collect_features(spark, celeba_dir, 5)
    got = collect_features(spark, out, 5)
    paths = dict(zip(record_paths(celeba_dir), record_paths(out)))
    assert got["record"].tolist() == want["record"].map(paths).tolist()
    pd.testing.assert_frame_equal(got.drop(columns="record"),
                                  want.drop(columns="record"))


def _pcr_and_tfrecord_twins(out_dir):
    """(PCR at full fidelity, baseline TFRecord twin) items of every record."""
    for path in record_paths(out_dir):
        yield pcr.read_pcr(path, N_SCANS), tfrecord.read_tfrecord(tfrecord_path(path))


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
