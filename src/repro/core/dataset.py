"""Spark pipelines: dataset -> PCR directory, PCR directory -> features.

Every record-parallel stage is an ``fn(r)`` run by ``map_records``: an
RDD over one wave of ``min(defaultParallelism, records)`` Spark tasks,
each calling ``fn`` on a contiguous, ascending slice of record indices
and sending its plain Python results back in record order. Record r of
k holds images r*n//k to (r+1)*n//k.

Encoding (paper §5 "Encoding"): record r's task generates its images,
quantizes each once with ``forward`` and entropy-codes those
coefficients twice: as progressive JPEG into one ``.pcr`` file and as
baseline JPEG into a ``.tfrec`` twin for comparisons. The progressive
bytes are exactly what the paper's lossless baseline -> progressive
transcode of the twin gives (Fig 22 re-checks this). Per-image metadata
— labels, task-label remappings, per-scan byte sizes — comes back as
one pandas frame per record, and the driver persists them to a parquet
sidecar through Spark, playing the paper's SQLite/RocksDB metadata role.

Decoding (paper §5 "Decoding"/"Loader"): in ``load_features`` the task
holding record r does r's single prefix read at the requested scan
group, decodes each image and extracts model features, returning r's
labels and feature matrix. ``collect_features`` turns those into one row
per image and attaches the sidecar's task labels and split on the
driver — the variable-fidelity read path this reproduction is about.
"""
import os
from typing import Callable

import numpy as np
import pandas as pd
from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import synth_images
from repro.core import pcr
from repro.formats import tfrecord
from repro.jpeg import N_SCANS, decode, decode_to_coeffs
from repro.jpeg.codec import estimate_quality, forward
from repro.jpeg.encoder import encode_baseline_from_coeffs, encode_progressive_from_coeffs
from repro.train.features import extract_features

_META_SCHEMA = (
    "record string, pos int, idx long, label int, make int, is_zero int, "
    "is_test boolean, baseline_bytes int, progressive_bytes int, "
    "header_bytes int, "
    + ", ".join(f"scan_{g}_bytes int" for g in range(1, N_SCANS + 1))
)


def record_paths(out_dir: str) -> list[str]:
    return sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".pcr")
    )


def tfrecord_path(pcr_path: str) -> str:
    """The baseline TFRecord twin written beside a ``.pcr`` record file."""
    return os.path.splitext(pcr_path)[0] + ".tfrec"


def metadata_path(out_dir: str) -> str:
    """The parquet sidecar of the dataset under ``out_dir``."""
    return os.path.join(out_dir, "metadata.parquet")


def map_records(spark: SparkSession, n_records: int,
                fn: Callable[[int], object]) -> RDD:
    """``fn(r)`` for every record index ``r`` in ``range(n_records)``, as
    an RDD of its results in record order. ``k = min(defaultParallelism,
    n_records)`` Spark tasks run as one wave; task i calls ``fn`` on the
    contiguous slice ``i*n_records//k`` up to ``(i+1)*n_records//k`` in
    ascending order (how ``parallelize`` slices a ``range``), with no
    shuffle. Which task handles which records is decided here alone."""
    sc = spark.sparkContext
    k = min(sc.defaultParallelism, n_records)
    return sc.parallelize(range(n_records), k).map(fn)


def build_pcr_dataset(spark: SparkSession, name: str, out_dir: str,
                      sf: float = 1.0) -> None:
    """Encode a synthetic dataset into PCR + TFRecord files under ``out_dir``.

    Record ``r`` of ``k`` holds images ``r*n//k`` up to ``(r+1)*n//k`` and
    is written as ``record_{r:04d}.pcr`` (+ ``.tfrec``) by the
    ``map_records`` task whose slice holds ``r``.
    Writes the per-image metadata to ``metadata_path(out_dir)``.
    """
    spec = synth_images.SPECS[name]
    n = synth_images.n_images(spec, sf)
    n_records = -(-n // spec.images_per_record)
    os.makedirs(out_dir, exist_ok=True)

    def encode_record(r: int) -> pd.DataFrame:
        idxs = range(r * n // n_records, (r + 1) * n // n_records)
        labs, baselines, progressives = [], [], []
        for i in idxs:
            img, lab = synth_images.generate_image(spec, i)
            ci = forward(img, spec.quality)
            labs.append(lab)
            baselines.append(encode_baseline_from_coeffs(ci))
            progressives.append(encode_progressive_from_coeffs(ci))
        rec_path = os.path.join(out_dir, f"record_{r:04d}.pcr")
        labels = [lab["label"] for lab in labs]
        info = pcr.write_pcr(rec_path, list(zip(progressives, labels)))
        tfrecord.write_tfrecord(tfrecord_path(rec_path),
                                list(zip(baselines, labels)))
        return pd.DataFrame({
            "record": rec_path,
            "pos": range(len(idxs)),
            "idx": idxs,
            **{k: [lab[k] for lab in labs] for k in ("label", "make", "is_zero")},
            "is_test": [synth_images.is_test(i) for i in idxs],
            "baseline_bytes": [len(b) for b in baselines],
            "progressive_bytes": [len(p) for p in progressives],
            "header_bytes": info.header_lens,
            **{f"scan_{g}_bytes": lens for g, lens in enumerate(info.scan_lens, 1)},
        })

    frames = map_records(spark, n_records, encode_record).collect()
    meta = spark.createDataFrame(pd.concat(frames, ignore_index=True), _META_SCHEMA)
    meta.write.mode("overwrite").parquet(metadata_path(out_dir))


def read_metadata(spark: SparkSession, out_dir: str) -> DataFrame:
    return spark.read.parquet(metadata_path(out_dir))


def load_features(spark: SparkSession, out_dir: str, scan_group: int) -> RDD:
    """Decode a dataset's PCRs at a scan group and extract features, in Spark.

    Each ``map_records`` task decodes a contiguous slice of record files,
    one prefix read at ``scan_group`` per record. Element r is record r's
    ``(labels, X)``: its images' labels in pos order and the
    (images, ``N_FEATURES``) float64 matrix of their features.
    """
    paths = record_paths(out_dir)

    def decode_record(r: int) -> tuple[list[int], np.ndarray]:
        items = pcr.read_pcr(paths[r], scan_group)
        return ([label for label, _ in items],
                np.stack([extract_features(decode(j)) for _, j in items]))

    return map_records(spark, len(paths), decode_record)


def collect_features(spark: SparkSession, out_dir: str,
                     scan_group: int) -> pd.DataFrame:
    """Features joined with metadata, collected to pandas (small datasets).

    The per-record matrices of ``load_features`` become one row per
    image: ``record`` (the ``record_paths`` string), ``pos`` and
    ``label`` (int32) and ``features`` (a row of the record's matrix).
    The metadata sidecar is joined on the driver on the record's file
    name and pos, so a moved or copied dataset directory still loads.
    The result carries all task labels (label/make/is_zero) and the
    train/test split, one row per image in (record, pos) order.
    """
    paths = record_paths(out_dir)
    records = load_features(spark, out_dir, scan_group).collect()
    labels = [labs for labs, _ in records]
    feats = pd.DataFrame({
        "record": [p for p, labs in zip(paths, labels) for _ in labs],
        "pos": np.array([pos for labs in labels for pos in range(len(labs))], np.int32),
        "label": np.array([lab for labs in labels for lab in labs], np.int32),
        "features": list(np.concatenate([X for _, X in records])),
    })
    meta = pd.read_parquet(
        metadata_path(out_dir),
        columns=["record", "pos", "idx", "make", "is_zero", "is_test"],
    )
    # The sidecar keeps the paths the build wrote: key its rows by file
    # name to this directory's record_paths strings.
    meta["record"] = [os.path.join(out_dir, os.path.basename(p)) for p in meta["record"]]
    # An inner merge keeps the left frame's (record, pos) order.
    pdf = feats.merge(meta, on=["record", "pos"], validate="one_to_one")
    if not len(pdf) == len(feats) == len(meta):
        raise ValueError(f"{out_dir}: images and metadata rows do not match")
    return pdf


def features_to_arrays(pdf: pd.DataFrame, label_col: str = "label"):
    """Split a collected feature frame into train/test numpy arrays."""
    X = np.stack(pdf["features"].to_numpy())
    y = pdf[label_col].to_numpy().astype(np.int64)
    tr = ~pdf["is_test"].to_numpy()
    return X[tr], y[tr], X[~tr], y[~tr]


def dataset_summary(spark: SparkSession, out_dir: str, name: str) -> dict:
    """One Table-3 row: records, images, size, estimated quality, classes."""
    meta = read_metadata(spark, out_dir)
    agg = meta.agg(
        F.countDistinct("record").alias("records"),
        F.count("*").alias("images"),
        F.countDistinct("label").alias("classes"),
    ).collect()[0]
    total_size = sum(
        os.path.getsize(p) for p in record_paths(out_dir)
    )
    # Estimate JPEG quality from the first image's quant table, as
    # `identify -format '%Q'` does in the paper.
    label, jpeg = pcr.read_pcr(record_paths(out_dir)[0], 1)[0]
    q = estimate_quality(decode_to_coeffs(jpeg).qtables[0])
    return {
        "dataset": name,
        "records": agg["records"],
        "images": agg["images"],
        "size_bytes": int(total_size),
        "quality": q,
        "classes": agg["classes"],
    }
