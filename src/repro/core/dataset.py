"""Spark pipelines: dataset -> PCR directory, PCR directory -> features.

Encoding (paper §5 "Encoding"): a Spark job partitions the image id
space into records (one partition per record), and each executor task
generates its partition's images, encodes them as baseline JPEG,
losslessly transcodes to progressive, and writes one ``.pcr`` file (and
a ``.tfrec`` baseline-format twin for comparisons). Per-image metadata
— labels, task-label remappings, per-scan byte sizes, timings — comes
back as a DataFrame and is persisted to a parquet sidecar, playing the
paper's SQLite/RocksDB metadata role.

Decoding (paper §5 "Decoding"/"Loader"): ``load_features`` maps over
record files, performs the single prefix read per record at the
requested scan group, reassembles + decodes each image in the executor,
and extracts model features — the per-partition variable-fidelity read
path this reproduction is about.
"""
import os
import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import synth_images
from repro.core import pcr
from repro.formats import tfrecord
from repro.jpeg import (
    N_SCANS,
    baseline_to_progressive,
    decode,
    encode_baseline,
)
from repro.train.features import extract_features

_META_SCHEMA = (
    "record string, pos int, idx long, label int, make int, is_zero int, "
    "is_test boolean, baseline_bytes int, progressive_bytes int, "
    "header_bytes int, "
    + ", ".join(f"scan_{g}_bytes int" for g in range(1, N_SCANS + 1))
    + ", encode_s double, transcode_s double, write_s double"
)

_FEAT_SCHEMA = (
    "record string, pos int, label int, features array<double>"
)


def record_paths(out_dir: str) -> list[str]:
    return sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".pcr")
    )


def build_pcr_dataset(spark: SparkSession, name: str, out_dir: str,
                      sf: float = 1.0) -> DataFrame:
    """Encode a synthetic dataset into PCR + TFRecord files under ``out_dir``.

    One record per Spark partition. Returns (and writes to
    ``out_dir/metadata.parquet``) the per-image metadata DataFrame.
    """
    spec = synth_images.SPECS[name]
    n = synth_images.n_images(spec, sf)
    n_records = -(-n // spec.images_per_record)
    os.makedirs(out_dir, exist_ok=True)

    ids = spark.range(0, n, numPartitions=n_records)

    def encode_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idxs = [int(i) for b in batches for i in b["id"]]
        if not idxs:
            return
        pid = TaskContext.get().partitionId()
        t0 = time.perf_counter()
        images, labels = [], []
        for i in idxs:
            img, lab = synth_images.generate_image(spec, i)
            images.append(img)
            labels.append(lab)
        baselines = [encode_baseline(img, spec.quality) for img in images]
        t1 = time.perf_counter()
        progressives = [baseline_to_progressive(b) for b in baselines]
        t2 = time.perf_counter()
        rec_path = os.path.join(out_dir, f"record_{pid:04d}.pcr")
        info = pcr.write_pcr(
            rec_path, list(zip(progressives, (l["label"] for l in labels)))
        )
        tfrecord.write_tfrecord(
            os.path.join(out_dir, f"record_{pid:04d}.tfrec"),
            list(zip(baselines, (l["label"] for l in labels))),
        )
        t3 = time.perf_counter()
        rows = []
        for pos, (i, lab) in enumerate(zip(idxs, labels)):
            row = {
                "record": rec_path,
                "pos": pos,
                "idx": i,
                "label": lab["label"],
                "make": lab["make"],
                "is_zero": lab["is_zero"],
                "is_test": synth_images.is_test(i),
                "baseline_bytes": len(baselines[pos]),
                "progressive_bytes": len(progressives[pos]),
                "header_bytes": info.header_lens[pos],
            }
            for g in range(1, N_SCANS + 1):
                row[f"scan_{g}_bytes"] = info.scan_lens[g - 1][pos]
            row["encode_s"] = t1 - t0
            row["transcode_s"] = t2 - t1
            row["write_s"] = t3 - t2
            rows.append(row)
        yield pd.DataFrame(rows)

    meta = ids.mapInPandas(encode_partition, schema=_META_SCHEMA)
    meta_path = os.path.join(out_dir, "metadata.parquet")
    meta.write.mode("overwrite").parquet(meta_path)
    return spark.read.parquet(meta_path)


def read_metadata(spark: SparkSession, out_dir: str) -> DataFrame:
    return spark.read.parquet(os.path.join(out_dir, "metadata.parquet"))


def load_features(spark: SparkSession, out_dir: str, scan_group: int) -> DataFrame:
    """Decode a dataset's PCRs at a scan group and extract features, in Spark.

    Each record is one prefix read at ``scan_group``. Join with
    ``read_metadata`` on (record, pos) for task labels/splits.
    """
    paths = record_paths(out_dir)
    pdf = pd.DataFrame({"path": paths})
    df = spark.createDataFrame(pdf).repartition(len(paths))

    def decode_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for b in batches:
            for path in b["path"]:
                rows = []
                for pos, (label, jpeg) in enumerate(pcr.read_pcr(path, scan_group)):
                    img = decode(jpeg)
                    rows.append(
                        {
                            "record": path,
                            "pos": pos,
                            "label": int(label),
                            "features": extract_features(img).tolist(),
                        }
                    )
                yield pd.DataFrame(rows)

    return df.mapInPandas(decode_partition, schema=_FEAT_SCHEMA)


def collect_features(spark: SparkSession, out_dir: str,
                     scan_group: int) -> pd.DataFrame:
    """Features joined with metadata, collected to pandas (small datasets).

    The join runs in Spark (on (record, pos)); the result carries all
    task labels (label/make/is_zero) and the train/test split.
    """
    feats = load_features(spark, out_dir, scan_group)
    meta = read_metadata(spark, out_dir).select(
        "record", "pos", "idx", "make", "is_zero", "is_test"
    )
    joined = feats.join(meta, on=["record", "pos"], how="inner").orderBy(
        "record", "pos"
    )
    pdf = joined.toPandas()
    assert len(pdf) == meta.count(), "feature/metadata join lost rows"
    return pdf


def features_to_arrays(pdf: pd.DataFrame, label_col: str = "label"):
    """Split a collected feature frame into train/test numpy arrays."""
    X = np.stack(pdf["features"].to_numpy())
    y = pdf[label_col].to_numpy().astype(np.int64)
    tr = ~pdf["is_test"].to_numpy()
    return X[tr], y[tr], X[~tr], y[~tr]


def dataset_summary(spark: SparkSession, out_dir: str, name: str) -> dict:
    """One Table-3 row: records, images, size, estimated quality, classes."""
    from repro.jpeg.decoder import decode_to_coeffs
    from repro.jpeg.quant import estimate_quality

    meta = read_metadata(spark, out_dir)
    agg = meta.agg(
        F.countDistinct("record").alias("records"),
        F.count("*").alias("images"),
        F.sum("progressive_bytes").alias("payload_bytes"),
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
