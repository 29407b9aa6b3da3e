"""Correctness checks on the datasets the benchmark builds and the rows it loads.

Each check names the records it finds wrong. A run's ``failed`` count is
the number of distinct records that any check rejects, out of every
record the run built (``attempted``).

The checks compare the program's outputs with sources it did not
produce in the same step:

* the parquet metadata the build wrote from in-memory values,
* the TFRecord baseline twin of each PCR record, whose CRCs are
  verified here independently of ``formats.tfrecord``,
* a serial replay of the public functions on sampled images, and
* the images regenerated from the seed.
"""
import os
import struct
import zlib

import numpy as np
import pandas as pd

from repro import synth_images
from repro.core import pcr
from repro.formats import tfrecord
from repro.jpeg import (
    baseline_to_progressive,
    decode_to_coeffs,
    encode_baseline,
    markers,
    transcode,
    truncate_to_scans,
)
from repro.jpeg.codec import inverse
from repro.train.features import extract_features


def _masked_crc(data: bytes) -> int:
    crc = zlib.crc32(data)
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF


def read_tfrecord_verified(path: str) -> list[tuple[int, bytes]] | None:
    """(label, jpeg) pairs of a TFRecord file, or None if any CRC or length is wrong.

    Framing per record: ``u64 len | u32 crc(len) | payload | u32 crc(payload)``
    with payload ``i32 label | u32 jpeg_len | jpeg``.
    """
    with open(path, "rb") as f:
        data = f.read()
    out, i = [], 0
    while i < len(data):
        if i + 12 > len(data):
            return None
        hdr = data[i : i + 8]
        (length,) = struct.unpack("<Q", hdr)
        end = i + 12 + length
        if end + 4 > len(data) or length < 8:
            return None
        payload = data[i + 12 : end]
        if (struct.unpack("<I", data[i + 8 : i + 12])[0] != _masked_crc(hdr)
                or struct.unpack("<I", data[end : end + 4])[0] != _masked_crc(payload)):
            return None
        label, n = struct.unpack("<iI", payload[:8])
        if 8 + n != length:
            return None
        out.append((label, payload[8:]))
        i = end + 4
    return out


def index_bytes(n_images: int, n_groups: int) -> int:
    """Size of a PCR's fixed index: magic, counts, group_end, label and length tables."""
    return 4 + 5 + 8 * n_groups + 8 * n_images + 4 * n_groups * n_images


def read_meta(ds: str) -> pd.DataFrame:
    return pd.read_parquet(os.path.join(ds, "metadata.parquet")).sort_values(
        ["record", "pos"], ignore_index=True)


def check_records(records: list[str], meta: pd.DataFrame, scan: int,
                  tracer) -> dict:
    """Whole-dataset checks of every record at scan group ``scan``.

    * PCR index labels equal the metadata labels and the TFRecord labels.
    * TFRecord CRCs verify.
    * Metadata ``scan_g_bytes`` sum to the ``group_end`` deltas, and
      ``header_bytes`` plus the index account for the first group's start.
    * ``read_pcr(p, scan)`` images equal ``truncate_to_scans`` of the
      full image, and together with the index they are exactly the
      ``group_end[scan - 1]`` prefix bytes the read covers.

    Returns the failed records and the byte counts the metrics need.
    """
    failed: set[str] = set()
    out = {"images": 0, "prefix_bytes": 0, "reassembled_bytes": 0,
           "pcr_bytes": 0, "baseline_bytes": 0, "items": {}, "full": {},
           "baselines": {}, "failed": failed}
    by_rec = dict(tuple(meta.groupby("record")))
    for rec in records:
        try:
            info = pcr.read_index(rec)
            size = os.path.getsize(rec)
            # A damaged index can ask for a read far beyond the file.
            if info.group_end[-1] != size:
                failed.add(rec)
                continue
            with tracer.span("core.pcr.read_pcr", rec):
                items = pcr.read_pcr(rec, scan)
            full = pcr.read_pcr(rec, info.n_scan_groups)
            tf = read_tfrecord_verified(rec[: -len(".pcr")] + ".tfrec")
        except (AssertionError, OSError, ValueError, struct.error, IndexError):
            failed.add(rec)
            continue
        n, g = info.n_images, info.n_scan_groups
        reassembled = index_bytes(n, g) + sum(
            len(j) - len(markers.EOI_BYTES) for _, j in items)
        out["images"] += n
        out["prefix_bytes"] += info.group_end[scan - 1]
        out["reassembled_bytes"] += reassembled
        out["pcr_bytes"] += size
        out["items"][rec], out["full"][rec] = items, full
        m = by_rec.get(rec)
        if tf is None or m is None or len(m) != n or len(tf) != n:
            failed.add(rec)
            continue
        out["baseline_bytes"] += sum(len(j) for _, j in tf)
        out["baselines"][rec] = tf
        labels = m["label"].tolist()
        starts = [index_bytes(n, g) + int(m["header_bytes"].sum())] + info.group_end
        ok = (
            m["pos"].tolist() == list(range(n))
            and info.labels == labels == [lab for lab, _ in tf]
            and all(int(m[f"scan_{k}_bytes"].sum()) == starts[k] - starts[k - 1]
                    for k in range(1, g + 1))
            and reassembled == info.group_end[scan - 1]
            and all(lab == labels[i]
                    and jpeg == truncate_to_scans(full[i][1], scan)
                    for i, (lab, jpeg) in enumerate(items))
        )
        if not ok:
            failed.add(rec)
    return out


def expected_rows(records: list[str], checked: dict) -> pd.DataFrame:
    """(record, pos, label) the loader must deliver, from the PCR indexes."""
    rows = [(rec, pos, lab) for rec in records
            for pos, (lab, _) in enumerate(checked["full"].get(rec, []))]
    return pd.DataFrame(rows, columns=["record", "pos", "label"])


def epoch_failures(pdf: pd.DataFrame, expected: pd.DataFrame,
                   records: list[str]) -> set[str]:
    """Records whose delivered rows are missing, duplicated or mislabelled."""
    got = pdf[["record", "pos", "label"]]
    m = expected.merge(got, on=["record", "pos"], how="outer",
                       suffixes=("_want", "_got"), indicator=True)
    bad = m[(m["_merge"] != "both") | (m["label_want"] != m["label_got"])]
    dup = got[got.duplicated(["record", "pos"], keep=False)]
    failed = set(bad["record"]) | set(dup["record"])
    if failed - set(records):
        return set(records)  # rows under unknown record keys: blame all
    return failed


def replay_load(items: list[tuple[int, bytes]], rec: str, tracer) -> list[np.ndarray]:
    """Serial ``decode_to_coeffs -> inverse -> extract_features`` of one record."""
    feats = []
    with tracer.wrapping(markers, "parse", "jpeg.markers.parse"):
        for _, jpeg in items:
            with tracer.span("jpeg.decoder.decode_to_coeffs", rec):
                ci = decode_to_coeffs(jpeg)
            with tracer.span("jpeg.codec.inverse", rec):
                img = inverse(ci)
            with tracer.span("train.features.extract_features", rec):
                feats.append(extract_features(img))
    return feats


def features_match(pdf: pd.DataFrame, rec: str, feats: list[np.ndarray]) -> bool:
    """Delivered features of ``rec`` are bit-equal to the serial replay."""
    rows = pdf[pdf["record"] == rec].sort_values("pos")
    if len(rows) < len(feats):
        return False
    return all(
        np.asarray(got, dtype=np.float64).tobytes() == want.tobytes()
        for got, want in zip(rows["features"], feats)
    )


def same_coeffs(a: bytes, b: bytes) -> bool:
    """Two JPEGs decode to identical quantized coefficients and tables."""
    ca, cb = decode_to_coeffs(a), decode_to_coeffs(b)
    return (
        (ca.height, ca.width, len(ca.components)) == (cb.height, cb.width, len(cb.components))
        and all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(ca.components, cb.components))
        and all(np.array_equal(x, y) for x, y in zip(ca.qtables, cb.qtables))
    )


def replay_encode(spec, idxs: list[int], rec: str, work: str,
                  tracer) -> tuple[list[bytes], list[bytes], list[int]]:
    """Serial ``generate_image -> encode_baseline -> baseline_to_progressive ->
    write_pcr / write_tfrecord`` of the images ``idxs``, as the build does it.

    Returns (baselines, progressives, labels).
    """
    baselines, progressives, labels = [], [], []
    with tracer.wrapping(transcode, "decode_to_coeffs",
                         "jpeg.transcode.decode_to_coeffs"), \
         tracer.wrapping(transcode, "encode_progressive_from_coeffs",
                         "jpeg.transcode.encode_progressive"):
        for i in idxs:
            with tracer.span("synth_images.generate_image", rec):
                img, lab = synth_images.generate_image(spec, i)
            with tracer.span("jpeg.encode_baseline", rec):
                b = encode_baseline(img, spec.quality)
            with tracer.span("jpeg.transcode.baseline_to_progressive", rec):
                p = baseline_to_progressive(b)
            baselines.append(b)
            progressives.append(p)
            labels.append(lab["label"])
    with tracer.span("core.pcr.write_pcr", rec):
        pcr.write_pcr(os.path.join(work, "replay.pcr"),
                      list(zip(progressives, labels)))
    with tracer.span("formats.tfrecord.write_tfrecord", rec):
        tfrecord.write_tfrecord(os.path.join(work, "replay.tfrec"),
                                list(zip(baselines, labels)))
    return baselines, progressives, labels


def check_sample(pdf: pd.DataFrame | None, rec: str, checked: dict,
                 meta: pd.DataFrame, spec, n_sample: int, work: str,
                 tracer) -> bool:
    """Serial replays of the first ``n_sample`` images of record ``rec``.

    * Delivered features are bit-equal to ``read_pcr -> decode_to_coeffs
      -> inverse -> extract_features``.
    * The progressive image and its TFRecord baseline twin decode to the
      same coefficients (lossless transcode); this is the check that
      sees a damaged scan byte.
    * Regenerating the images from the seed through ``generate_image ->
      encode_baseline -> baseline_to_progressive`` gives the stored
      bytes of both files.
    """
    items = checked["items"][rec][:n_sample]
    full = checked["full"][rec][:n_sample]
    twins = checked["baselines"][rec][:n_sample]
    feats = replay_load(items, rec, tracer)
    idxs = meta.loc[meta["record"] == rec, "idx"].tolist()[:n_sample]
    baselines, progressives, labels = replay_encode(spec, idxs, rec, work, tracer)
    return (
        pdf is not None
        and features_match(pdf, rec, feats)
        and all(same_coeffs(b, p) for (_, b), (_, p) in zip(twins, full))
        and baselines == [b for _, b in twins]
        and progressives == [p for _, p in full]
        and labels == [lab for lab, _ in full]
    )
