"""Unit tests for the TFRecord baseline record layout."""
import os
import struct

import numpy as np
import pytest

from repro.formats import tfrecord


@pytest.fixture()
def items():
    return [(bytes([i]) * (50 + i), i % 3) for i in range(10)]


def test_tfrecord_roundtrip(tmp_path, items):
    p = str(tmp_path / "x.tfrec")
    total = tfrecord.write_tfrecord(p, items)
    assert os.path.getsize(p) == total
    out = tfrecord.read_tfrecord(p)
    assert [(j, l) for j, l in zip((i[0] for i in items), (i[1] for i in items))] == [
        (j, l) for l, j in out
    ]


def test_tfrecord_framing_overhead(tmp_path, items):
    p = str(tmp_path / "x.tfrec")
    total = tfrecord.write_tfrecord(p, items)
    payload = sum(len(j) for j, _ in items)
    # 16 bytes framing + 8 bytes example header per record.
    assert total == payload + 24 * len(items)
    assert tfrecord.RECORD_OVERHEAD == 24


def test_tfrecord_crc_detects_corruption(tmp_path, items):
    p = str(tmp_path / "x.tfrec")
    tfrecord.write_tfrecord(p, items)
    data = bytearray(open(p, "rb").read())
    data[20] ^= 0xFF
    open(p, "wb").write(bytes(data))
    with pytest.raises(ValueError, match="x.tfrec"):
        tfrecord.read_tfrecord(p)


def test_tfrecord_every_cut_is_rejected_or_whole(tmp_path, items):
    # A file cut at any byte either raises ValueError naming it or, at a
    # record boundary, reads back exactly the records it holds.
    p = tmp_path / "x.tfrec"
    tfrecord.write_tfrecord(str(p), items)
    data = p.read_bytes()
    full = tfrecord.read_tfrecord(str(p))
    ends = np.cumsum([0] + [len(jpeg) + 24 for jpeg, _ in items]).tolist()
    cut = tmp_path / "cut.tfrec"
    for n in range(len(data) + 1):
        cut.write_bytes(data[:n])
        if n in ends:
            assert tfrecord.read_tfrecord(str(cut)) == full[: ends.index(n)], n
        else:
            with pytest.raises(ValueError, match="cut.tfrec"):
                tfrecord.read_tfrecord(str(cut))


def _record(payload):
    """One record framed with valid CRCs around ``payload``."""
    hdr = struct.pack("<Q", len(payload))
    return (hdr + struct.pack("<I", tfrecord._masked_crc(hdr)) + payload
            + struct.pack("<I", tfrecord._masked_crc(payload)))


@pytest.mark.parametrize("payload", [
    b"\x03\x00\x00\x00abc",  # shorter than the example's 8-byte header
    struct.pack("<iI", 3, 100) + b"abc",  # claims more JPEG than it holds
    struct.pack("<iI", 3, 1) + b"abc",  # claims less
], ids=["short", "claims-more", "claims-less"])
def test_tfrecord_example_must_hold_its_jpeg_length(tmp_path, payload):
    # Both CRCs match; only the example header disagrees with its payload.
    p = tmp_path / "bad.tfrec"
    p.write_bytes(_record(struct.pack("<iI", 1, 2) + b"ok") + _record(payload))
    with pytest.raises(ValueError, match="bad.tfrec: the example of the record at byte 26"):
        tfrecord.read_tfrecord(str(p))
