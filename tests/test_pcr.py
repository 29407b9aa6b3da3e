"""Unit tests for the PCR record format (paper Fig 4 layout)."""
import hashlib
import os

import numpy as np
import pytest

from repro.core import pcr
from repro.jpeg import (
    N_SCANS,
    baseline_to_progressive,
    decode,
    encode_baseline,
    truncate_to_scans,
)
from repro.synth_images import SPECS, generate_image


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    spec = SPECS["celeba_lite"]
    imgs, labels, progs = [], [], []
    for i in range(8):
        img, lab = generate_image(spec, i)
        imgs.append(img)
        labels.append(lab["label"])
        progs.append(baseline_to_progressive(encode_baseline(img, spec.quality)))
    path = str(tmp_path_factory.mktemp("pcr") / "r.pcr")
    info = pcr.write_pcr(path, list(zip(progs, labels)))
    return path, info, progs, labels


def test_golden_bytes(record, tmp_path):
    """Pins the on-disk format: celeba_lite images 0-3 give exactly these bytes."""
    _, _, progs, labels = record
    path = str(tmp_path / "golden.pcr")
    info = pcr.write_pcr(path, list(zip(progs[:4], labels[:4])))
    with open(path, "rb") as f:
        data = f.read()
    assert len(data) == 6645
    assert hashlib.sha256(data).hexdigest() == (
        "ea7efb21c3b3858c864c4a0402fbfec69100b9b69c2f5a0ac1025dc18a34064a"
    )
    assert info.group_end == [2245, 3781, 3950, 4003, 5483, 6135, 6426, 6522, 6589, 6645]
    back = pcr.read_index(path)
    assert back == info
    # The index and the JPEG headers end where scan group 1 starts.
    assert back.index_bytes + sum(back.header_lens) == (
        back.group_end[0] - sum(back.scan_lens[0])
    )


def test_file_size_equals_last_group_end(record):
    path, info, _, _ = record
    assert os.path.getsize(path) == info.group_end[-1]


def test_group_ends_monotone(record):
    _, info, _, _ = record
    assert info.group_end == sorted(info.group_end)
    assert info.n_scan_groups == N_SCANS


def test_index_roundtrip(record):
    path, info, _, _ = record
    back = pcr.read_index(path)
    assert back.labels == info.labels
    assert back.group_end == info.group_end
    assert back.scan_lens == info.scan_lens
    assert back.header_lens == info.header_lens


@pytest.mark.parametrize("g", [1, 2, 5, 10])
def test_reassembly_matches_truncation(record, g):
    """PCR prefix read must reproduce truncate_to_scans byte-for-byte."""
    path, _, progs, labels = record
    items = pcr.read_pcr(path, g)
    assert [l for l, _ in items] == labels
    for (_, jb), p in zip(items, progs):
        assert jb == truncate_to_scans(p, g)


def test_full_fidelity_decodes_identical(record):
    path, _, progs, _ = record
    items = pcr.read_pcr(path, N_SCANS)
    for (_, jb), p in zip(items, progs):
        assert np.array_equal(decode(jb), decode(p))


def test_prefix_bytes_monotone_and_bounded(record):
    path, info, _, _ = record
    sizes = [info.prefix_bytes(g) for g in range(1, N_SCANS + 1)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == os.path.getsize(path)
    # Scan 1 must be a small fraction of the full record.
    assert sizes[0] < 0.6 * sizes[-1]


def test_prefix_read_is_exact_subset(record):
    # The bytes consumed at fidelity g are a prefix of fidelity g+1.
    path, info, _, _ = record
    with open(path, "rb") as f:
        data = f.read()
    for g in range(1, N_SCANS):
        assert data[: info.prefix_bytes(g)] == data[: info.prefix_bytes(g)]
        assert info.prefix_bytes(g) <= info.prefix_bytes(g + 1)


def test_scan_group_contiguity(record):
    # Sum of per-image scan lengths in group g equals the group extent.
    _, info, _, _ = record
    prev = info.group_end[0] - sum(info.scan_lens[0])
    for g in range(info.n_scan_groups):
        assert info.group_end[g] - prev == sum(info.scan_lens[g])
        prev = info.group_end[g]


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.pcr"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(AssertionError):
        pcr.read_index(str(p))


def test_out_of_range_scan_group_clamped(record):
    path, _, progs, _ = record
    hi = pcr.read_pcr(path, 99)
    full = pcr.read_pcr(path, N_SCANS)
    assert [b for _, b in hi] == [b for _, b in full]
