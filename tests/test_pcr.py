"""Unit tests for the PCR record format (paper Fig 4 layout)."""
import hashlib
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("g", [0, N_SCANS + 1])
def test_prefix_bytes_out_of_range_rejected(record, g):
    """An out-of-range scan group raises naming the file, also under
    ``python -O`` (g = 0 must not index the last group's end)."""
    path, info, _, _ = record
    with pytest.raises(ValueError, match=f"{re.escape(path)}: scan group {g} "):
        info.prefix_bytes(g)


def test_mixed_scan_scripts_rejected(record, tmp_path):
    """A baseline (one scan) beside a progressive image (ten) shares no
    scan-group layout: writing them raises naming the file, also under
    ``python -O``, instead of dropping the progressive image's scans."""
    _, _, progs, labels = record
    spec = SPECS["celeba_lite"]
    base = encode_baseline(generate_image(spec, 0)[0], spec.quality)
    path = str(tmp_path / "mixed.pcr")
    with pytest.raises(ValueError, match=f"{re.escape(path)}: .*scan script"):
        pcr.write_pcr(path, [(base, labels[0]), (progs[1], labels[1])])


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
    with pytest.raises(ValueError, match="not a PCR file"):
        pcr.read_index(str(p))


@pytest.fixture(scope="module")
def golden_file(record, tmp_path_factory):
    """The 4-image file of test_golden_bytes: its bytes and index."""
    _, _, progs, labels = record
    path = str(tmp_path_factory.mktemp("pcr") / "golden.pcr")
    info = pcr.write_pcr(path, list(zip(progs[:4], labels[:4])))
    with open(path, "rb") as f:
        return f.read(), info


def _damaged(tmp_path, data: bytes) -> str:
    path = str(tmp_path / "damaged.pcr")
    with open(path, "wb") as f:
        f.write(data)
    return path


@given(st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_flipped_index_byte_is_rejected(golden_file, tmp_path, data):
    # Changing any index byte outside the labels raises ValueError from
    # both readers; a changed label reads back as that label.
    raw, info = golden_file
    pos = data.draw(st.integers(0, info.index_bytes - 1))
    xor = data.draw(st.integers(1, 255))
    path = _damaged(tmp_path, raw[:pos] + bytes([raw[pos] ^ xor]) + raw[pos + 1 :])
    labels = 9 + 8 * info.n_scan_groups
    if labels <= pos < labels + 4 * info.n_images:
        assert pcr.read_index(path).group_end == info.group_end
        assert pcr.read_index(path).labels != info.labels
        return
    with pytest.raises(ValueError, match="damaged.pcr"):
        pcr.read_index(path)
    with pytest.raises(ValueError, match="damaged.pcr"):
        pcr.read_pcr(path, data.draw(st.integers(1, N_SCANS)))


@pytest.mark.parametrize("field, value, message", [
    ("n_images", 10**7, "need 4800"),
    ("n_scan_groups", 200, "ends at"),
    ("n_scan_groups", 0, "0 scan groups"),
], ids=["n_images=10**7", "n_scan_groups=200", "n_scan_groups=0"])
def test_damaged_header_counts_rejected(golden_file, tmp_path, field, value, message):
    # A header count that the file cannot hold is refused before any
    # large read; one that fits is caught by the group_end check.
    raw, _ = golden_file
    n, g = struct.unpack_from("<IB", raw, 4)
    n, g = (value, g) if field == "n_images" else (n, value)
    path = _damaged(tmp_path, raw[:4] + struct.pack("<IB", n, g) + raw[9:])
    with pytest.raises(ValueError, match=message):
        pcr.read_pcr(path, N_SCANS)


def test_non_monotone_group_end_rejected(golden_file, tmp_path):
    raw, info = golden_file
    ends = list(info.group_end)
    ends[3], ends[4] = ends[4], ends[3]
    path = _damaged(tmp_path, raw[:9] + struct.pack(f"<{len(ends)}Q", *ends)
                    + raw[9 + 8 * len(ends) :])
    with pytest.raises(ValueError, match="scan group 4 ends at"):
        pcr.read_index(path)


def test_out_of_range_scan_group_clamped(record):
    path, _, progs, _ = record
    hi = pcr.read_pcr(path, 99)
    full = pcr.read_pcr(path, N_SCANS)
    assert [b for _, b in hi] == [b for _, b in full]


def test_cut_file_serves_the_groups_it_holds(record, tmp_path):
    # Cut 10 bytes into scan group 5: groups 1-4 are still served whole.
    path, info, _, _ = record
    with open(path, "rb") as f:
        raw = f.read()
    cut = _damaged(tmp_path, raw[: info.group_end[3] + 10])
    assert pcr.read_pcr(cut, 10) == pcr.read_pcr(path, 4)
    assert pcr.read_pcr(cut, 4) == pcr.read_pcr(path, 4)


def test_cut_inside_headers_rejected(record, tmp_path):
    path, info, _, _ = record
    with open(path, "rb") as f:
        raw = f.read()
    cut = _damaged(tmp_path, raw[: info.index_bytes + sum(info.header_lens) - 1])
    with pytest.raises(ValueError, match="damaged.pcr"):
        pcr.read_pcr(cut, 1)


@given(st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_cut_serves_the_groups_it_holds(record, tmp_path, data):
    # A file cut after n bytes serves min(g, the groups ending by n) at
    # any g; one that holds no whole group raises ValueError naming it.
    path, info, progs, labels = record
    with open(path, "rb") as f:
        raw = f.read()
    n = data.draw(st.one_of(
        st.sampled_from([e - d for e in info.group_end for d in (0, 1)]),
        st.integers(0, len(raw)),
    ))
    g = data.draw(st.integers(1, N_SCANS))
    cut = _damaged(tmp_path, raw[:n])
    held = sum(e <= n for e in info.group_end)
    if held == 0:
        with pytest.raises(ValueError, match="damaged.pcr"):
            pcr.read_pcr(cut, g)
        return
    want = [(lab, truncate_to_scans(p, min(g, held))) for p, lab in zip(progs, labels)]
    assert pcr.read_pcr(cut, g) == want
