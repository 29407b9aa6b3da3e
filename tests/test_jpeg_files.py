"""End-to-end tests of baseline/progressive JPEG files, markers, truncation."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg import (
    N_SCANS,
    baseline_to_progressive,
    decode,
    decode_to_coeffs,
    encode_baseline,
    encode_progressive,
    progressive_to_baseline,
    scan_spans,
    truncate_to_scans,
)
from repro.jpeg import markers
from repro.jpeg.codec import forward
from repro.jpeg.progressive import script_for
from repro.metrics.mssim import msssim
from repro.synth_images import SPECS, generate_image


def _image(h=64, w=64, seed=0, color=True, noise=7.0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    g = 128 + 45 * np.sin(xx / 8) + 35 * np.cos(yy / 6 + 1) + noise * rng.standard_normal((h, w))
    if not color:
        return np.clip(g, 0, 255).astype(np.uint8)
    rgb = np.stack([g, 0.85 * g + 15, 250 - 0.7 * g], axis=-1)
    return np.clip(rgb, 0, 255).astype(np.uint8)


@pytest.fixture(scope="module")
def color_pair():
    img = _image()
    b = encode_baseline(img, 90)
    p = encode_progressive(img, 90)
    return img, b, p


def test_baseline_structure(color_pair):
    _, b, _ = color_pair
    segs = markers.parse(b)
    kinds = [s.marker for s in segs]
    assert kinds[0] == markers.SOI
    assert kinds[-1] == markers.EOI
    assert kinds.count(markers.SOS) == 1
    assert markers.SOF0 in kinds
    assert markers.SOF2 not in kinds


def test_progressive_structure(color_pair):
    _, _, p = color_pair
    segs = markers.parse(p)
    kinds = [s.marker for s in segs]
    assert kinds.count(markers.SOS) == N_SCANS
    assert markers.SOF2 in kinds


def test_progressive_decodes_identical_to_baseline(color_pair):
    _, b, p = color_pair
    assert np.array_equal(decode(b), decode(p))


def test_transcode_is_lossless_in_coefficients(color_pair):
    _, b, _ = color_pair
    tr = baseline_to_progressive(b)
    cb, ct = decode_to_coeffs(b), decode_to_coeffs(tr)
    for a, x in zip(cb.components, ct.components):
        assert np.array_equal(a.coeffs, x.coeffs)
    for qa, qx in zip(cb.qtables, ct.qtables):
        assert np.array_equal(qa, qx)


def test_transcode_roundtrip_to_baseline(color_pair):
    _, b, _ = color_pair
    back = progressive_to_baseline(baseline_to_progressive(b))
    assert np.array_equal(decode(back), decode(b))


def test_scan_spans_partition_the_file(color_pair):
    _, _, p = color_pair
    (h0, h1), spans = scan_spans(p)
    assert h0 == 0
    assert len(spans) == N_SCANS
    # Spans are contiguous: header then scans back-to-back up to EOI.
    assert spans[0][0] == h1
    for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
        assert s1 == e0
    assert spans[-1][1] == len(p) - 2  # EOI at the very end


def test_truncate_full_equals_original_decode(color_pair):
    _, _, p = color_pair
    assert np.array_equal(decode(truncate_to_scans(p, N_SCANS)), decode(p))


def test_truncation_quality_monotone_mssim(color_pair):
    img, _, p = color_pair
    full = decode(p)
    vals = [msssim(decode(truncate_to_scans(p, g)), full) for g in [1, 2, 5, 8, 10]]
    assert all(a <= b + 1e-6 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0)


def test_truncation_sizes_monotone(color_pair):
    _, _, p = color_pair
    sizes = [len(truncate_to_scans(p, g)) for g in range(1, N_SCANS + 1)]
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]


@pytest.mark.parametrize("g", [1, 2, 5, 10])
def test_truncated_decodes_without_error(color_pair, g):
    img, _, p = color_pair
    out = decode(truncate_to_scans(p, g))
    assert out.shape == img.shape
    assert out.dtype == np.uint8


def test_grayscale_roundtrip():
    img = _image(color=False, seed=5)
    b = encode_baseline(img, 85)
    p = encode_progressive(img, 85)
    assert np.array_equal(decode(b), decode(p))
    _, spans = scan_spans(p)
    assert len(spans) == N_SCANS


def test_non_multiple_of_8_dimensions():
    img = _image(h=37, w=53, seed=7)
    for data in (encode_baseline(img, 90), encode_progressive(img, 90)):
        out = decode(data)
        assert out.shape == img.shape


@pytest.mark.parametrize("quality", [50, 75, 92, 100])
def test_quality_sweep_decodes(quality):
    img = _image(seed=quality)
    d = decode(encode_progressive(img, quality))
    mse = np.mean((d.astype(float) - img.astype(float)) ** 2)
    assert 10 * np.log10(255**2 / mse) > 20


def test_truncated_mid_scan_still_decodes(color_pair):
    # PCR always cuts at scan boundaries, but the decoder must tolerate
    # an arbitrary cut (paper: decoders render with available subset).
    _, _, p = color_pair
    (h0, h1), spans = scan_spans(p)
    cut = (spans[3][0] + spans[3][1]) // 2
    data = p[:cut] + markers.EOI_BYTES
    out = decode(data)
    assert out.dtype == np.uint8


def test_progressive_size_within_10pct_of_baseline(color_pair):
    # Paper §3: progressive payload ~ comparable (usually smaller);
    # at our small image sizes we allow ±10%.
    _, b, p = color_pair
    assert abs(len(p) - len(b)) / len(b) < 0.10


def test_eoi_termination_trick():
    # Appending EOI to a prefix is what makes partial reads decodable.
    img = _image(seed=9)
    p = encode_progressive(img, 90)
    t = truncate_to_scans(p, 3)
    assert t[-2:] == markers.EOI_BYTES
    decode(t)


def _celeba_pair(i):
    spec = SPECS["celeba_lite"]
    b = encode_baseline(generate_image(spec, i)[0], spec.quality)
    return b, baseline_to_progressive(b)


def _coeffs(data):
    return [c.coeffs for c in decode_to_coeffs(data).components]


def test_every_cut_serves_the_scans_it_contains():
    # A stream cut anywhere after scan 1 (also inside a later scan's
    # marker segment) decodes without error, keeps only coefficients of
    # the full decode, and at a scan boundary equals truncate_to_scans.
    _, p = _celeba_pair(3)
    _, spans = scan_spans(p)
    full = _coeffs(p)
    boundaries = {e: g for g, (_, e) in enumerate(spans, start=1)}
    for n in range(spans[0][1], len(p) + 1):
        got = _coeffs(p[:n])
        for a, f in zip(got, full):
            assert np.all((a == 0) | (a == f)), n
        if n in boundaries:
            want = _coeffs(truncate_to_scans(p, boundaries[n]))
            assert all(np.array_equal(a, w) for a, w in zip(got, want)), n


@given(
    h=st.integers(8, 40),
    w=st.integers(8, 40),
    quality=st.integers(50, 100),
    color=st.booleans(),
    noise=st.floats(0, 80),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_decode_matches_forward_transform_oracle(h, w, quality, color, noise, seed):
    # Scan-prefix decode = forward(img) with every band outside the first
    # g scans zeroed (monotone in g, prefix = truncate_to_scans); baseline
    # decode = forward(img). forward() shares no code with the decoder.
    img = _image(h, w, seed, color, noise)
    ref = [c.coeffs for c in forward(img, quality).components]
    assert all(np.array_equal(a, r) for a, r in zip(_coeffs(encode_baseline(img, quality)), ref))
    p = encode_progressive(img, quality)
    keep = [np.zeros(64, dtype=bool) for _ in ref]
    for g, (comp, ss, se) in enumerate(script_for(len(ref)), start=1):
        for c in range(len(ref)) if comp is None else [comp]:
            keep[c][ss : se + 1] = True
        got = _coeffs(truncate_to_scans(p, g))
        assert all(np.array_equal(a, r * k) for a, r, k in zip(got, ref, keep)), g


def test_golden_coefficient_digest():
    # Pins the decoder's output bit for bit: celeba_lite images 0-3 at
    # scans 1/5/10 and their baseline twins, plus the mid-scan cut of
    # test_truncated_mid_scan_still_decodes.
    h = hashlib.sha256()
    streams = []
    for i in range(4):
        b, p = _celeba_pair(i)
        streams += [truncate_to_scans(p, g) for g in (1, 5, 10)] + [b]
    p = encode_progressive(_image(), 90)
    _, spans = scan_spans(p)
    streams.append(p[: (spans[3][0] + spans[3][1]) // 2] + markers.EOI_BYTES)
    for data in streams:
        for c in _coeffs(data):
            h.update(c.astype("<i4").tobytes())
    assert h.hexdigest() == "52badcce7af9fb32c4a3c4f1a1dfbca584b3a7817259247eb7d76721342c2ad6"
