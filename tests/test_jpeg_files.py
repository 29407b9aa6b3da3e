"""End-to-end tests of baseline/progressive JPEG files, markers, truncation."""
import hashlib
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
import repro
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg import (
    N_SCANS,
    baseline_to_progressive,
    decode,
    decode_to_coeffs,
    encode_baseline,
    scan_spans,
    truncate_to_scans,
)
from repro.jpeg import markers
from repro.jpeg.codec import CoeffImage, Component, forward, tables_for_quality
from repro.jpeg.decoder import MAX_PIXELS, _parse_dht
from repro.jpeg.encoder import (
    SCRIPT_PROGRESSIVE,
    encode_baseline_from_coeffs,
    encode_progressive_from_coeffs,
)
from repro.jpeg.huffman import segment_words
from repro.metrics.mssim import msssim
from repro.synth_images import SPECS, generate_image


def _image(h=64, w=64, seed=0, noise=7.0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    g = 128 + 45 * np.sin(xx / 8) + 35 * np.cos(yy / 6 + 1) + noise * rng.standard_normal((h, w))
    rgb = np.stack([g, 0.85 * g + 15, 250 - 0.7 * g], axis=-1)
    return np.clip(rgb, 0, 255).astype(np.uint8)


@pytest.fixture(scope="module")
def color_pair():
    img = _image()
    b = encode_baseline(img, 90)
    p = encode_progressive_from_coeffs(forward(img, 90))
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
    back = encode_baseline_from_coeffs(decode_to_coeffs(baseline_to_progressive(b)))
    assert back == b


@pytest.mark.parametrize("name", [*SPECS, "61x45"])
def test_direct_progressive_encode_equals_transcode(name):
    # build_pcr_dataset entropy-codes forward()'s coefficients as
    # progressive directly; the paper converts the baseline file. Same bytes.
    if name == "61x45":
        cases = [(_image(61, 45, seed=3), 90)]
    else:
        spec = SPECS[name]
        cases = [(generate_image(spec, i)[0], spec.quality) for i in range(8)]
    for img, q in cases:
        assert encode_progressive_from_coeffs(forward(img, q)) == (
            baseline_to_progressive(encode_baseline(img, q))
        )


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
    assert 0.0 < vals[1] < 1.0
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


def test_non_multiple_of_8_dimensions():
    img = _image(h=37, w=53, seed=7)
    for data in (encode_baseline(img, 90), encode_progressive_from_coeffs(forward(img, 90))):
        out = decode(data)
        assert out.shape == img.shape


@pytest.mark.parametrize("quality", [50, 75, 92, 100])
def test_quality_sweep_decodes(quality):
    img = _image(seed=quality)
    d = decode(encode_progressive_from_coeffs(forward(img, quality)))
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
    p = encode_progressive_from_coeffs(forward(img, 90))
    t = truncate_to_scans(p, 3)
    assert t[-2:] == markers.EOI_BYTES
    decode(t)


def _segment(data, marker):
    return next(s for s in markers.parse(data) if s.marker == marker)


def _set_byte(data, pos, value):
    return data[:pos] + bytes([value]) + data[pos + 1 :]


def _cut_segment(data, marker):
    s = _segment(data, marker)
    return data[: s.offset] + data[s.end :]


def _sos(data, i):
    return [s for s in markers.parse(data) if s.marker == markers.SOS][i]


def _edit_payload(data, marker, edit):
    """``data`` with the first ``marker`` segment's payload replaced by
    ``edit(payload)``, its length field rewritten to match."""
    s = _segment(data, marker)
    return data[: s.offset] + markers.seg(marker, edit(s.payload)) + data[s.end :]


# Damaged headers of a 3-component progressive file, keyed by the error
# each raises. A segment's payload starts 4 bytes after its marker.
_DAMAGED = {
    "missing SOI": lambda p: p[2:],
    "expected marker at offset 2": lambda p: _set_byte(p, 2, 0x00),
    "only 8-bit samples": lambda p: _set_byte(p, _segment(p, markers.SOF2).offset + 4, 12),
    "1x1 sampling": lambda p: _set_byte(p, _segment(p, markers.SOF2).offset + 11, 0x22),
    "only 8-bit quant tables": lambda p: _set_byte(p, _segment(p, markers.DQT).offset + 4, 0x10),
    "SOS before SOF": lambda p: _cut_segment(p, markers.SOF2),
    "no frame found": lambda p: p[: _segment(p, markers.SOF2).offset] + markers.EOI_BYTES,
    # Ss = 1 on the 3-component DC scan.
    "single-component": lambda p: _set_byte(p, _segment(p, markers.SOS).offset + 11, 1),
    # 200 more 16-bit codes than the DHT payload holds symbols for.
    "do not match": lambda p: _set_byte(p, _segment(p, markers.DHT).offset + 20, 200),
    # The DC scan's tables are never defined.
    "undefined DC Huffman table 0": lambda p: _cut_segment(p, markers.DHT),
    # The first AC scan names AC table 15.
    "undefined AC Huffman table 15": lambda p: _set_byte(p, _sos(p, 1).offset + 6, 0x0F),
    # The luma quant table is never defined.
    "undefined quant table 0": lambda p: _cut_segment(p, markers.DQT),
    "DQT segment too short": lambda p: _edit_payload(p, markers.DQT, lambda b: b[:40]),
    "SOF segment too short": lambda p: _edit_payload(p, markers.SOF2, lambda b: b[:5]),
    # The SOF claims 4 components but holds 3.
    "does not match its 4 components": lambda p: _set_byte(p, _segment(p, markers.SOF2).offset + 9, 4),
    # A 2-component frame, well formed.
    "only 3-component frames": lambda p: _edit_payload(
        p, markers.SOF2, lambda b: b[:5] + bytes([2]) + b[6:12]),
    # A grayscale frame, well formed.
    "3-component frames supported, got 1": lambda p: _edit_payload(
        p, markers.SOF2, lambda b: b[:5] + bytes([1]) + b[6:9]),
    # The SOF claims 128 pixels more than MAX_PIXELS.
    "exceeds MAX_PIXELS": lambda p: _edit_payload(
        p, markers.SOF2, lambda b: b[:1] + struct.pack(">HH", 1 + MAX_PIXELS // 128, 128) + b[5:]),
    # The second component takes the first one's id.
    "repeats a component id": lambda p: _set_byte(p, _segment(p, markers.SOF2).offset + 13, 1),
    # The 3-component DC scan claims 2 components.
    "SOS segment length": lambda p: _set_byte(p, _sos(p, 0).offset + 4, 2),
    "scan names component 9": lambda p: _set_byte(p, _sos(p, 0).offset + 5, 9),
    # The first AC band (Y 1-5) ends past coefficient 63, or before it starts.
    "Ss=1, Se=70": lambda p: _set_byte(p, _sos(p, 1).offset + 8, 70),
    "Ss=6, Se=5": lambda p: _set_byte(p, _sos(p, 1).offset + 7, 6),
}


@pytest.mark.parametrize("message", list(_DAMAGED))
def test_damaged_header_raises_value_error(color_pair, message):
    # ValueError, not assert: the checks hold under ``python -O`` too.
    with pytest.raises(ValueError, match=message):
        decode(_DAMAGED[message](color_pair[2]))


def _runs_of_15(data):
    """``data`` with every AC Huffman table's symbol 0x01 (run 0, size 1)
    sent as 0xF1 (run 15, size 1): the same bits, each such run 15 longer."""
    out = b""
    for s in markers.parse(data):
        seg = data[s.offset : s.end]
        if s.marker == markers.DHT:
            payload, i = bytearray(s.payload), 0
            while i < len(payload):
                n = sum(payload[i + 1 : i + 17])
                if payload[i] >> 4 == 1:
                    payload[i + 17 : i + 17 + n] = bytes(
                        0xF1 if v == 0x01 else v for v in payload[i + 17 : i + 17 + n])
                i += 17 + n
            seg = markers.seg(markers.DHT, bytes(payload))
        out += seg
    return out


@pytest.mark.parametrize("encode, k, se", [(encode_baseline_from_coeffs, 64, 63),
                                           (encode_progressive_from_coeffs, 16, 5)])
def test_ac_run_past_the_band_raises_value_error(encode, k, se):
    # One block whose AC coefficients 1-8 are 1: eight (0, 1) symbols.
    # Sent as (15, 1), the baseline scan's fourth run reaches coefficient
    # 64, past the block, and the progressive Y 1-5 band's first run
    # reaches 16, past the band.
    comps = []
    for c in range(3):
        co = np.zeros((1, 64), np.int32)
        co[0, 1:9] = 1
        comps.append(Component(c + 1, min(c, 1), co))
    data = _runs_of_15(encode(CoeffImage(8, 8, comps, list(tables_for_quality(75)))))
    with pytest.raises(ValueError, match=f"AC run reaches coefficient {k}, past Se = {se}"):
        decode_to_coeffs(data)


# Decodes stdin's bytes under a 1 GiB address-space cap and prints the
# outcome: the exception's type and message, or "decoded".
_CAPPED_DECODE = """
import resource, sys
from repro.jpeg.decoder import decode_to_coeffs
data = sys.stdin.buffer.read()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
try:
    decode_to_coeffs(data)
    print("decoded")
except Exception as e:
    print(type(e).__name__, e)
"""


def test_oversized_frame_raises_value_error_under_memory_cap():
    # A small colour baseline file whose SOF claims 65 535 x 65 535 pixels:
    # 16 GiB of coefficients per component. It is decoded in a child
    # process capped at 1 GiB, where a decoder that allocates from the SOF
    # alone raises MemoryError instead of exhausting the host's memory.
    b = encode_baseline(_image(16, 16), 90)
    sof = _segment(b, markers.SOF0)
    data = b[: sof.offset + 5] + struct.pack(">HH", 65535, 65535) + b[sof.offset + 9 :]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
    out = subprocess.run([sys.executable, "-c", _CAPPED_DECODE], input=data, env=env,
                         capture_output=True, check=True, timeout=60)
    assert out.stdout.decode().startswith("ValueError frame of 65535x65535 pixels"), out


def test_dc_only_scan_may_name_an_undefined_ac_table(color_pair):
    # The DC-first scan (Se = 0) never reads an AC table, so naming AC
    # table 15 for its first component changes nothing.
    p = color_pair[2]
    q = _set_byte(p, _sos(p, 0).offset + 6, 0x0F)
    assert np.array_equal(decode(q), decode(p))


def test_scan_spans_without_a_scan_raises_value_error(color_pair):
    p = color_pair[2]
    with pytest.raises(ValueError, match="no SOS segment"):
        scan_spans(p[: _segment(p, markers.SOS).offset] + markers.EOI_BYTES)


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
    noise=st.floats(0, 80),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_decode_matches_forward_transform_oracle(h, w, quality, noise, seed):
    # Scan-prefix decode = forward(img) with every band outside the first
    # g scans zeroed (monotone in g, prefix = truncate_to_scans); baseline
    # decode = forward(img). forward() shares no code with the decoder.
    img = _image(h, w, seed, noise)
    ref = [c.coeffs for c in forward(img, quality).components]
    assert all(np.array_equal(a, r) for a, r in zip(_coeffs(encode_baseline(img, quality)), ref))
    p = encode_progressive_from_coeffs(forward(img, quality))
    keep = [np.zeros(64, dtype=bool) for _ in ref]
    for g, (comp, ss, se, _) in enumerate(SCRIPT_PROGRESSIVE, start=1):
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
    p = encode_progressive_from_coeffs(forward(_image(), 90))
    _, spans = scan_spans(p)
    streams.append(p[: (spans[3][0] + spans[3][1]) // 2] + markers.EOI_BYTES)
    for data in streams:
        for c in _coeffs(data):
            h.update(c.astype("<i4").tobytes())
    assert h.hexdigest() == "52badcce7af9fb32c4a3c4f1a1dfbca584b3a7817259247eb7d76721342c2ad6"


def test_golden_cut_baseline_digest():
    # Pins the baseline scan's decode of every cut, from the end of the
    # SOS header to the full stream: celeba_lite image 3's baseline twin
    # and the baseline file of a seeded 61x45 integer coefficient image.
    h = hashlib.sha256()
    for b in (_celeba_pair(3)[0], encode_baseline_from_coeffs(_coeff_image(61, 45, 4))):
        (sos,) = [s for s in markers.parse(b) if s.marker == markers.SOS]
        for n in range(sos.end - len(sos.entropy), len(b) + 1):
            for c in _coeffs(b[:n]):
                h.update(c.astype("<i4").tobytes())
    assert h.hexdigest() == "893acdb2cd01b34c1b8e7e0e41c2cfeb82a863988fda4f181ea428fd6e78aa62"


def _coeff_image(h, w, seed):
    """A seeded integer ``CoeffImage`` that exercises the entropy coder:
    Laplacian AC coefficients decaying with zigzag index, random DCs
    (diffs up to category 11), AC category 10, all-zero bands, and zero
    runs longer than 16 (ZRL), ending both before and at index 63."""
    rng = np.random.default_rng(seed)
    n = -(-h // 8) * -(-w // 8)
    comps = []
    for c in range(3):
        co = np.round(rng.laplace(0.0, 30.0 * np.exp(-np.arange(64) / 5.0), (n, 64)))
        co[:, 0] = rng.integers(-1024, 1024, n)
        co[::3, 1] = rng.choice([-1, 1], len(co[::3])) * rng.integers(512, 1024, len(co[::3]))
        co[1::4, 2:] = 0
        co[1::4, 50] = 3
        co[2::9, 1:] = 0
        co[2::9, 63] = -1
        co[3::6, 1:] = 0
        co[:, 1:] = np.clip(co[:, 1:], -1023, 1023)
        comps.append(Component(c + 1, min(c, 1), co.astype(np.int32)))
    return CoeffImage(h, w, comps, list(tables_for_quality(75)))


def _eobrun_image(nonzero_block=None):
    """182x182 blocks (33 124 > 0x7FFF) of three components with every AC
    band zero, except coefficient 1 of ``nonzero_block`` when given."""
    n = 182 * 182
    comps = []
    for c in range(3):
        co = np.zeros((n, 64), dtype=np.int32)
        co[:, 0] = (np.arange(n) + c) % 23 - 11
        if nonzero_block is not None:
            co[nonzero_block, 1] = 5
        comps.append(Component(c + 1, min(c, 1), co))
    return CoeffImage(8 * 182, 8 * 182, comps, list(tables_for_quality(75)))


def _entropy_coder_inputs():
    return [
        _coeff_image(37, 53, 0),
        _coeff_image(83, 101, 1),
        _coeff_image(29, 61, 2),
        _coeff_image(91, 45, 3),
        _eobrun_image(),
        _eobrun_image(32_900),
    ]


def test_golden_entropy_coder_digest():
    # Pins the entropy coder's bytes independently of forward(), so BLAS
    # cannot move it: baseline and progressive files of seeded integer
    # coefficient images (odd sizes, DC category 11, AC category 10, ZRLs,
    # EOB runs past 0x7FFF in every component).
    h = hashlib.sha256()
    for ci in _entropy_coder_inputs():
        h.update(encode_baseline_from_coeffs(ci))
        h.update(encode_progressive_from_coeffs(ci))
    assert h.hexdigest() == "4bdb2f9ab248465d5ebf371bcaa34ef56c2137b1965b6b58017d71043ec1089b"


@pytest.mark.parametrize("encode", [encode_baseline_from_coeffs, encode_progressive_from_coeffs])
def test_entropy_coder_inputs_decode_to_their_coefficients(encode):
    # The files the golden digest pins decode back to exactly their input.
    for ci in _entropy_coder_inputs():
        got = decode_to_coeffs(encode(ci))
        assert (got.height, got.width) == (ci.height, ci.width)
        for a, c in zip(got.components, ci.components, strict=True):
            assert (a.comp_id, a.qtab_id) == (c.comp_id, c.qtab_id)
            assert np.array_equal(a.coeffs, c.coeffs)
        for qa, qc in zip(got.qtables, ci.qtables, strict=True):
            assert np.array_equal(qa, qc)


@pytest.mark.parametrize("nonzero_block", [None, 32_900])
def test_eobrun_cap(nonzero_block):
    # More all-zero blocks than one EOBn can count: the first AC scan
    # opens with a 0x7FFF EOB14 run, and the coefficients round-trip.
    ci = _eobrun_image(nonzero_block)
    p = encode_progressive_from_coeffs(ci)
    for got, want in zip(decode_to_coeffs(p).components, ci.components, strict=True):
        assert np.array_equal(got.coeffs, want.coeffs)
    tables = {}
    sos = []
    for s in markers.parse(p):
        if s.marker == markers.DHT:
            _parse_dht(s.payload, tables)
        elif s.marker == markers.SOS:
            sos.append(s)
    first_ac = sos[1]
    ac_table = tables[(1, first_ac.payload[2] & 0xF)]
    words, _ = segment_words(first_ac.entropy)
    _, run, value = ac_table.slow(words[0])
    assert (run, value) == (-0x7FFF, 0)
