"""Unit tests for Huffman coding and bit I/O (incl. hypothesis roundtrips)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jpeg.decoder import _dc_scan
from repro.jpeg.huffman import (
    LOOKAHEAD_BITS,
    BitWriter,
    HuffmanTable,
    build_optimal_table,
    extend,
    magnitude_bits,
    magnitude_category,
    segment_words,
)


def _simple_table():
    # symbols 0,1 at length 2; 2 at length 3 — prefix-free, not all-ones.
    return HuffmanTable(bits=[0, 2, 1] + [0] * 13, values=[0, 1, 2])


def _deep_freqs():
    # Exponential frequencies force deep trees (codes up to 16 bits).
    freqs = np.zeros(256, dtype=np.int64)
    for i in range(40):
        freqs[i] = 2**i if i < 30 else 2**30
    return freqs


def _n_extra(sym):
    run, size = sym >> 4, sym & 0xF
    return size or (run if run != 15 else 0)


def _expected_entry(sym, length, extra):
    """(bits consumed, run, value) that a lookup must return, per the
    T.81 meaning of ``sym`` followed by its extra bits ``extra``."""
    run, size = sym >> 4, sym & 0xF
    if size:
        return length + size, run, extend(extra, size)
    if run == 15:
        return length, 15, 0
    return length + run, -((1 << run) + extra), 0


def _bits_of(words):
    return int.from_bytes(b"".join(w.to_bytes(4, "big") for w in words), "big")


def test_canonical_code_assignment():
    codes = {s: (c, l) for s, c, l in _simple_table().codes()}
    assert codes[0] == (0b00, 2)
    assert codes[1] == (0b01, 2)
    assert codes[2] == (0b100, 3)


def test_decoder_lut_consistent_with_encoder():
    # Every (code, extra bits) of every symbol decodes to its entry: from
    # the fast table when both fit in LOOKAHEAD_BITS, else via ``slow``.
    k = LOOKAHEAD_BITS
    for table in (_simple_table(), build_optimal_table(_deep_freqs())):
        look = table.lookahead
        for s, c, l in table.codes():
            n = _n_extra(s)
            for x in range(1 << n):
                head = (c << n | x) << (32 - l - n)
                expected = _expected_entry(s, l, x)
                if l + n <= k:
                    lo = head >> (32 - k)
                    assert set(look.fast[lo : lo + (1 << (k - l - n))]) == {expected}
                else:
                    assert look.fast[head >> (32 - k)][2] is None
                    assert look.slow(head | ((1 << (32 - l - n)) - 1)) == expected


@pytest.mark.parametrize("seed", [*range(4), "deep"])
def test_optimal_table_roundtrips_symbols(seed):
    rng = np.random.default_rng(0 if seed == "deep" else seed)
    if seed == "deep":
        freqs = _deep_freqs()
        alphabet = np.nonzero(freqs)[0]
    else:
        freqs = np.zeros(256, dtype=np.int64)
        alphabet = rng.choice(256, size=20, replace=False)
        freqs[alphabet] = rng.integers(1, 1000, size=20)
    t = build_optimal_table(freqs)
    assert sorted(t.values) == sorted(alphabet.tolist())
    if seed == "deep":
        assert max(l for _, _, l in t.codes()) > LOOKAHEAD_BITS
    lengths = {s: l for s, _, l in t.codes()}
    w = BitWriter()
    msg = [(int(s), int(rng.integers(0, 1 << _n_extra(int(s)))))
           for s in rng.choice(alphabet, size=500)]
    for s, x in msg:
        w.write_code(t, s)
        w.write(x, _n_extra(s))
    # Decode with one lookup per symbol, as the scan loops do.
    words, n_bits = segment_words(w.getvalue())
    bits, total, pos = _bits_of(words), 32 * len(words), 0
    look = t.lookahead
    for s, x in msg:
        window = (bits >> (total - pos - 32)) & 0xFFFFFFFF
        entry = look.fast[window >> (32 - LOOKAHEAD_BITS)]
        if entry[2] is None:
            entry = look.slow(window)
        assert entry == _expected_entry(s, lengths[s], x)
        pos += entry[0]
    assert pos <= n_bits < pos + 8


def test_optimal_table_skewed_freqs_gives_short_code_to_common_symbol():
    freqs = np.zeros(256, dtype=np.int64)
    freqs[7] = 10000
    freqs[8] = 10
    freqs[9] = 10
    t = build_optimal_table(freqs)
    enc = t.encoder
    assert enc[7][1] <= enc[8][1]
    assert enc[7][1] <= enc[9][1]


def test_optimal_table_single_symbol():
    freqs = np.zeros(256, dtype=np.int64)
    freqs[42] = 5
    t = build_optimal_table(freqs)
    assert t.values == [42]
    code, length = t.encoder[42]
    assert 1 <= length <= 16


def test_no_all_ones_code():
    # The reserved-symbol trick must prevent any real symbol from
    # receiving the all-ones code of its length.
    rng = np.random.default_rng(0)
    freqs = rng.integers(1, 50, size=256)
    t = build_optimal_table(freqs)
    for s, c, l in t.codes():
        assert c != (1 << l) - 1


def test_max_code_length_16():
    # Exponential frequencies force deep trees; lengths must be folded.
    t = build_optimal_table(_deep_freqs())
    assert all(l <= 16 for _, _, l in t.codes())
    # Kraft inequality holds (decodable).
    assert sum(2.0 ** -l for _, _, l in t.codes()) <= 1.0


def test_bitwriter_stuffs_ff():
    w = BitWriter()
    w.write(0xFF, 8)
    out = w.getvalue()
    assert out == b"\xff\x00"


def test_segment_words_unstuffs_ff():
    words, n_bits = segment_words(b"\xff\x00\xab")
    assert n_bits == 16
    assert words[0] == 0xFFABFFFF
    assert all(w == 0xFFFFFFFF for w in words[1:])  # 1-bit padding
    assert 32 * len(words) - n_bits >= 64


def test_scan_eof_keeps_only_complete_symbols():
    # A DC scan cut at every byte stores exactly the values whose code
    # and extra bits all lie in the cut, then raises EOFError.
    rng = np.random.default_rng(0)
    diffs = rng.integers(-300, 300, size=40).tolist()
    ops = [magnitude_bits(d) for d in diffs]
    t = build_optimal_table(np.bincount([s for _, s in ops], minlength=256))
    w = BitWriter()
    ends = []
    for b, s in ops:
        w.write_code(t, s)
        w.write(b, s)
        ends.append(t.encoder[s][1] + s + (ends[-1] if ends else 0))
    data = w.getvalue()
    assert b"\xff" not in data  # so byte count = bit count / 8
    for n in range(len(data) + 1):
        out = np.zeros(64 * len(diffs), dtype=np.int32)
        complete = sum(e <= 8 * n for e in ends)
        if complete < len(diffs):
            with pytest.raises(EOFError):
                _dc_scan(data[:n], len(diffs), [t], [memoryview(out)])
        else:
            _dc_scan(data[:n], len(diffs), [t], [memoryview(out)])
        assert out[::64].tolist() == (np.cumsum(diffs[:complete]).tolist()
                                      + [0] * (len(diffs) - complete))


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(1, 6)), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_bit_roundtrip_hypothesis(items):
    # BitWriter (stuffing) -> segment_words (unstuffing) gives back the bits.
    w = BitWriter()
    bits, n = 0, 0
    for v, k in items:
        w.write(v & ((1 << k) - 1), k)
        bits, n = bits << k | (v & ((1 << k) - 1)), n + k
    words, n_bits = segment_words(w.getvalue())
    assert n_bits == -(-n // 8) * 8
    assert _bits_of(words) >> (32 * len(words) - n) == bits


@given(st.integers(-2047, 2047))
@settings(max_examples=200, deadline=None)
def test_magnitude_roundtrip(v):
    bits, size = magnitude_bits(v)
    assert extend(bits, size) == v
    assert size == magnitude_category(v)


def test_magnitude_categories():
    assert magnitude_category(0) == 0
    assert magnitude_category(1) == magnitude_category(-1) == 1
    assert magnitude_category(255) == 8
    assert magnitude_category(-1024) == 11
