"""Unit tests for Huffman coding, scan packing and unpacking (incl.
hypothesis roundtrips)."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import synth_images
from repro.jpeg import markers
from repro.jpeg.codec import forward
from repro.jpeg.decoder import _interleaved_scan, _parse_dht
from repro.jpeg.encoder import encode_baseline_from_coeffs, encode_progressive_from_coeffs
from repro.jpeg.huffman import (
    LOOKAHEAD_BITS,
    MAX_CODE_LEN,
    HuffmanTable,
    build_optimal_table,
    extend,
    magnitude_bits,
    magnitude_category,
    pack_scan,
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


def _reference_optimal_table(freqs):
    """libjpeg's jpeg_gen_optimal_table as two 257-wide scans per merge:
    the oracle for ``build_optimal_table``."""
    freq = np.zeros(257, dtype=np.int64)
    freq[:256] = np.asarray(freqs, dtype=np.int64)
    freq[256] = 1  # reserved: ensures no real all-ones code
    codesize = np.zeros(257, dtype=np.int64)
    others = np.full(257, -1, dtype=np.int64)

    while True:
        # c1: least-frequency symbol (ties -> larger symbol, per libjpeg)
        c1, v = -1, np.inf
        for i in range(257):
            if 0 < freq[i] <= v:
                v, c1 = freq[i], i
        c2, v = -1, np.inf
        for i in range(257):
            if 0 < freq[i] <= v and i != c1:
                v, c2 = freq[i], i
        if c2 < 0:
            break
        freq[c1] += freq[c2]
        freq[c2] = 0
        codesize[c1] += 1
        while others[c1] >= 0:
            c1 = others[c1]
            codesize[c1] += 1
        others[c1] = c2
        codesize[c2] += 1
        while others[c2] >= 0:
            c2 = others[c2]
            codesize[c2] += 1

    bits = np.zeros(60, dtype=np.int64)  # generous headroom for long codes
    for i in range(257):
        if codesize[i]:
            bits[codesize[i]] += 1

    # Fold code lengths > 16 down (libjpeg's adjustment).
    i = len(bits) - 1
    while i > MAX_CODE_LEN:
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
        i -= 1
    # Remove the reserved symbol's code from the longest used length.
    i = MAX_CODE_LEN
    while i > 0 and bits[i] == 0:
        i -= 1
    if i > 0:
        bits[i] -= 1

    # Symbols sorted by (code length, symbol value); drop the reserved one.
    order = sorted(
        (i for i in range(256) if codesize[i] > 0),
        key=lambda i: (codesize[i], i),
    )
    return HuffmanTable(bits=list(bits[1 : MAX_CODE_LEN + 1]), values=order)


def _code_of(table):
    return {s: (c, l) for s, c, l in table.codes()}


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
    # Every symbol's ``book`` word, followed by each value of its extra
    # bits, decodes to the symbol's entry: from the fast table when both
    # fit in LOOKAHEAD_BITS, else via ``slow``. Symbols the table lacks
    # have no word.
    k = LOOKAHEAD_BITS
    for table in (_simple_table(), build_optimal_table(_deep_freqs()), *_dataset_tables()):
        words, nbits = table.book()
        absent = np.setdiff1d(np.arange(256), table.values)
        assert not words[absent].any() and not nbits[absent].any()
        for s, _, l in table.codes():
            n = _n_extra(s)
            assert nbits[s] == l + n
            for x in range(1 << n):
                head = int(words[s] | x) << (32 - l - n)
                expected = _expected_entry(s, l, x)
                if l + n <= k:
                    lo = head >> (32 - k)
                    assert set(table.fast[lo : lo + (1 << (k - l - n))]) == {expected}
                else:
                    assert table.fast[head >> (32 - k)][2] is None
                    assert table.slow(head | ((1 << (32 - l - n)) - 1)) == expected


def _reference_fast(table):
    """``HuffmanTable.fast`` by slice assignment: each code of up to
    LOOKAHEAD_BITS bits fills its own range of the table, entry by entry.
    Codes of an over-subscribed table that fall past the end are dropped."""
    k = LOOKAHEAD_BITS
    fast = [(0, 0, None)] * (1 << k)
    for s, c, l in table.codes():
        if l > k or (c + 1) << (k - l) > 1 << k:
            break
        lo, hi = c << (k - l), (c + 1) << (k - l)
        n = _n_extra(s)
        fast[lo:hi] = [
            (l, s, None) if l + n > k else _expected_entry(s, l, (w - lo) >> (k - l - n))
            for w in range(lo, hi)
        ]
    return fast


def _reference_bounds(table):
    """libjpeg's ``maxcode``/``valoff`` per code length, from ``bits``
    alone: the last code of each length (-1 if none), and the offset from
    a code of that length to its symbol's index in ``values``."""
    maxcode, valoff = [-1] * (MAX_CODE_LEN + 1), [0] * (MAX_CODE_LEN + 1)
    code = first = 0
    for length in range(1, MAX_CODE_LEN + 1):
        count = table.bits[length - 1]
        if count:
            valoff[length] = first - code
            maxcode[length] = code + count - 1
        code = (code + count) << 1
        first += count
    return maxcode, valoff


def _reference_decode(table, bounds, window):
    """The entry of the symbol that starts the 32-bit ``window``, found as
    libjpeg's ``jpeg_huff_decode`` does (shortest length first), or
    EOFError when no code matches."""
    maxcode, valoff = bounds
    for length in range(1, MAX_CODE_LEN + 1):
        code = window >> (32 - length)
        if code <= maxcode[length]:
            s = table.values[code + valoff[length]]
            n = _n_extra(s)
            return _expected_entry(s, length, window >> (32 - length - n) & ((1 << n) - 1))
    return EOFError


def test_slow_equals_reference_on_every_16_bit_prefix():
    # Over-subscribed, empty and deep tables (codes longer than
    # LOOKAHEAD_BITS), where ``slow`` runs libjpeg's ``maxcode`` search.
    rng = np.random.default_rng(1)
    tables = [
        HuffmanTable(bits=[0] * 16, values=[]),
        HuffmanTable(bits=[3] + [0] * 15, values=[0, 1, 2]),
        HuffmanTable(bits=[0, 0, 9] + [0] * 13, values=list(range(0xF0, 0xF9))),
        # Over-subscribed at 16 bits, behind codes of every length up to 10.
        HuffmanTable(bits=[1] * 10 + [0] * 5 + [100], values=list(range(110))),
        HuffmanTable(bits=[1] * 16, values=[0x0A, 0x1B, 0x2C, 0xF0, *range(0xA0, 0xAC)]),
        build_optimal_table(_deep_freqs()),
    ]
    for _ in range(2):
        bits = [0] * 8 + rng.integers(0, 4, 8).tolist()
        tables.append(HuffmanTable(bits=bits, values=rng.integers(0, 256, sum(bits)).tolist()))
    assert all(max(l for _, _, l in t.codes()) > LOOKAHEAD_BITS for t in tables[3:])
    for table in tables:
        bounds = _reference_bounds(table)
        for prefix in range(1 << 16):
            window = prefix << 16 | prefix
            # As the scan loops decode: ``slow`` where ``fast`` has no value.
            got = table.fast[window >> (32 - LOOKAHEAD_BITS)]
            if got[2] is None:
                try:
                    got = table.slow(window)
                except EOFError:
                    got = EOFError
            assert got == _reference_decode(table, bounds, window)


DATASET_IMAGES = 12  # first images of each dataset whose tables the table tests read


@functools.cache
def _dataset_tables():
    """The DC and AC tables of the progressive and baseline files of
    each dataset's first ``DATASET_IMAGES`` images."""
    tables = []
    for spec in synth_images.SPECS.values():
        for i in range(DATASET_IMAGES):
            ci = forward(synth_images.generate_image(spec, i)[0], spec.quality)
            for data in (encode_progressive_from_coeffs(ci), encode_baseline_from_coeffs(ci)):
                for seg in markers.parse(data):
                    if seg.marker == markers.DHT:
                        found = {}
                        _parse_dht(seg.payload, found)
                        tables += found.values()
    return tables


def test_lookahead_fast_equals_reference_on_dataset_tables():
    tables = _dataset_tables()
    assert len({(tuple(t.bits), tuple(t.values)) for t in tables}) > 100
    for table in tables:
        assert table.fast == _reference_fast(table)


def test_lookahead_fast_equals_reference_on_oversubscribed_and_empty_bits():
    rng = np.random.default_rng(0)
    tables = [
        HuffmanTable(bits=[0] * 16, values=[]),
        HuffmanTable(bits=[3] + [0] * 15, values=[0, 1, 2]),
        HuffmanTable(bits=[0, 0, 9] + [0] * 13, values=list(range(0xF0, 0xF9))),
        HuffmanTable(bits=[1] * 16, values=list(range(16))),
    ]
    for _ in range(300):
        bits = (rng.integers(0, 6, 16) * (rng.random(16) < 0.4)).tolist()
        tables.append(HuffmanTable(bits=bits, values=rng.integers(0, 256, sum(bits)).tolist()))
    assert any(sum(b << (16 - l) for l, b in enumerate(t.bits, 1)) > 1 << 16 for t in tables)
    for table in tables:
        assert table.fast == _reference_fast(table)


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
    msg = [(int(s), int(rng.integers(0, 1 << _n_extra(int(s)))))
           for s in rng.choice(alphabet, size=500)]
    # Decode with one lookup per symbol, as the scan loops do.
    sym, extra = np.array(msg).T
    book_words, book_nbits = t.book()
    words, n_bits = segment_words(pack_scan(book_words[sym] | extra, book_nbits[sym]))
    bits, total, pos = _bits_of(words), 32 * len(words), 0
    for s, x in msg:
        window = (bits >> (total - pos - 32)) & 0xFFFFFFFF
        entry = t.fast[window >> (32 - LOOKAHEAD_BITS)]
        if entry[2] is None:
            entry = t.slow(window)
        assert entry == _expected_entry(s, lengths[s], x)
        pos += entry[0]
    assert pos <= n_bits < pos + 8


def test_optimal_table_skewed_freqs_gives_short_code_to_common_symbol():
    freqs = np.zeros(256, dtype=np.int64)
    freqs[7] = 10000
    freqs[8] = 10
    freqs[9] = 10
    t = build_optimal_table(freqs)
    enc = _code_of(t)
    assert enc[7][1] <= enc[8][1]
    assert enc[7][1] <= enc[9][1]


def test_optimal_table_single_symbol():
    freqs = np.zeros(256, dtype=np.int64)
    freqs[42] = 5
    t = build_optimal_table(freqs)
    assert t.values == [42]
    code, length = _code_of(t)[42]
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


def test_pack_scan_stuffs_ff():
    out = pack_scan(np.array([0xFF]), np.array([8]))
    assert out == b"\xff\x00"


def test_segment_words_unstuffs_ff():
    words, n_bits = segment_words(b"\xff\x00\xab")
    assert n_bits == 16
    assert words[0] == 0xFFABFFFF
    assert all(w == 0xFFFFFFFF for w in words[1:])  # 1-bit padding
    assert 32 * len(words) - n_bits >= 64


def test_scan_eof_keeps_only_complete_symbols():
    # A DC-first scan (se = 0, no AC table) cut at every byte stores
    # exactly the values whose code and extra bits all lie in the cut,
    # then raises EOFError.
    rng = np.random.default_rng(0)
    diffs = rng.integers(-300, 300, size=40).tolist()
    extra, size = magnitude_bits(diffs)
    t = build_optimal_table(np.bincount(size, minlength=256))
    book_words, book_nbits = t.book()
    words, nbits = book_words[size] | extra, book_nbits[size]
    ends = np.cumsum(nbits).tolist()
    data = pack_scan(words, nbits)
    assert b"\xff" not in data  # so byte count = bit count / 8
    for n in range(len(data) + 1):
        out = np.zeros(64 * len(diffs), dtype=np.int32)
        complete = sum(e <= 8 * n for e in ends)
        if complete < len(diffs):
            with pytest.raises(EOFError):
                _interleaved_scan(data[:n], len(diffs), 0, [t], [None], [memoryview(out)])
        else:
            _interleaved_scan(data[:n], len(diffs), 0, [t], [None], [memoryview(out)])
        assert out[::64].tolist() == (np.cumsum(diffs[:complete]).tolist()
                                      + [0] * (len(diffs) - complete))


def test_decode_tables_are_built_on_first_use():
    # A DC-only scan decodes with its DC tables alone: the AC table its
    # SOS names builds neither ``fast`` nor the ``slow`` bounds.
    diffs = [5, -3, 0, 7, -100]
    extra, size = magnitude_bits(diffs)
    dc = build_optimal_table(np.bincount(size, minlength=256))
    ac = build_optimal_table(_deep_freqs())
    words, nbits = dc.book()
    out = np.zeros(64 * len(diffs), dtype=np.int32)
    data = pack_scan(words[size] | extra, nbits[size])
    _interleaved_scan(data, len(diffs), 0, [dc], [ac], [memoryview(out)])
    assert out[::64].tolist() == np.cumsum(diffs).tolist()
    assert "fast" in vars(dc) and not {"fast", "_bounds"} & vars(ac).keys()


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 32)),
                min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_bit_roundtrip_hypothesis(items):
    # pack_scan (stuffing) -> segment_words (unstuffing) gives back the bits.
    items = [(v & ((1 << k) - 1), k) for v, k in items]
    bits, n = 0, 0
    for v, k in items:
        bits, n = bits << k | v, n + k
    words, n_bits = segment_words(pack_scan(*np.array(items, dtype=np.int64).T))
    assert n_bits == -(-n // 8) * 8
    assert _bits_of(words) >> (32 * len(words) - n) == bits


@given(st.lists(st.integers(-2047, 2047), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_magnitude_roundtrip(v):
    bits, size = magnitude_bits(v)
    assert [extend(b, s) for b, s in zip(bits.tolist(), size.tolist())] == v
    assert size.tolist() == [abs(x).bit_length() for x in v]
    assert np.array_equal(size, magnitude_category(v))


def test_magnitude_categories():
    assert magnitude_category(0) == 0
    assert magnitude_category(1) == magnitude_category(-1) == 1
    assert magnitude_category(255) == 8
    assert magnitude_category(-1024) == 11


def _table_inputs():
    """Frequency vectors for the table builder: sparse and dense random
    counts drawn from a few values (many ties), single symbols, and
    exponential (``_deep_freqs``-style) counts that need the >16-bit fold."""
    return st.one_of(
        st.lists(st.tuples(st.integers(0, 255), st.integers(1, 5)), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(0, 255), st.integers(1, 10**6)), min_size=1, max_size=256),
        st.tuples(st.integers(0, 255), st.integers(1, 10**9)).map(lambda x: [x]),
        st.tuples(st.integers(17, 60), st.integers(0, 215), st.booleans()).map(
            lambda x: [(x[1] + i, 2 ** min(i, 30) if x[2] else 3 ** min(i, 19))
                       for i in range(min(x[0], 256 - x[1]))]
        ),
    )


@given(_table_inputs())
@settings(max_examples=300, deadline=None)
def test_optimal_table_matches_reference(pairs):
    freqs = np.zeros(256, dtype=np.int64)
    for s, f in pairs:
        freqs[s] = f
    got, want = build_optimal_table(freqs), _reference_optimal_table(freqs)
    assert got.bits == [int(b) for b in want.bits]
    assert got.values == want.values


def test_optimal_table_matches_reference_on_deep_freqs():
    t = build_optimal_table(_deep_freqs())
    assert max(l for _, _, l in t.codes()) == MAX_CODE_LEN  # the fold ran
    ref = _reference_optimal_table(_deep_freqs())
    assert (t.bits, t.values) == ([int(b) for b in ref.bits], ref.values)
