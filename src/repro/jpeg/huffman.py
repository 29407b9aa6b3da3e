"""JPEG Huffman coding: canonical tables, optimal table generation, bit I/O.

Tables are canonical per ITU-T T.81 Annex C: ``bits[1..16]`` counts of
codes per length plus ``values`` in code order. ``build_optimal_table``
is the libjpeg ``jpeg_gen_optimal_table`` algorithm (including the
reserved symbol that guarantees no code is all ones, and the >16-bit
length adjustment), which libjpeg forces on for progressive scans — we
use it for every scan so baseline/progressive sizes are comparable.

Bit I/O implements the entropy-coded segment rules: MSB-first bits,
0xFF byte stuffing on write, 1-padding at flush, unstuffing on read.

Decoding uses ``Lookahead`` tables (the libjpeg ``jdhuff.c`` fast path,
T.81 Annex F): one list lookup on the next ``LOOKAHEAD_BITS`` bits
yields a whole symbol together with its extra bits, so the decoder's
scan loops spend one lookup per coefficient.
"""
import struct
from dataclasses import dataclass, field

import numpy as np

MAX_CODE_LEN = 16
LOOKAHEAD_BITS = 10


@dataclass
class HuffmanTable:
    """A canonical JPEG Huffman table.

    ``bits[i]`` is the number of codes of length ``i+1`` (i in 0..15);
    ``values`` are the symbols in canonical order.
    """

    bits: list[int]
    values: list[int]
    _enc: dict[int, tuple[int, int]] = field(default=None, repr=False, compare=False)
    _look: "Lookahead" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        assert len(self.bits) == MAX_CODE_LEN
        assert sum(self.bits) == len(self.values)

    def codes(self) -> list[tuple[int, int, int]]:
        """List of (symbol, code, length) in canonical order."""
        out = []
        code = 0
        k = 0
        for length in range(1, MAX_CODE_LEN + 1):
            for _ in range(self.bits[length - 1]):
                out.append((self.values[k], code, length))
                code += 1
                k += 1
            code <<= 1
        return out

    @property
    def encoder(self) -> dict[int, tuple[int, int]]:
        """symbol -> (code, length)."""
        if self._enc is None:
            self._enc = {s: (c, l) for s, c, l in self.codes()}
        return self._enc

    @property
    def lookahead(self) -> "Lookahead":
        """Decode table, built on first use."""
        if self._look is None:
            self._look = Lookahead(self)
        return self._look


def build_optimal_table(freqs: np.ndarray) -> HuffmanTable:
    """Build an optimal length-limited table from symbol frequencies.

    ``freqs`` has 256 entries. Implements libjpeg's jpeg_gen_optimal_table:
    a 257th reserved symbol with frequency 1 guarantees that no real
    symbol is assigned the all-ones code, then code lengths longer than
    16 are folded down per the Annex K.2 adjustment.
    """
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


class BitWriter:
    """MSB-first bit writer with JPEG 0xFF byte stuffing."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits == 0:
            return
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self._buf.append(byte)
            if byte == 0xFF:
                self._buf.append(0x00)
        self._acc &= (1 << self._nbits) - 1

    def write_code(self, table: HuffmanTable, symbol: int) -> None:
        code, length = table.encoder[symbol]
        self.write(code, length)

    def getvalue(self) -> bytes:
        """Flush (pad last byte with 1s) and return the stuffed stream."""
        if self._nbits:
            pad = 8 - self._nbits
            self.write((1 << pad) - 1, pad)
        return bytes(self._buf)


def magnitude_category(v: int) -> int:
    """JPEG magnitude category (number of extra bits) for a DC diff / AC coef."""
    return int(abs(v)).bit_length()


def magnitude_bits(v: int) -> tuple[int, int]:
    """(extra_bits_value, category) encoding of a signed value."""
    s = magnitude_category(v)
    if v >= 0:
        return v, s
    return v + (1 << s) - 1, s


def extend(bits_value: int, size: int) -> int:
    """Inverse of ``magnitude_bits``: sign-extend a received value."""
    if size == 0:
        return 0
    if bits_value < (1 << (size - 1)):
        return bits_value - (1 << size) + 1
    return bits_value


_EXTENDED = [tuple(extend(x, s) for x in range(1 << s)) for s in range(LOOKAHEAD_BITS + 1)]


def _extra_bits(symbol: int) -> int:
    """Number of bits that follow ``symbol``'s code in the stream.

    A magnitude of size ``s`` for run/size symbols; ``r`` bits of run
    length for an EOBr symbol (``r << 4``, r < 15); none for ZRL. A DC
    symbol is its magnitude category, i.e. run 0 and size ``s``.
    """
    run, size = symbol >> 4, symbol & 0xF
    return size or (run if run != 15 else 0)


def _entry(length: int, symbol: int, extra: int) -> tuple[int, int, int]:
    """``(bits consumed, run, value)`` for ``symbol`` coded in ``length``
    bits and followed by its extra bits ``extra``."""
    run, size = symbol >> 4, symbol & 0xF
    if size:
        return length + size, run, extend(extra, size)
    if run == 15:  # ZRL: sixteen zeros
        return length, 15, 0
    return length + run, -((1 << run) + extra), 0  # end of band


class Lookahead:
    """One-lookup decode table for a ``HuffmanTable``.

    ``fast[w]``, for ``w`` the next ``LOOKAHEAD_BITS`` bits of the stream,
    is ``(bits consumed, run, value)`` for the symbol that starts ``w``
    together with its extra bits, whenever both fit in ``w``:

    * ``value != 0``: a coefficient after ``run`` zeros (AC), or a DC
      difference;
    * ``value == 0, run == 15``: ZRL, sixteen zeros;
    * ``value == 0, run < 0``: end of band for ``-run`` blocks (1 for
      EOB, ``2**r + bits`` for EOBr). A DC category-0 symbol reads as
      this form too, i.e. as a zero difference.

    Otherwise ``value`` is None and ``slow`` decodes the symbol from a
    32-bit window: the entry is ``(code length, symbol, None)`` when the
    code fits but its extra bits do not, and ``(0, 0, None)`` when the
    code is longer than ``LOOKAHEAD_BITS`` (libjpeg's ``maxcode`` search).
    """

    __slots__ = ("fast", "_maxcode", "_valoff", "_values")

    def __init__(self, table: HuffmanTable):
        k = LOOKAHEAD_BITS
        fast = [(0, 0, None)] * (1 << k)
        for symbol, code, length in table.codes():
            if length > k:
                break
            lo, hi = code << (k - length), (code + 1) << (k - length)
            used = length + _extra_bits(symbol)
            if used > k:
                fast[lo:hi] = [(length, symbol, None)] * (hi - lo)
                continue
            # The same entries as _entry(length, symbol, x) for every x.
            run, size = symbol >> 4, symbol & 0xF
            if size:
                entries = [(used, run, v) for v in _EXTENDED[size]]
            elif run == 15:
                entries = [(used, 15, 0)]
            else:
                entries = [(used, -n, 0) for n in range(1 << run, 2 << run)]
            rep = 1 << (k - used)
            if rep < len(entries):
                for j in range(rep):
                    fast[lo + j : hi : rep] = entries
            else:
                for i, e in enumerate(entries):
                    fast[lo + i * rep : lo + (i + 1) * rep] = [e] * rep
        self.fast = fast
        self._maxcode = [-1] * (MAX_CODE_LEN + 1)
        self._valoff = [0] * (MAX_CODE_LEN + 1)
        self._values = table.values
        code = first = 0
        for length in range(1, MAX_CODE_LEN + 1):
            count = table.bits[length - 1]
            if count:
                self._valoff[length] = first - code
                self._maxcode[length] = code + count - 1
            code = (code + count) << 1
            first += count

    def slow(self, window: int) -> tuple[int, int, int]:
        """Decode the symbol that starts the 32-bit ``window``.

        Raises EOFError when no code matches, as happens when the window
        runs into the 1-bits padding a truncated stream.
        """
        length, symbol, _ = self.fast[window >> (32 - LOOKAHEAD_BITS)]
        if not length:
            for length in range(LOOKAHEAD_BITS + 1, MAX_CODE_LEN + 1):
                code = window >> (32 - length)
                if code <= self._maxcode[length]:
                    symbol = self._values[code + self._valoff[length]]
                    break
            else:
                raise EOFError("invalid or truncated Huffman code")
        n = _extra_bits(symbol)
        return _entry(length, symbol, (window >> (32 - length - n)) & ((1 << n) - 1))


def segment_words(data: bytes) -> tuple[tuple[int, ...], int]:
    """Unstuff an entropy-coded segment into big-endian 32-bit words.

    Returns ``(words, n_bits)``: the segment's bits, MSB first, followed
    by at least 72 1-bits (the encoder's flush padding, so lookups may
    read past the end), and the number of real bits.
    """
    raw = data.replace(b"\xff\x00", b"\xff")
    n = len(raw) // 4 + 3
    return struct.unpack(f">{n}I", raw + b"\xff" * (4 * n - len(raw))), 8 * len(raw)
