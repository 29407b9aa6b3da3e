"""JPEG Huffman coding: canonical tables, optimal table generation,
scan packing and unpacking.

Tables are canonical per ITU-T T.81 Annex C: ``bits[1..16]`` counts of
codes per length plus ``values`` in code order. ``build_optimal_table``
is the libjpeg ``jpeg_gen_optimal_table`` algorithm (including the
reserved symbol that guarantees no code is all ones, and the >16-bit
length adjustment), which libjpeg forces on for progressive scans — we
use it for every scan so baseline/progressive sizes are comparable.

Encoding works on whole arrays of symbols: a scan's code words are
``words[sym] | extra`` from ``HuffmanTable.book`` (at most 32 bits), and
``pack_scan`` concatenates them MSB first, pads the last byte with
1-bits and 0xFF-stuffs the result once, as libjpeg's ``jchuff.c``
``emit_bits`` does a word at a time.

Decoding uses ``HuffmanTable.fast`` (the libjpeg ``jdhuff.c`` fast path,
T.81 Annex F): one list lookup on the next ``LOOKAHEAD_BITS`` bits
yields a whole symbol together with its extra bits, so the decoder's
scan loops spend one lookup per coefficient (``slow`` for the rest).
``segment_words`` unstuffs a segment into 32-bit words for them.
"""
import functools
import heapq
import struct
from dataclasses import dataclass

import numpy as np

MAX_CODE_LEN = 16
LOOKAHEAD_BITS = 10


@dataclass
class HuffmanTable:
    """A canonical JPEG Huffman table, for both coders.

    ``bits[i]`` is the number of codes of length ``i+1`` (i in 0..15);
    ``values`` are the symbols in canonical order. The encoder's ``book``
    and the decoder's tables all come from the one walk ``codes``; the
    decoder's are built on first use, as a progressive header carries
    every table but a scan-1 read decodes with the DC tables only.
    """

    bits: list[int]
    values: list[int]

    def __post_init__(self):
        if len(self.bits) != MAX_CODE_LEN or sum(self.bits) != len(self.values):
            raise ValueError(
                f"Huffman table counts {self.bits} do not match "
                f"{len(self.values)} symbols"
            )

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

    def book(self) -> tuple[np.ndarray, np.ndarray]:
        """Code words of symbols 0..255, each shifted left past its extra
        bits: ``(code << n, length + n)`` with ``n`` the symbol's extra bit
        count (``EXTRA_BITS``), zero for symbols the table lacks. A symbol
        followed by extra bits ``x`` is the word ``words[symbol] | x``."""
        sym, code, length = np.array(self.codes(), np.int64).reshape(-1, 3).T
        n = EXTRA_BITS[sym]
        words, nbits = np.zeros((2, 256), np.int64)
        words[sym], nbits[sym] = code << n, length + n
        return words, nbits

    @functools.cached_property
    def fast(self) -> list[tuple[int, int, int | None]]:
        """One-lookup decode table.

        ``fast[w]``, for ``w`` the next ``LOOKAHEAD_BITS`` bits of the
        stream, is ``(bits consumed, run, value)`` for the symbol that
        starts ``w`` together with its extra bits, whenever both fit in
        ``w``:

        * ``value != 0``: a coefficient after ``run`` zeros (AC), or a DC
          difference;
        * ``value == 0, run == 15``: ZRL, sixteen zeros;
        * ``value == 0, run < 0``: end of band for ``-run`` blocks (1 for
          EOB, ``2**r + bits`` for EOBr). A DC category-0 symbol reads as
          this form too, i.e. as a zero difference.

        Otherwise ``value`` is None and ``slow`` decodes the symbol from a
        32-bit window: the entry is ``(code length, symbol, None)`` when
        the code fits but its extra bits do not, and ``(0, 0, None)`` when
        the code is longer than ``LOOKAHEAD_BITS``.
        """
        # Codes of up to LOOKAHEAD_BITS bits tile the table in code order,
        # each over its own piece of it.
        fast = []
        for symbol, _, length in self.codes():
            if length > LOOKAHEAD_BITS:
                break
            fast += _piece(length, symbol)
        n = 1 << LOOKAHEAD_BITS
        # An over-subscribed table's pieces run past the end: no window
        # reaches them. Cut and padded in place, as a copy of the list
        # took a third of the build.
        del fast[n:]
        fast += [(0, 0, None)] * (n - len(fast))
        return fast

    @functools.cached_property
    def _bounds(self) -> tuple[list[int], list[int]]:
        """libjpeg's ``maxcode`` and ``valoff`` per code length: the last
        code of that length (-1 if none), and what turns a code of that
        length into its symbol's index in ``values``."""
        maxcode, valoff = [-1] * (MAX_CODE_LEN + 1), [0] * (MAX_CODE_LEN + 1)
        for k, (_, code, length) in enumerate(self.codes()):
            maxcode[length], valoff[length] = code, k - code
        return maxcode, valoff

    def slow(self, window: int) -> tuple[int, int, int]:
        """Decode the symbol that starts the 32-bit ``window``; codes
        longer than ``LOOKAHEAD_BITS`` by libjpeg's ``maxcode`` search.

        Raises EOFError when no code matches, as happens when the window
        runs into the 1-bits padding a truncated stream.
        """
        length, symbol, _ = self.fast[window >> (32 - LOOKAHEAD_BITS)]
        if not length:
            maxcode, valoff = self._bounds
            for length in range(LOOKAHEAD_BITS + 1, MAX_CODE_LEN + 1):
                code = window >> (32 - length)
                if code <= maxcode[length]:
                    symbol = self.values[code + valoff[length]]
                    break
            else:
                raise EOFError("invalid or truncated Huffman code")
        n = _extra_bits(symbol)
        return _entry(length, symbol, (window >> (32 - length - n)) & ((1 << n) - 1))


def build_optimal_table(freqs: np.ndarray) -> HuffmanTable:
    """Build an optimal length-limited table from symbol frequencies.

    ``freqs`` has 256 entries. Implements libjpeg's jpeg_gen_optimal_table:
    a 257th reserved symbol with frequency 1 guarantees that no real
    symbol is assigned the all-ones code, then code lengths longer than
    16 are folded down per the Annex K.2 adjustment.
    """
    codesize = [0] * 257
    others = [-1] * 257
    # libjpeg merges the two least frequent trees, and its ``<=`` scan
    # breaks a tie toward the larger symbol: the heap order of
    # (freq, -symbol).
    freqs = np.asarray(freqs)
    used = np.flatnonzero(freqs).tolist()
    heap = [(f, -i) for i, f in zip(used, freqs[used].tolist())] + [(1, -256)]
    heapq.heapify(heap)
    while len(heap) > 1:
        f1, c1 = heapq.heappop(heap)
        f2, c2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, c1))
        c1, c2 = -c1, -c2
        codesize[c1] += 1
        while others[c1] >= 0:
            c1 = others[c1]
            codesize[c1] += 1
        others[c1] = c2
        codesize[c2] += 1
        while others[c2] >= 0:
            c2 = others[c2]
            codesize[c2] += 1

    bits = [0] * (max(MAX_CODE_LEN, *codesize) + 1)
    for i in [*used, 256]:
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
    order = sorted(used, key=lambda i: (codesize[i], i))
    return HuffmanTable(bits=bits[1 : MAX_CODE_LEN + 1], values=order)


def magnitude_category(v) -> np.ndarray:
    """JPEG magnitude category (number of extra bits) of each DC diff /
    AC coefficient: the bit length of ``|v|``."""
    return np.frexp(np.abs(np.asarray(v, dtype=np.int64)))[1].astype(np.int64)


def magnitude_bits(v) -> tuple[np.ndarray, np.ndarray]:
    """(extra bits value, category) encoding of signed values: a negative
    ``v`` of category ``s`` is sent as ``v + 2**s - 1`` (T.81 F.1.2.1)."""
    v = np.asarray(v, dtype=np.int64)
    s = magnitude_category(v)
    return np.where(v < 0, v + (1 << s) - 1, v), s


def pack_scan(words: np.ndarray, nbits: np.ndarray) -> bytes:
    """One entropy-coded segment: the low ``nbits[i]`` (at most 32) bits
    of each ``words[i]`` MSB first, the last byte padded with 1-bits,
    then 0xFF byte-stuffed."""
    end = np.cumsum(nbits)
    pad = -int(end[-1]) % 8
    if pad:
        words = np.append(words, (1 << pad) - 1)
        nbits = np.append(nbits, pad)
        end = np.append(end, end[-1] + pad)
    # Each word goes to the 64-bit slot holding its last bit, shifted
    # left past the bits after it in that slot. Bits before the slot's
    # start spill into the low end of the previous slot.
    slot = (end - 1) >> 6
    shift = ((slot + 1) << 6) - end
    w = words.astype(np.uint64)
    # A word is at most 32 bits, so every slot holds the end of one.
    first = np.searchsorted(slot, np.arange(slot[-1] + 1))
    out = np.bitwise_or.reduceat(w << shift.astype(np.uint64), first)
    spill = nbits + shift > 64
    out[slot[spill] - 1] |= w[spill] >> (64 - shift[spill]).astype(np.uint64)
    return out.astype(">u8").tobytes()[: int(end[-1]) // 8].replace(b"\xff", b"\xff\x00")


def extend(bits_value: int, size: int) -> int:
    """Inverse of ``magnitude_bits``: sign-extend a received value."""
    if size == 0:
        return 0
    if bits_value < (1 << (size - 1)):
        return bits_value - (1 << size) + 1
    return bits_value


def _extra_bits(symbol: int) -> int:
    """Number of bits that follow ``symbol``'s code in the stream.

    A magnitude of size ``s`` for run/size symbols; ``r`` bits of run
    length for an EOBr symbol (``r << 4``, r < 15); none for ZRL. A DC
    symbol is its magnitude category, i.e. run 0 and size ``s``.
    """
    run, size = symbol >> 4, symbol & 0xF
    return size or (run if run != 15 else 0)


EXTRA_BITS = np.array([_extra_bits(s) for s in range(256)], dtype=np.int64)


def _entry(length: int, symbol: int, extra: int) -> tuple[int, int, int]:
    """``(bits consumed, run, value)`` for ``symbol`` coded in ``length``
    bits and followed by its extra bits ``extra``."""
    run, size = symbol >> 4, symbol & 0xF
    if size:
        return length + size, run, extend(extra, size)
    if run == 15:  # ZRL: sixteen zeros
        return length, 15, 0
    return length + run, -((1 << run) + extra), 0  # end of band


@functools.cache
def _piece(length: int, symbol: int) -> tuple[tuple[int, int, int], ...]:
    """The ``2**(LOOKAHEAD_BITS - length)`` entries of ``HuffmanTable.fast``
    for ``symbol`` coded in ``length`` bits, one per value of the bits
    that follow the code: ``_entry`` of its extra bits when they fit,
    else ``(length, symbol, None)``. Cached per pair, as every image
    carries its own tables but few distinct pairs occur."""
    rest = LOOKAHEAD_BITS - length
    n = _extra_bits(symbol)
    if n > rest:
        return ((length, symbol, None),) * (1 << rest)
    return tuple(e for x in range(1 << n)
                 for e in (_entry(length, symbol, x),) * (1 << (rest - n)))


def segment_words(data: bytes) -> tuple[tuple[int, ...], int]:
    """Unstuff an entropy-coded segment into big-endian 32-bit words.

    Returns ``(words, n_bits)``: the segment's bits, MSB first, followed
    by at least 72 1-bits (the encoder's flush padding, so lookups may
    read past the end), and the number of real bits.
    """
    raw = data.replace(b"\xff\x00", b"\xff")
    n = len(raw) // 4 + 3
    return struct.unpack(f">{n}I", raw + b"\xff" * (4 * n - len(raw))), 8 * len(raw)
