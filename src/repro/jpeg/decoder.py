"""Unified JPEG decoder for our baseline (SOF0) and progressive (SOF2) files.

Decodes marker segments, then entropy-decodes each scan into shared
per-component coefficient arrays. Truncated streams — the PCR case,
where only a prefix of the scans is present followed by EOI — decode
cleanly: missing scans simply leave their coefficient bands at zero,
and a scan cut mid-stream keeps whatever blocks completed (matching
"most JPEG decoders render the image with the available subset of
scans", paper Section 5).

Each scan loop keeps its bit buffer in local variables: ``acc`` holds
``nb`` unread bits, at least 32 between symbols (a code plus its extra
bits is at most 31), refilled a 32-bit word at a time from
``huffman.segment_words``. One ``Lookahead`` lookup on the next
``LOOKAHEAD_BITS`` bits decodes a symbol with its extra bits.
A symbol whose bits run past the segment's real bits raises EOFError
before its value is stored: with ``wi`` words loaded, that is ``nb``
falling below ``eof_nb = 32 * wi - n_bits``. Values are stored at flat
index ``block * 64 + k`` through a memoryview of the component's
``int32`` array, which avoids a numpy scalar assignment per coefficient.
"""
import struct

import numpy as np

from . import markers
from .codec import CoeffImage, Component, inverse
from .huffman import LOOKAHEAD_BITS, HuffmanTable, segment_words
from .quant import UNZIGZAG

_K = LOOKAHEAD_BITS
_KMASK = (1 << _K) - 1
_M32 = 0xFFFFFFFF


def _parse_dqt(payload: bytes, qtables: dict[int, np.ndarray]) -> None:
    i = 0
    while i < len(payload):
        pq, tq = payload[i] >> 4, payload[i] & 0xF
        assert pq == 0, "only 8-bit quant tables supported"
        zz = np.frombuffer(payload[i + 1 : i + 65], dtype=np.uint8).astype(np.int32)
        qtables[tq] = zz[UNZIGZAG].reshape(8, 8)
        i += 65


def _parse_dht(payload: bytes, tables: dict[tuple[int, int], HuffmanTable]) -> None:
    i = 0
    while i < len(payload):
        tc, th = payload[i] >> 4, payload[i] & 0xF
        bits = list(payload[i + 1 : i + 17])
        n = sum(bits)
        values = list(payload[i + 17 : i + 17 + n])
        tables[(tc, th)] = HuffmanTable(bits=bits, values=values)
        i += 17 + n


class _Frame:
    def __init__(self, payload: bytes, progressive: bool):
        self.progressive = progressive
        prec, self.height, self.width, nf = struct.unpack(">BHHB", payload[:6])
        assert prec == 8
        self.comp_ids: list[int] = []
        self.qtab_ids: list[int] = []
        for c in range(nf):
            cid, hv, tq = payload[6 + 3 * c : 9 + 3 * c]
            assert hv == 0x11, "only 4:4:4 (1x1 sampling) supported"
            self.comp_ids.append(cid)
            self.qtab_ids.append(tq)
        self.nby = -(-self.height // 8)
        self.nbx = -(-self.width // 8)
        self.n_blocks = self.nby * self.nbx
        self.coeffs = [
            np.zeros((self.n_blocks, 64), dtype=np.int32) for _ in range(nf)
        ]
        self.flat = [memoryview(a.reshape(-1)) for a in self.coeffs]


def _dc_scan(entropy: bytes, n_blocks: int, tabs: list[HuffmanTable],
             outs: list[memoryview]) -> None:
    """DC-first scan, interleaved over the scan's components."""
    words, n_bits = segment_words(entropy)
    acc, nb, wi = words[0] << 32 | words[1], 64, 2
    eof_nb = 64 - n_bits
    refill_at = eof_nb if eof_nb > 32 else 32
    comps = [(t.lookahead.fast, t.lookahead.slow, o) for t, o in zip(tabs, outs)]
    preds = [0] * len(comps)
    for base in range(0, n_blocks << 6, 64):
        for j, (fast, slow, out) in enumerate(comps):
            n, _, v = fast[acc >> (nb - _K) & _KMASK]
            if v is None:
                n, _, v = slow(acc >> (nb - 32) & _M32)
            nb -= n
            if nb < refill_at:
                if nb < eof_nb:
                    raise EOFError("entropy segment exhausted")
                acc = (acc & ((1 << nb) - 1)) << 32 | words[wi]
                wi += 1
                nb += 32
                eof_nb += 32
                refill_at = eof_nb if eof_nb > 32 else 32
            preds[j] += v
            out[base] = preds[j]


def _ac_band_scan(entropy: bytes, n_blocks: int, ss: int, se: int,
                  tab: HuffmanTable, out: memoryview) -> None:
    """Progressive first-pass AC scan of band ``ss..se`` of one component
    (G.1.2.2, with EOB runs)."""
    words, n_bits = segment_words(entropy)
    acc, nb, wi = words[0] << 32 | words[1], 64, 2
    eof_nb = 64 - n_bits
    refill_at = eof_nb if eof_nb > 32 else 32
    fast, slow = tab.lookahead.fast, tab.lookahead.slow
    b = 0
    while b < n_blocks:
        base = b << 6
        b += 1
        k = ss
        while k <= se:
            n, r, v = fast[acc >> (nb - _K) & _KMASK]
            if v is None:
                n, r, v = slow(acc >> (nb - 32) & _M32)
            nb -= n
            if nb < refill_at:
                if nb < eof_nb:
                    raise EOFError("entropy segment exhausted")
                acc = (acc & ((1 << nb) - 1)) << 32 | words[wi]
                wi += 1
                nb += 32
                eof_nb += 32
                refill_at = eof_nb if eof_nb > 32 else 32
            if v:
                k += r
                out[base + k] = v
                k += 1
            elif r > 0:
                k += 16
            else:
                b -= r + 1  # this block and -r - 1 more end here
                break


def _baseline_scan(entropy: bytes, n_blocks: int, dc_tabs: list[HuffmanTable],
                   ac_tabs: list[HuffmanTable], outs: list[memoryview]) -> None:
    """Baseline interleaved scan: DC and AC of every block, per component."""
    words, n_bits = segment_words(entropy)
    acc, nb, wi = words[0] << 32 | words[1], 64, 2
    eof_nb = 64 - n_bits
    refill_at = eof_nb if eof_nb > 32 else 32
    comps = [
        (d.lookahead.fast, d.lookahead.slow, a.lookahead.fast, a.lookahead.slow, o)
        for d, a, o in zip(dc_tabs, ac_tabs, outs)
    ]
    preds = [0] * len(comps)
    for base in range(0, n_blocks << 6, 64):
        for j, (dfast, dslow, afast, aslow, out) in enumerate(comps):
            n, _, v = dfast[acc >> (nb - _K) & _KMASK]
            if v is None:
                n, _, v = dslow(acc >> (nb - 32) & _M32)
            nb -= n
            if nb < refill_at:
                if nb < eof_nb:
                    raise EOFError("entropy segment exhausted")
                acc = (acc & ((1 << nb) - 1)) << 32 | words[wi]
                wi += 1
                nb += 32
                eof_nb += 32
                refill_at = eof_nb if eof_nb > 32 else 32
            preds[j] += v
            out[base] = preds[j]
            k = 1
            while k < 64:
                n, r, v = afast[acc >> (nb - _K) & _KMASK]
                if v is None:
                    n, r, v = aslow(acc >> (nb - 32) & _M32)
                nb -= n
                if nb < refill_at:
                    if nb < eof_nb:
                        raise EOFError("entropy segment exhausted")
                    acc = (acc & ((1 << nb) - 1)) << 32 | words[wi]
                    wi += 1
                    nb += 32
                    eof_nb += 32
                    refill_at = eof_nb if eof_nb > 32 else 32
                if v:
                    k += r
                    out[base + k] = v
                    k += 1
                elif r > 0:
                    k += 16
                else:
                    break  # EOB


def _decode_scan(frame: _Frame, payload: bytes, entropy: bytes,
                 htables: dict[tuple[int, int], HuffmanTable]) -> None:
    ns = payload[0]
    outs, dc_tabs, ac_tabs = [], [], []
    for j in range(ns):
        cid, tda = payload[1 + 2 * j : 3 + 2 * j]
        outs.append(frame.flat[frame.comp_ids.index(cid)])
        dc_tabs.append(htables.get((0, tda >> 4)))
        ac_tabs.append(htables.get((1, tda & 0xF)))
    ss, se, _ = payload[1 + 2 * ns : 4 + 2 * ns]
    try:
        if ss == 0 and se == 63 and not frame.progressive:
            _baseline_scan(entropy, frame.n_blocks, dc_tabs, ac_tabs, outs)
        elif ss == 0 and se == 0:
            _dc_scan(entropy, frame.n_blocks, dc_tabs, outs)
        else:
            assert ns == 1, "progressive AC scans are single-component"
            _ac_band_scan(entropy, frame.n_blocks, ss, se, ac_tabs[0], outs[0])
    except EOFError:
        pass  # truncated final scan: keep what decoded so far


def decode_to_coeffs(data: bytes) -> CoeffImage:
    """Entropy-decode a JPEG byte stream to a quantized coefficient image."""
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], HuffmanTable] = {}
    frame: _Frame | None = None
    for seg in markers.parse(data):
        if seg.marker == markers.DQT:
            _parse_dqt(seg.payload, qtables)
        elif seg.marker == markers.DHT:
            _parse_dht(seg.payload, htables)
        elif seg.marker in (markers.SOF0, markers.SOF2):
            frame = _Frame(seg.payload, progressive=seg.marker == markers.SOF2)
        elif seg.marker == markers.SOS:
            assert frame is not None, "SOS before SOF"
            _decode_scan(frame, seg.payload, seg.entropy, htables)
    assert frame is not None, "no frame found"
    comps = [
        Component(frame.comp_ids[c], frame.qtab_ids[c], frame.coeffs[c],
                  frame.nby, frame.nbx)
        for c in range(len(frame.coeffs))
    ]
    n_qt = max(frame.qtab_ids) + 1
    return CoeffImage(
        frame.height, frame.width, comps, [qtables[i] for i in range(n_qt)]
    )


def decode(data: bytes) -> np.ndarray:
    """Decode a JPEG byte stream (possibly a truncated prefix) to pixels."""
    return inverse(decode_to_coeffs(data))
