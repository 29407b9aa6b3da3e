"""Unified JPEG decoder for our baseline (SOF0) and progressive (SOF2) files.

Decodes marker segments; the SOF segment gives an all-zero
``CoeffImage`` and each scan is entropy-decoded into its components'
coefficient arrays in place. The frame must be 3-component 4:4:4 of at
most ``MAX_PIXELS`` pixels, a bound checked before any coefficient array
is allocated; any other frame raises ``ValueError``. Truncated streams — the PCR case,
where only a prefix of the scans is present followed by EOI — decode
cleanly: missing scans simply leave their coefficient bands at zero,
and a scan cut mid-stream keeps whatever blocks completed (matching
"most JPEG decoders render the image with the available subset of
scans", paper Section 5). A run of zeros that reaches past the scan's
band end ``Se`` raises ``ValueError`` before its coefficient is stored.

There are two scan loops. ``_interleaved_scan`` decodes the scans with
``Ss = 0``: per block and component a DC difference, then AC ``1..Se``.
That is the whole baseline scan (``Se = 63``) and the progressive
DC-first scan (``Se = 0``). ``_ac_band_scan`` decodes a progressive AC
band of one component, whose end-of-band runs skip whole blocks. It
stays a separate loop: folding it into the interleaved one puts the
band's start and the EOB-run bookkeeping into the per-block path, and a
prototype of that merge decoded 1.08-1.28x slower (scan 1 worst).

Each scan loop keeps its bit buffer in local variables: ``acc`` holds
``nb`` unread bits, at least 32 between symbols (a code plus its extra
bits is at most 31), refilled a 32-bit word at a time from
``huffman.segment_words``. One lookup in the table's ``fast`` list on
the next ``LOOKAHEAD_BITS`` bits decodes a symbol with its extra bits.
A symbol whose bits run past the segment's real bits raises EOFError
before its value is stored: with ``wi`` words loaded, that is ``nb``
falling below ``eof_nb = 32 * wi - n_bits``. Values are stored at flat
index ``block * 64 + k`` through a memoryview of the component's
``int32`` array, which avoids a numpy scalar assignment per coefficient.
"""
import struct

import numpy as np

from . import markers
from .codec import UNZIGZAG, CoeffImage, Component, inverse
from .huffman import LOOKAHEAD_BITS, HuffmanTable, segment_words

_K = LOOKAHEAD_BITS
_KMASK = (1 << _K) - 1
_M32 = 0xFFFFFFFF

# Largest frame decoded, as Pillow's decompression-bomb limit: its three
# coefficient arrays take about 50 MB.
MAX_PIXELS = 1 << 22


def _parse_dqt(payload: bytes, qtables: dict[int, np.ndarray]) -> None:
    i = 0
    while i < len(payload):
        pq, tq = payload[i] >> 4, payload[i] & 0xF
        if pq != 0:
            raise ValueError("only 8-bit quant tables supported")
        if len(payload) < i + 65:
            raise ValueError("DQT segment too short")
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


def _frame(payload: bytes) -> CoeffImage:
    """The all-zero ``CoeffImage`` a SOF segment describes; its scans fill
    it in place and ``decode_to_coeffs`` adds the quant tables."""
    if len(payload) < 6:
        raise ValueError("SOF segment too short")
    prec, height, width, nf = struct.unpack(">BHHB", payload[:6])
    if prec != 8:
        raise ValueError(f"only 8-bit samples supported, got {prec}")
    if len(payload) != 6 + 3 * nf:
        raise ValueError(f"SOF segment length does not match its {nf} components")
    if nf != 3:
        raise ValueError(f"only 3-component frames supported, got {nf}")
    if height * width > MAX_PIXELS:
        raise ValueError(f"frame of {height}x{width} pixels exceeds MAX_PIXELS = {MAX_PIXELS}")
    n_blocks = -(-height // 8) * -(-width // 8)
    comps = []
    for c in range(nf):
        cid, hv, tq = payload[6 + 3 * c : 9 + 3 * c]
        if hv != 0x11:
            raise ValueError("only 4:4:4 (1x1 sampling) supported")
        comps.append(Component(cid, tq, np.zeros((n_blocks, 64), np.int32)))
    if len({comp.comp_id for comp in comps}) != nf:
        raise ValueError("SOF repeats a component id")
    return CoeffImage(height, width, comps, [])


def _interleaved_scan(entropy: bytes, n_blocks: int, se: int,
                      dc_tabs: list[HuffmanTable], ac_tabs: list[HuffmanTable],
                      outs: list[memoryview]) -> None:
    """Interleaved scan over the scan's components: per block and
    component the DC difference, then AC ``1..se`` (``se = 63`` for
    baseline, ``se = 0`` for the progressive DC-first scan)."""
    words, n_bits = segment_words(entropy)
    acc, nb, wi = words[0] << 32 | words[1], 64, 2
    eof_nb = 64 - n_bits
    refill_at = eof_nb if eof_nb > 32 else 32
    # A DC-only scan never reads the AC table its SOS names.
    comps = [
        (d.fast, d.slow, a.fast if se else None, a.slow if se else None, o)
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
            while k <= se:
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
                    if k > se:
                        raise ValueError(f"AC run reaches coefficient {k}, past Se = {se}")
                    out[base + k] = v
                    k += 1
                elif r > 0:
                    k += 16
                else:
                    break  # EOB


def _ac_band_scan(entropy: bytes, n_blocks: int, ss: int, se: int,
                  tab: HuffmanTable, out: memoryview) -> None:
    """Progressive first-pass AC scan of band ``ss..se`` of one component
    (G.1.2.2, with EOB runs)."""
    words, n_bits = segment_words(entropy)
    acc, nb, wi = words[0] << 32 | words[1], 64, 2
    eof_nb = 64 - n_bits
    refill_at = eof_nb if eof_nb > 32 else 32
    fast, slow = tab.fast, tab.slow
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
                if k > se:
                    raise ValueError(f"AC run reaches coefficient {k}, past Se = {se}")
                out[base + k] = v
                k += 1
            elif r > 0:
                k += 16
            else:
                b -= r + 1  # this block and -r - 1 more end here
                break


def _table(htables: dict[tuple[int, int], HuffmanTable], tc: int,
           th: int) -> HuffmanTable:
    if (tc, th) not in htables:
        raise ValueError(f"scan uses undefined {('DC', 'AC')[tc]} Huffman table {th}")
    return htables[(tc, th)]


def _decode_scan(ci: CoeffImage, payload: bytes, entropy: bytes,
                 htables: dict[tuple[int, int], HuffmanTable]) -> None:
    ns = payload[0] if payload else 0
    if ns == 0 or len(payload) != 4 + 2 * ns:
        raise ValueError("SOS segment length does not match its components")
    ss, se, _ = payload[1 + 2 * ns : 4 + 2 * ns]
    if ss != 0 and ns != 1:
        raise ValueError("progressive AC scans are single-component")
    if not ss <= se <= 63:
        raise ValueError(f"scan band Ss={ss}, Se={se} is not 0 <= Ss <= Se <= 63")
    by_id = {comp.comp_id: comp for comp in ci.components}
    outs, dc_tabs, ac_tabs = [], [], []
    for j in range(ns):
        cid, tda = payload[1 + 2 * j : 3 + 2 * j]
        if cid not in by_id:
            raise ValueError(f"scan names component {cid}, which the frame lacks")
        outs.append(memoryview(by_id[cid].coeffs.reshape(-1)))
        # Only the tables the scan decodes with must exist: a DC-only
        # scan (Se = 0) may name an undefined AC table.
        dc_tabs.append(_table(htables, 0, tda >> 4) if ss == 0 else None)
        ac_tabs.append(_table(htables, 1, tda & 0xF) if se else None)
    n_blocks = len(ci.components[0].coeffs)
    try:
        if ss == 0:
            _interleaved_scan(entropy, n_blocks, se, dc_tabs, ac_tabs, outs)
        else:
            _ac_band_scan(entropy, n_blocks, ss, se, ac_tabs[0], outs[0])
    except EOFError:
        pass  # truncated final scan: keep what decoded so far


def decode_to_coeffs(data: bytes) -> CoeffImage:
    """Entropy-decode a JPEG byte stream to a quantized coefficient image."""
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], HuffmanTable] = {}
    ci: CoeffImage | None = None
    for seg in markers.parse(data):
        if seg.marker == markers.DQT:
            _parse_dqt(seg.payload, qtables)
        elif seg.marker == markers.DHT:
            _parse_dht(seg.payload, htables)
        elif seg.marker in (markers.SOF0, markers.SOF2):
            ci = _frame(seg.payload)
        elif seg.marker == markers.SOS:
            if ci is None:
                raise ValueError("SOS before SOF")
            _decode_scan(ci, seg.payload, seg.entropy, htables)
    if ci is None:
        raise ValueError("no frame found")
    for i in range(max(comp.qtab_id for comp in ci.components) + 1):
        if i not in qtables:
            raise ValueError(f"frame needs undefined quant table {i}")
        ci.qtables.append(qtables[i])
    return ci


def decode(data: bytes) -> np.ndarray:
    """Decode a JPEG byte stream (possibly a truncated prefix) to pixels."""
    return inverse(decode_to_coeffs(data))
