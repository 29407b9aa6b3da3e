"""JPEG encoder: baseline (SOF0) and progressive (SOF2) files from one
scan script.

A progressive file holds the baseline file's quantized coefficients,
re-sent under another scan script (T.81 Annex G), so one encoder writes
both. Each script row is ``(component index or None for an interleaved
scan, Ss, Se, AC table slot)``, as libjpeg's ``jpeg_scan_info``. The
baseline file is the one-row script ``SCRIPT_BASELINE``.

Every image is colour 4:4:4 (Y, Cb, Cr). The 10-scan progressive script
``SCRIPT_PROGRESSIVE`` mirrors libjpeg's default in structure (DC first,
early luma AC, full chroma early, then widening luma AC bands) but uses
spectral selection only — see DESIGN.md §3 for why this substitution
preserves everything the paper relies on. Scans with similar symbol
statistics share one of JPEG's four AC table slots: early luma, chroma,
mid luma, high luma.

Each scan's symbols are gathered one of two ways, as the decoder's two
scan loops read them. An interleaved scan (``Ss = 0``) sends per block
and component the DC difference, then AC ``1..Se`` and an end of band:
the whole baseline scan (``Se = 63``) and the progressive DC-first scan
(``Se = 0``). A single-component AC band sends its ends of band as EOBn
runs. Every symbol is gathered with numpy as a book index, ``256 *
table + symbol``, with its extra bits; one histogram of all indices
gives an optimal Huffman table per table in use (libjpeg's
``-optimize`` path), then each scan's code words are looked up in the
book of all tables and packed in one pass.

Only the SOF marker and the DHT grouping depend on the file kind. A
baseline file has one DHT per luma/chroma class, holding that class's
DC then AC table. A progressive file has one DHT holding every table,
ahead of the first SOS: this keeps per-scan overhead to the ~10-byte
SOS marker, so a PCR's scan groups carry almost pure entropy data and
the progressive file stays at or below the baseline file's size on
realistic images (the paper's "PCRs are usually 5% smaller than
TFRecords" property), and any byte prefix ending at a scan boundary is
self-contained, because every table lives in the always-read header.
"""
import struct

import numpy as np

from . import markers
from .codec import ZIGZAG, CoeffImage, Component, forward
from .huffman import build_optimal_table, magnitude_bits, magnitude_category, pack_scan

EOBRUN_MAX = 0x7FFF  # longest end-of-band run one EOBn symbol can send

Script = list[tuple[int | None, int, int, int | None]]

SCRIPT_BASELINE: Script = [(None, 0, 63, None)]

SCRIPT_PROGRESSIVE: Script = [
    (None, 0, 0, None),  # 1: DC, all components
    (0, 1, 5, 0),        # 2: Y AC 1-5
    (1, 1, 63, 1),       # 3: Cb AC (full)
    (2, 1, 63, 1),       # 4: Cr AC (full)
    (0, 6, 13, 0),       # 5: Y AC 6-13
    (0, 14, 21, 2),      # 6
    (0, 22, 30, 2),      # 7
    (0, 31, 40, 3),      # 8
    (0, 41, 51, 3),      # 9
    (0, 52, 63, 3),      # 10
]

N_SCANS = len(SCRIPT_PROGRESSIVE)

# A word's book index is 256 * table + symbol: tables 0-3 are JPEG's
# DC table slots, tables _AC + 0-3 its AC table slots.
_AC = 4
_N_TABLES = 2 * _AC


def ac_symbols(band: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run/size symbols of the nonzero coefficients of ``band``
    (n_blocks, width), in block order, each preceded by a ZRL (0xF0) for
    every 16 zeros of its run (F.1.2.2).

    Returns ``(sym, extra, n_sym, eob)``: the symbols, their extra bits,
    and per block the number of its symbols and whether an end of band
    follows them (its last nonzero coefficient, if any, is not the
    band's last; a zero-width band has none).
    """
    block, k = np.nonzero(band)
    extra, size = magnitude_bits(band[block, k])
    # change[i]: nonzero i - 1 and nonzero i (if both exist) are in different blocks
    change = np.ones(len(k) + 1, bool)
    np.not_equal(block[1:], block[:-1], out=change[1:-1])
    first, last = change[:-1], change[1:]
    run = k - np.where(first, 0, np.concatenate(([0], k[:-1] + 1)))
    eob = np.full(len(band), band.shape[1] > 0)
    eob[block[last]] = k[last] < band.shape[1] - 1
    sym = (run & 15) << 4 | size
    zrl = run >> 4
    if zrl.any():
        at = np.cumsum(zrl + 1) - 1
        sym_, extra_ = np.full(at[-1] + 1, 0xF0), np.zeros(at[-1] + 1, np.int64)
        sym_[at], extra_[at] = sym, extra
        sym, extra, block = sym_, extra_, np.repeat(block, zrl + 1)
    return sym, extra, np.bincount(block, minlength=len(band)), eob


def _ac_band_symbols(coeffs: np.ndarray, ss: int, se: int) -> tuple[np.ndarray, np.ndarray]:
    """Progressive first-pass AC coding (Ah=Al=0) of one component's band:
    (symbol, extra bits) in scan order.

    Standard G.1.2.2: run/size symbols with EOBn end-of-band run codes.
    The ends of band counted from one block with nonzero coefficients up
    to the next are sent just before that next block (or at the end of
    the scan), as EOBn runs of at most ``EOBRUN_MAX`` blocks.
    """
    sym, extra, n_sym, eob = ac_symbols(coeffs[:, ss : se + 1])
    nonzero = np.flatnonzero(n_sym)  # the blocks with symbols
    at = (np.cumsum(n_sym) - n_sym)[nonzero]  # their first symbols
    # Ends of band before the first such block, then from each to the next.
    cum = np.concatenate(([0], np.cumsum(eob)))
    pending = np.diff(cum[np.concatenate(([0], nonzero, [len(eob)]))])
    full, rest = np.divmod(pending, EOBRUN_MAX)
    n_runs = full + (rest > 0)
    runs = np.full(int(n_runs.sum()), EOBRUN_MAX)
    runs[(np.cumsum(n_runs) - 1)[rest > 0]] = rest[rest > 0]
    n = magnitude_category(runs) - 1  # EOBn: a run of 2**n plus n extra bits
    # Run k goes just before symbol at[k], i.e. at output index at[k] + k.
    at = np.repeat(np.append(at, len(sym)), n_runs) + np.arange(len(runs))
    is_sym = np.ones(len(sym) + len(runs), bool)
    is_sym[at] = False
    out_sym, out_extra = np.empty((2, len(is_sym)), np.int64)
    out_sym[at], out_extra[at] = n << 4, runs - (1 << n)
    out_sym[is_sym], out_extra[is_sym] = sym, extra
    return out_sym, out_extra


def _interleaved_symbols(comps: list[Component], se: int) -> tuple[np.ndarray, np.ndarray]:
    """(book index, extra bits) of each word of an interleaved scan of
    ``comps``, in MCU order: per block and component its DC difference
    (F.1.2.1), its AC symbols ``1..se``, then its end of band (AC symbol
    0), if any. A component is coded with its class's DC and AC tables."""
    acs = [ac_symbols(comp.coeffs[:, 1 : se + 1]) for comp in comps]
    n_ops = np.stack([1 + n_sym + eob for _, _, n_sym, eob in acs], axis=1)
    start = (np.cumsum(n_ops) - n_ops.ravel()).reshape(n_ops.shape)
    dc_base = 256 * np.array([comp.qtab_id for comp in comps])
    ac_base = 256 * _AC + dc_base
    index = np.repeat(np.tile(ac_base, len(n_ops)), n_ops.ravel())
    extra = np.zeros(len(index), np.int64)
    dc = np.stack([comp.coeffs[:, 0] for comp in comps], axis=1)
    extra[start], size = magnitude_bits(np.diff(dc, axis=0, prepend=0))
    index[start] = dc_base + size
    for c, (sym, ac_extra, n_sym, _) in enumerate(acs):
        at = np.arange(len(sym)) + np.repeat(start[:, c] + 1 - (np.cumsum(n_sym) - n_sym), n_sym)
        index[at], extra[at] = ac_base[c] + sym, ac_extra
    return index, extra


def _header(ci: CoeffImage, sof_marker: int) -> bytes:
    out = markers.seg(markers.SOI)
    out += markers.seg(markers.APP0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    for tid, qt in enumerate(ci.qtables):
        zz = qt.reshape(-1)[ZIGZAG]
        out += markers.seg(markers.DQT, bytes([tid]) + bytes(int(v) for v in zz))
    sof = struct.pack(">BHHB", 8, ci.height, ci.width, len(ci.components))
    for comp in ci.components:
        sof += bytes([comp.comp_id, 0x11, comp.qtab_id])
    out += markers.seg(sof_marker, sof)
    return out


def _sos(comps: list[Component], row) -> bytes:
    """SOS segment of a script row. Each component's selector byte is
    ``Td << 4 | Ta``: an interleaved scan names its class's DC table and,
    if it sends AC, its class's AC table; a band names its row's AC slot.
    A slot the scan does not code with is sent as 0."""
    comp_idx, ss, se, slot = row
    if ss == 0:
        sel = [(comp, comp.qtab_id, comp.qtab_id if se else 0) for comp in comps]
    else:
        sel = [(comps[comp_idx], 0, slot)]
    payload = [len(sel)]
    for comp, td, ta in sel:
        payload += [comp.comp_id, td << 4 | ta]
    return markers.seg(markers.SOS, bytes(payload + [ss, se, 0]))


def _encode(ci: CoeffImage, script: Script) -> bytes:
    comps = ci.components
    progressive = script != SCRIPT_BASELINE

    # Pass 1: every scan's (book index, extra bits); one histogram of all
    # book indices gives one optimal table per table in use.
    scans = []
    for comp_idx, ss, se, slot in script:
        if ss == 0:
            scans.append(_interleaved_symbols(comps, se))
        else:
            sym, extra = _ac_band_symbols(comps[comp_idx].coeffs, ss, se)
            scans.append((256 * (_AC + slot) + sym, extra))
    hist = np.bincount(np.concatenate([i for i, _ in scans]), minlength=_N_TABLES * 256)
    hist = hist.reshape(_N_TABLES, 256)
    tables = {k: build_optimal_table(hist[k]) for k in np.flatnonzero(hist.any(axis=1))}

    # Pass 2: every table's word of each symbol with no extra bits.
    book_words, book_nbits = np.zeros((2, _N_TABLES * 256), np.int64)
    for k, table in tables.items():
        at = slice(k * 256, (k + 1) * 256)
        book_words[at], book_nbits[at] = table.book()

    out = _header(ci, markers.SOF2 if progressive else markers.SOF0)
    dht = {k: bytes([k // _AC << 4 | k % _AC, *t.bits, *t.values]) for k, t in tables.items()}
    if progressive:
        out += markers.seg(markers.DHT, b"".join(dht[k] for k in sorted(dht)))
    else:
        for t in sorted({k % _AC for k in dht}):
            out += markers.seg(markers.DHT, dht[t] + dht[_AC + t])
    for row, (i, extra) in zip(script, scans):
        out += _sos(comps, row) + pack_scan(book_words[i] | extra, book_nbits[i])
    out += markers.seg(markers.EOI)
    return out


def encode_baseline_from_coeffs(ci: CoeffImage) -> bytes:
    """Serialize a coefficient image as baseline sequential JPEG."""
    return _encode(ci, SCRIPT_BASELINE)


def encode_progressive_from_coeffs(ci: CoeffImage) -> bytes:
    """Serialize a coefficient image as a 10-scan progressive JPEG."""
    return _encode(ci, SCRIPT_PROGRESSIVE)


def encode_baseline(img: np.ndarray, quality: int) -> bytes:
    """Encode an HxWx3 uint8 RGB image as baseline sequential JPEG."""
    return encode_baseline_from_coeffs(forward(img, quality))
