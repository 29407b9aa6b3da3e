"""Baseline sequential JPEG encoder (SOF0, one interleaved scan).

Entropy coding runs in two passes per scan, on whole arrays: the
symbols and extra bits of every block are gathered with numpy (DC
differences, the run/size symbols of the nonzero AC coefficients with
ZRLs and end-of-band codes), their histograms give optimal Huffman
tables, then each scan's code words are packed in one pass. This
mirrors libjpeg's ``-optimize`` path and keeps one table-building code
path for both baseline and progressive encoders.
"""
import struct

import numpy as np

from . import markers
from .codec import CoeffImage, forward
from .huffman import magnitude_bits, optimal_tables, pack_scan
from .quant import ZIGZAG


def dc_symbols(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(symbol, extra bits) of each block's DC difference (F.1.2.1)."""
    extra, size = magnitude_bits(np.diff(coeffs[:, 0].astype(np.int64), prepend=0))
    return size, extra


def ac_symbols(band: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run/size symbols of the nonzero coefficients of ``band``
    (n_blocks, width), in block order, each preceded by a ZRL (0xF0) for
    every 16 zeros of its run (F.1.2.2).

    Returns ``(sym, extra, n_sym, eob)``: the symbols, their extra bits,
    and per block the number of its symbols and whether an end of band
    follows them (its last nonzero coefficient, if any, is not the
    band's last).
    """
    block, k = np.nonzero(band)
    extra, size = magnitude_bits(band[block, k])
    # change[i]: nonzero i - 1 and nonzero i (if both exist) are in different blocks
    change = np.ones(len(k) + 1, bool)
    np.not_equal(block[1:], block[:-1], out=change[1:-1])
    first, last = change[:-1], change[1:]
    run = k - np.where(first, 0, np.concatenate(([0], k[:-1] + 1)))
    eob = np.ones(len(band), bool)
    eob[block[last]] = k[last] < band.shape[1] - 1
    sym = (run & 15) << 4 | size
    zrl = run >> 4
    if zrl.any():
        at = np.cumsum(zrl + 1) - 1
        sym_, extra_ = np.full(at[-1] + 1, 0xF0), np.zeros(at[-1] + 1, np.int64)
        sym_[at], extra_[at] = sym, extra
        sym, extra, block = sym_, extra_, np.repeat(block, zrl + 1)
    return sym, extra, np.bincount(block, minlength=len(band)), eob


def _dht_payload(table, tclass: int, tid: int) -> bytes:
    return bytes([tclass << 4 | tid]) + bytes(table.bits) + bytes(table.values)


def _header(ci: CoeffImage, sof_marker: int) -> bytes:
    out = markers.seg(markers.SOI)
    out += markers.seg(markers.APP0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    for tid, qt in enumerate(ci.qtables):
        zz = qt.reshape(-1)[ZIGZAG]
        out += markers.seg(markers.DQT, bytes([tid]) + bytes(int(v) for v in zz))
    sof = struct.pack(">BHHB", 8, ci.height, ci.width, ci.n_components)
    for comp in ci.components:
        sof += bytes([comp.comp_id, 0x11, comp.qtab_id])
    out += markers.seg(sof_marker, sof)
    return out


def encode_baseline_from_coeffs(ci: CoeffImage) -> bytes:
    """Serialize a coefficient image as baseline sequential JPEG."""
    nc = ci.n_components
    n_blocks = ci.components[0].coeffs.shape[0]
    # Huffman table ids follow the quant table ids: 0 = luma, 1 = chroma.
    tids = [comp.qtab_id for comp in ci.components]
    dc = [dc_symbols(comp.coeffs) for comp in ci.components]
    ac = [ac_symbols(comp.coeffs[:, 1:]) for comp in ci.components]
    dc_tabs = optimal_tables(tids, [np.bincount(sym, minlength=256) for sym, _ in dc])
    ac_hists = []
    for sym, _, _, eob in ac:
        hist = np.bincount(sym, minlength=256)
        hist[0] += eob.sum()  # EOB
        ac_hists.append(hist)
    ac_tabs = optimal_tables(tids, ac_hists)

    out = _header(ci, markers.SOF0)
    for tid in sorted(dc_tabs):
        out += markers.seg(
            markers.DHT,
            _dht_payload(dc_tabs[tid], 0, tid) + _dht_payload(ac_tabs[tid], 1, tid),
        )
    sos = bytes([nc])
    for c, comp in enumerate(ci.components):
        sos += bytes([comp.comp_id, tids[c] << 4 | tids[c]])
    sos += bytes([0, 63, 0])
    out += markers.seg(markers.SOS, sos)

    # MCU order: block-major, then component; each block is its DC, its
    # AC symbols, then its EOB. Place every symbol at its position.
    n_ops = np.stack([1 + n_sym + eob for _, _, n_sym, eob in ac], axis=1)
    start = (np.cumsum(n_ops) - n_ops.ravel()).reshape(n_blocks, nc)
    words = np.empty(int(n_ops.sum()), np.int64)
    nbits = np.empty_like(words)
    for c in range(nc):
        dc_tab, ac_tab = dc_tabs[tids[c]], ac_tabs[tids[c]]
        sym, extra, n_sym, eob = ac[c]
        at = start[:, c]
        words[at], nbits[at] = dc_tab.words(*dc[c])
        at = np.arange(len(sym)) + np.repeat(at + 1 - (np.cumsum(n_sym) - n_sym), n_sym)
        words[at], nbits[at] = ac_tab.words(sym, extra)
        at = (start[:, c] + n_ops[:, c] - 1)[eob]
        words[at], nbits[at] = ac_tab.words(np.zeros_like(at), 0)
    out += pack_scan(words, nbits)
    out += markers.seg(markers.EOI)
    return out


def encode_baseline(img: np.ndarray, quality: int) -> bytes:
    """Encode an RGB/grayscale uint8 image as baseline sequential JPEG."""
    return encode_baseline_from_coeffs(forward(img, quality))
