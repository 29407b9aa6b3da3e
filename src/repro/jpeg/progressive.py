"""Progressive JPEG encoder (SOF2, spectral-selection scan script).

The 10-scan script mirrors libjpeg's default in structure (DC first,
early luma AC, full chroma early, then widening luma AC bands) but uses
spectral selection only — see DESIGN.md §3 for why this substitution
preserves everything the paper relies on.

All Huffman tables (one optimal DC table per luma/chroma class, one
optimal AC table per AC slot named in the scan script) are emitted in
the file header, ahead of the first SOS. This keeps per-scan overhead
to the ~10-byte SOS marker, so a PCR's scan groups carry almost pure
entropy data and the progressive file stays at or below the baseline file's size on
realistic images (the paper's "PCRs are usually 5% smaller than
TFRecords" property). Any byte prefix ending at a scan boundary is
still self-contained, because every table lives in the always-read
header span.
"""
import numpy as np

from . import markers
from .baseline import _dht_payload, _header, ac_symbols, dc_symbols
from .codec import CoeffImage, forward
from .huffman import magnitude_category, optimal_tables, pack_scan

EOBRUN_MAX = 0x7FFF  # longest end-of-band run one EOBn symbol can send

# (component index or None for interleaved DC, Ss, Se, AC table slot).
# Scans with similar symbol statistics share one of JPEG's four AC
# table slots: early luma, chroma, mid luma, high luma (for grayscale:
# low, mid and high frequencies).
SCRIPT_COLOR: list[tuple[int | None, int, int, int | None]] = [
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

SCRIPT_GRAY: list[tuple[int | None, int, int, int | None]] = [
    (None, 0, 0, None),
    (0, 1, 2, 0),
    (0, 3, 5, 0),
    (0, 6, 9, 0),
    (0, 10, 14, 2),
    (0, 15, 21, 2),
    (0, 22, 30, 2),
    (0, 31, 41, 3),
    (0, 42, 52, 3),
    (0, 53, 63, 3),
]

N_SCANS = 10


def script_for(n_components: int) -> list[tuple[int | None, int, int, int | None]]:
    return SCRIPT_COLOR if n_components == 3 else SCRIPT_GRAY


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
    at = np.repeat(np.append(at, len(sym)), n_runs)
    return np.insert(sym, at, n << 4), np.insert(extra, at, runs - (1 << n))


def encode_progressive_from_coeffs(ci: CoeffImage) -> bytes:
    """Serialize a coefficient image as a 10-scan progressive JPEG."""
    nc = ci.n_components
    script = script_for(nc)
    tids = [comp.qtab_id for comp in ci.components]  # DC tables: 0 luma, 1 chroma

    # Pass 1: gather symbols for every scan, then build one optimal DC
    # table per luma/chroma class and one AC table per script slot.
    dc = [dc_symbols(comp.coeffs) for comp in ci.components]
    ac_scans = {
        si: _ac_band_symbols(ci.components[comp_idx].coeffs, ss, se)
        for si, (comp_idx, ss, se, _) in enumerate(script)
        if comp_idx is not None
    }
    dc_tabs = optimal_tables(tids, [np.bincount(sym, minlength=256) for sym, _ in dc])
    ac_tabs = optimal_tables(
        [script[si][3] for si in ac_scans],
        [np.bincount(sym, minlength=256) for sym, _ in ac_scans.values()],
    )

    # Header: SOI/APP0/DQT/SOF2 + all DHTs (always-read span in a PCR).
    out = _header(ci, markers.SOF2)
    dht = b"".join(_dht_payload(dc_tabs[t], 0, t) for t in sorted(dc_tabs))
    dht += b"".join(_dht_payload(ac_tabs[t], 1, t) for t in sorted(ac_tabs))
    out += markers.seg(markers.DHT, dht)

    for si, (comp_idx, ss, se, slot) in enumerate(script):
        if comp_idx is None:
            sos = bytes([nc])
            for c, comp in enumerate(ci.components):
                sos += bytes([comp.comp_id, tids[c] << 4])
            sos += bytes([0, 0, 0])
            # Interleaved: block-major, then component.
            words = np.empty((len(dc[0][0]), nc), np.int64)
            nbits = np.empty_like(words)
            for c in range(nc):
                words[:, c], nbits[:, c] = dc_tabs[tids[c]].words(*dc[c])
            words, nbits = words.ravel(), nbits.ravel()
        else:
            comp = ci.components[comp_idx]
            sos = bytes([1, comp.comp_id, slot]) + bytes([ss, se, 0])
            words, nbits = ac_tabs[slot].words(*ac_scans[si])
        out += markers.seg(markers.SOS, sos)
        out += pack_scan(words, nbits)
    out += markers.seg(markers.EOI)
    return out


def encode_progressive(img: np.ndarray, quality: int) -> bytes:
    """Encode an RGB/grayscale uint8 image as 10-scan progressive JPEG."""
    return encode_progressive_from_coeffs(forward(img, quality))
