"""Progressive JPEG encoder (SOF2, spectral-selection scan script).

The 10-scan script mirrors libjpeg's default in structure (DC first,
early luma AC, full chroma early, then widening luma AC bands) but uses
spectral selection only — see DESIGN.md §3 for why this substitution
preserves everything the paper relies on.

All Huffman tables (per-class DC tables + one shared optimal AC table
covering every AC scan's symbols) are emitted in the file header, ahead
of the first SOS. This keeps per-scan overhead to the ~10-byte SOS
marker, so a PCR's scan groups carry almost pure entropy data and the
progressive file stays at or below the baseline file's size on
realistic images (the paper's "PCRs are usually 5% smaller than
TFRecords" property). Any byte prefix ending at a scan boundary is
still self-contained, because every table lives in the always-read
header span.
"""
import numpy as np

from . import markers
from .baseline import _dht_payload, _header, ac_symbols, dc_symbols
from .codec import CoeffImage, forward
from .huffman import build_optimal_table, magnitude_category, pack_scan

EOBRUN_MAX = 0x7FFF  # longest end-of-band run one EOBn symbol can send

# (component index or None for interleaved-DC, Ss, Se)
SCRIPT_COLOR: list[tuple[int | None, int, int]] = [
    (None, 0, 0),  # 1: DC, all components
    (0, 1, 5),     # 2: Y AC 1-5
    (1, 1, 63),    # 3: Cb AC (full)
    (2, 1, 63),    # 4: Cr AC (full)
    (0, 6, 13),    # 5: Y AC 6-13
    (0, 14, 21),   # 6
    (0, 22, 30),   # 7
    (0, 31, 40),   # 8
    (0, 41, 51),   # 9
    (0, 52, 63),   # 10
]

SCRIPT_GRAY: list[tuple[int | None, int, int]] = [
    (None, 0, 0),
    (0, 1, 2),
    (0, 3, 5),
    (0, 6, 9),
    (0, 10, 14),
    (0, 15, 21),
    (0, 22, 30),
    (0, 31, 41),
    (0, 42, 52),
    (0, 53, 63),
]

N_SCANS = 10


def script_for(n_components: int) -> list[tuple[int | None, int, int]]:
    return SCRIPT_COLOR if n_components == 3 else SCRIPT_GRAY


def _ac_table_classes(script) -> dict[int, int]:
    """Assign each AC scan index one of JPEG's 4 AC table slots.

    Scans with similar symbol statistics share a slot: early luma,
    chroma, mid luma, high luma (for grayscale: four frequency tiers).
    """
    ac_scans = [si for si, (c, _, _) in enumerate(script) if c is not None]
    classes: dict[int, int] = {}
    chroma = [si for si in ac_scans if script[si][0] in (1, 2)]
    luma = [si for si in ac_scans if script[si][0] not in (1, 2)]
    for si in chroma:
        classes[si] = 1
    n = len(luma)
    for r, si in enumerate(luma):
        if r < max(1, n // 3):
            classes[si] = 0
        elif r < max(2, 2 * n // 3):
            classes[si] = 2
        else:
            classes[si] = 3
    return classes


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
    tids = [0 if c == 0 else 1 for c in range(nc)]

    # Pass 1: gather symbols for every scan.
    dc = [dc_symbols(comp.coeffs) for comp in ci.components]
    ac_scans = {
        si: _ac_band_symbols(ci.components[comp_idx].coeffs, ss, se)
        for si, (comp_idx, ss, se) in enumerate(script)
        if comp_idx is not None
    }

    # Build tables: one DC table per luma/chroma class; AC scans share
    # JPEG's four AC table slots, clustered by scan statistics (early
    # luma / chroma / mid luma / high luma) with one optimal table each.
    dc_tabs = {}
    for tid in sorted(set(tids)):
        comps = [c for c in range(nc) if tids[c] == tid]
        dc_tabs[tid] = build_optimal_table(
            sum(np.bincount(dc[c][0], minlength=256) for c in comps)
        )
    ac_class = _ac_table_classes(script)
    ac_tabs = {}
    for cls in sorted(set(ac_class.values())):
        ac_tabs[cls] = build_optimal_table(sum(
            np.bincount(ac_scans[si][0], minlength=256)
            for si, c in ac_class.items() if c == cls
        ))

    # Header: SOI/APP0/DQT/SOF2 + all DHTs (always-read span in a PCR).
    out = _header(ci, markers.SOF2)
    dht = b"".join(_dht_payload(dc_tabs[t], 0, t) for t in sorted(dc_tabs))
    dht += b"".join(_dht_payload(ac_tabs[t], 1, t) for t in sorted(ac_tabs))
    out += markers.seg(markers.DHT, dht)

    for si, (comp_idx, ss, se) in enumerate(script):
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
            sos = bytes([1, comp.comp_id, ac_class[si]]) + bytes([ss, se, 0])
            words, nbits = ac_tabs[ac_class[si]].words(*ac_scans[si])
        out += markers.seg(markers.SOS, sos)
        out += pack_scan(words, nbits)
    out += markers.seg(markers.EOI)
    return out


def encode_progressive(img: np.ndarray, quality: int = 90) -> bytes:
    """Encode an RGB/grayscale uint8 image as 10-scan progressive JPEG."""
    return encode_progressive_from_coeffs(forward(img, quality))
