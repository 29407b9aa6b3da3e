"""Decoded image -> feature vector.

Features are designed so fidelity matters the way it does for CNNs:

  * 64 low-frequency features: 8x8 grid of local pixel means (what
    survives even scan 1), plus
  * band features: per luma scan band, the mean |DCT coefficient| split
    into a horizontal-frequency and a vertical-frequency component
    (CNN-filter-like orientation sensitivity). These bands align exactly
    with the progressive scan script, so truncating at scan group g
    zeroes (up to quantization) the features of bands > g — the
    substrate's analogue of a CNN losing its high-frequency filters'
    input. The synthetic datasets encode fine-grained labels as oriented
    gratings in a chosen band, so a class becomes separable exactly when
    the scan carrying its band is read.

Two model profiles (paper: ResNet-18 vs ShuffleNetv2): ``resnet_lite``
uses all features; ``shufflenet_lite`` sees only a coarse 4x4 pixel grid
plus the band features (and runs faster in the performance model),
making it more fidelity-sensitive — reproducing the paper's §6.3
contrast on HAM10000.
"""
import numpy as np

from repro.jpeg.codec import ZIGZAG, to_gray, zigzag_dct
from repro.jpeg.encoder import SCRIPT_PROGRESSIVE

# Zigzag band edges of the luma scans of the progressive script:
# DC | 1-5 | 6-13 | 14-21 | 22-30 | 31-40 | 41-51 | 52-63.
BAND_EDGES = [ss for comp, ss, _, _ in SCRIPT_PROGRESSIVE if comp in (None, 0)] + [64]
N_BANDS = len(BAND_EDGES) - 1

# Per-feature (band, orientation) layout: band 0 contributes one DC
# feature; bands 1..7 contribute (horizontal, vertical) pairs.
_BAND_SELS: list[tuple[int, np.ndarray]] = []
_u = ZIGZAG // 8  # vertical frequency index of each zigzag position
_v = ZIGZAG % 8  # horizontal frequency index
for _b in range(N_BANDS):
    _sel = np.arange(BAND_EDGES[_b], BAND_EDGES[_b + 1])
    if _b == 0:
        _BAND_SELS.append((_b, _sel))
        continue
    _h = _sel[_v[_sel] > _u[_sel]]  # horizontal-dominant frequencies
    _o = _sel[_v[_sel] <= _u[_sel]]  # vertical/diagonal
    _BAND_SELS.append((_b, _h))
    _BAND_SELS.append((_b, _o))

N_BAND_FEATURES = len(_BAND_SELS)
GRID = 8  # the pixel features are the means of a GRID x GRID grid
N_PIXEL_FEATURES = GRID * GRID
N_FEATURES = N_PIXEL_FEATURES + N_BAND_FEATURES


def _grid_means(gray: np.ndarray) -> np.ndarray:
    """Means of the GRID x GRID cells of ``gray``, row by row, each cell
    gathered into one contiguous row. The tests check that this is bit-equal
    to taking each cell slice's ``mean()`` on the dataset images. A side
    that GRID does not divide raises ``ValueError``."""
    h, w = gray.shape
    cells = gray.reshape(GRID, h // GRID, GRID, w // GRID).transpose(0, 2, 1, 3)
    return cells.reshape(GRID * GRID, -1).mean(axis=1)


def extract_features(img: np.ndarray) -> np.ndarray:
    """Full feature vector (pixel grid + oriented band energies)."""
    gray = to_gray(img)
    pix = _grid_means(gray) / 255.0
    mags = np.abs(zigzag_dct(gray))
    bands = np.array(
        [mags[:, sel].mean() if len(sel) else 0.0 for _, sel in _BAND_SELS]
    )
    return np.concatenate([pix, bands / 32.0])


def feature_mask(model: str) -> np.ndarray:
    """Boolean mask of the features a model profile consumes."""
    m = np.zeros(N_FEATURES, dtype=bool)
    if model == "resnet_lite":
        m[:] = True
    elif model == "shufflenet_lite":
        m[N_PIXEL_FEATURES:] = True
        for i in (0, 2, 4, 6):
            for j in (0, 2, 4, 6):
                m[i * GRID + j] = True
    else:
        raise ValueError(f"unknown model profile: {model}")
    return m
