"""The coefficient domain: the whole pixel <-> quantized-coefficient mapping.

Colour conversion, 8x8 blocking, the 8x8 DCT, zigzag order, the
quantization tables with IJG quality scaling and ``estimate_quality``,
and ``CoeffImage``, the one type every coder reads and writes.

Components are stored as quantized coefficients in **zigzag order**,
shape ``(n_blocks, 64)`` with blocks in raster order — the layout both
the baseline and progressive entropy coders consume. Every image is
colour 4:4:4 (Y, Cb, Cr; no chroma subsampling; see DESIGN.md), so the
three components share one block grid, which the image's height and
width give.

JPEG's FDCT/IDCT pair is the orthonormal 2-D DCT on 8x8 blocks. We
implement it as two matrix multiplies with the orthonormal DCT-II basis
``D`` (``forward = D B D^T``, ``inverse = D^T C D``), which numpy executes
as batched GEMMs over an ``(..., 8, 8)`` stack — no Python-level loops.

The quality -> table mapping is the IJG (libjpeg) formula, so our
``quality`` parameter means the same thing as libjpeg's ``-quality`` and
ImageMagick's ``%Q`` estimate. ``estimate_quality`` inverts the mapping
from a scaled table, which is how we fill the "Quality" column of the
paper's Table 3 (the paper uses ``identify -format '%Q'``).
"""
from dataclasses import dataclass

import numpy as np

# JFIF full-range BT.601 conversion matrices.
_RGB2YCC = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_YCC2RGB = np.linalg.inv(_RGB2YCC)

# Annex K.1 luminance / chrominance base tables (natural row-major order).
STD_LUMA_QT = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)

STD_CHROMA_QT = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)


def _zigzag_order() -> np.ndarray:
    """Indices such that ``flat_block[ZIGZAG] -> zigzag-ordered vector``."""
    # Odd anti-diagonals run top-right -> bottom-left (ascending i);
    # even ones run bottom-left -> top-right (ascending j).
    order = sorted(
        ((i, j) for i in range(8) for j in range(8)),
        key=lambda p: (p[0] + p[1], p[0] if (p[0] + p[1]) % 2 else p[1]),
    )
    return np.array([i * 8 + j for i, j in order], dtype=np.int64)


ZIGZAG = _zigzag_order()
# Inverse permutation: zigzag-ordered vector -> natural row-major order.
UNZIGZAG = np.argsort(ZIGZAG)


def _basis() -> np.ndarray:
    """Orthonormal 8-point DCT-II basis matrix ``D`` (rows = frequencies)."""
    k = np.arange(8).reshape(-1, 1)
    n = np.arange(8).reshape(1, -1)
    d = np.sqrt(2.0 / 8) * np.cos((2 * n + 1) * k * np.pi / 16)
    d[0, :] /= np.sqrt(2.0)
    return d


_D = _basis()
_DT = _D.T


def scale_table(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling of a base quantization table (clamped to [1, 255])."""
    quality = int(np.clip(quality, 1, 100))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    t = (base.astype(np.int64) * scale + 50) // 100
    return np.clip(t, 1, 255).astype(np.int32)


def tables_for_quality(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """(luma, chroma) quantization tables at the given IJG quality."""
    return scale_table(STD_LUMA_QT, quality), scale_table(STD_CHROMA_QT, quality)


def estimate_quality(luma_qt: np.ndarray) -> int:
    """Invert the IJG scaling to recover the quality setting from a table.

    Mirrors what ``identify -format '%Q'`` does in spirit: find the
    quality whose scaled standard table best matches the observed one
    (exact for tables we produced ourselves, since scaling is injective
    enough over 1..100 for the standard base table).
    """
    best_q, best_err = 1, np.inf
    obs = luma_qt.astype(np.int64)
    for q in range(1, 101):
        err = np.abs(scale_table(STD_LUMA_QT, q).astype(np.int64) - obs).sum()
        if err < best_err:
            best_q, best_err = q, err
    return best_q


def rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    """HxWx3 uint8 RGB -> HxWx3 float YCbCr (Cb/Cr centered at 128)."""
    out = img.astype(np.float64) @ _RGB2YCC.T
    out[..., 1:] += 128.0
    return out


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """HxW float Y, Cb, Cr planes -> HxWx3 uint8 RGB (clipped). The chroma
    planes are centred before stacking, on contiguous planes."""
    rgb = np.stack((y, cb - 128.0, cr - 128.0), axis=-1) @ _YCC2RGB.T
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def to_gray(img: np.ndarray) -> np.ndarray:
    """HxWx3 uint8 RGB -> HxW float64 luma."""
    return img.astype(np.float64) @ np.array([0.299, 0.587, 0.114])


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Pad a HxW plane to 8-multiples (edge replication) and split into
    raster-ordered 8x8 blocks, shape (n_blocks, 8, 8)."""
    h, w = plane.shape
    p = np.pad(plane, ((0, -h % 8), (0, -w % 8)), mode="edge")
    nby, nbx = p.shape[0] // 8, p.shape[1] // 8
    return p.reshape(nby, 8, nbx, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def blocks_to_plane(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    """Inverse of ``plane_to_blocks`` for a HxW plane (crops padding)."""
    nby, nbx = -(-h // 8), -(-w // 8)
    p = blocks.reshape(nby, nbx, 8, 8).transpose(0, 2, 1, 3).reshape(nby * 8, nbx * 8)
    return p[:h, :w]


def fdct2(blocks: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT of an ``(..., 8, 8)`` stack of blocks (float64)."""
    return _D @ blocks @ _DT


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of an ``(..., 8, 8)`` stack of coefficient blocks."""
    return _DT @ coeffs @ _D


def zigzag_dct(plane: np.ndarray) -> np.ndarray:
    """A HxW sample plane's DCT coefficients, unquantized: level shift,
    8x8 blocks, DCT, zigzag order. Shape (n_blocks, 64)."""
    return fdct2(plane_to_blocks(plane - 128.0)).reshape(-1, 64)[:, ZIGZAG]


@dataclass
class Component:
    """One color component's quantized coefficients.

    ``coeffs``: (n_blocks, 64) int32 in zigzag order, blocks raster-ordered.
    """

    comp_id: int
    qtab_id: int
    coeffs: np.ndarray


@dataclass
class CoeffImage:
    """A fully-described image in the quantized-coefficient domain: Y, Cb
    and Cr, each on the block grid of ``height`` x ``width``."""

    height: int
    width: int
    components: list[Component]
    qtables: list[np.ndarray]  # natural-order 8x8 tables, indexed by qtab_id


def forward(img: np.ndarray, quality: int) -> CoeffImage:
    """HxWx3 uint8 RGB -> quantized coefficient image."""
    ycc = rgb_to_ycbcr(img)
    qtables = list(tables_for_quality(quality))
    comps = []
    for c, qid in enumerate((0, 1, 1)):
        q = qtables[qid].reshape(-1)[ZIGZAG].astype(np.float64)
        coefs = np.round(zigzag_dct(ycc[..., c]) / q).astype(np.int32)
        comps.append(Component(c + 1, qid, coefs))
    return CoeffImage(*img.shape[:2], comps, qtables)


def inverse(ci: CoeffImage) -> np.ndarray:
    """Quantized coefficient image -> decoded HxWx3 uint8 RGB image."""
    planes = []
    for comp in ci.components:
        q = ci.qtables[comp.qtab_id].astype(np.float64)
        nat = comp.coeffs[:, UNZIGZAG].astype(np.float64).reshape(-1, 8, 8)
        planes.append(blocks_to_plane(idct2(nat * q) + 128.0, ci.height, ci.width))
    return ycbcr_to_rgb(*planes)
