"""Shared codec plumbing: color conversion, blocking, coefficient transform.

Components are stored as quantized coefficients in **zigzag order**,
shape ``(n_blocks, 64)`` with blocks in raster order — the layout both
the baseline and progressive entropy coders consume. We use 4:4:4
(no chroma subsampling; see DESIGN.md) so every component shares the
same block grid.
"""
from dataclasses import dataclass

import numpy as np

from . import dct
from .quant import UNZIGZAG, ZIGZAG, tables_for_quality

# JFIF full-range BT.601 conversion matrices.
_RGB2YCC = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_YCC2RGB = np.linalg.inv(_RGB2YCC)


def rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    """HxWx3 uint8 RGB -> HxWx3 float YCbCr (Cb/Cr centered at 128)."""
    out = img.astype(np.float64) @ _RGB2YCC.T
    out[..., 1:] += 128.0
    return out


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """HxWx3 float YCbCr -> HxWx3 uint8 RGB (clipped)."""
    t = ycc.copy()
    t[..., 1:] -= 128.0
    rgb = t @ _YCC2RGB.T
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def to_gray(img: np.ndarray) -> np.ndarray:
    """uint8 RGB (HxWx3) or grayscale (HxW) -> HxW float64 luma."""
    if img.ndim == 3:
        return img.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    return img.astype(np.float64)


def plane_to_blocks(plane: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Pad a HxW plane to 8-multiples (edge replication) and split into
    raster-ordered 8x8 blocks. Returns (blocks (n,8,8), nby, nbx)."""
    h, w = plane.shape
    ph, pw = -h % 8, -w % 8
    p = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    nby, nbx = p.shape[0] // 8, p.shape[1] // 8
    blocks = p.reshape(nby, 8, nbx, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    return blocks, nby, nbx


def blocks_to_plane(blocks: np.ndarray, nby: int, nbx: int, h: int, w: int) -> np.ndarray:
    """Inverse of ``plane_to_blocks`` (crops padding)."""
    p = blocks.reshape(nby, nbx, 8, 8).transpose(0, 2, 1, 3).reshape(nby * 8, nbx * 8)
    return p[:h, :w]


@dataclass
class Component:
    """One color component's quantized coefficients.

    ``coeffs``: (n_blocks, 64) int32 in zigzag order, blocks raster-ordered.
    """

    comp_id: int
    qtab_id: int
    coeffs: np.ndarray
    nby: int
    nbx: int


@dataclass
class CoeffImage:
    """A fully-described image in the quantized-coefficient domain."""

    height: int
    width: int
    components: list[Component]
    qtables: list[np.ndarray]  # natural-order 8x8 tables, indexed by qtab_id

    @property
    def n_components(self) -> int:
        return len(self.components)


def forward(img: np.ndarray, quality: int) -> CoeffImage:
    """RGB (HxWx3) or grayscale (HxW) uint8 -> quantized coefficient image."""
    if img.ndim == 2:
        planes = [img.astype(np.float64)]
        qtables = [tables_for_quality(quality)[0]]
        qids = [0]
    else:
        ycc = rgb_to_ycbcr(img)
        planes = [ycc[..., 0], ycc[..., 1], ycc[..., 2]]
        lt, ct = tables_for_quality(quality)
        qtables = [lt, ct]
        qids = [0, 1, 1]
    h, w = planes[0].shape
    comps = []
    for ci, (plane, qid) in enumerate(zip(planes, qids)):
        blocks, nby, nbx = plane_to_blocks(plane - 128.0)
        coefs = dct.fdct2(blocks)
        q = qtables[qid].astype(np.float64)
        quantized = np.round(coefs / q).astype(np.int32)
        zz = quantized.reshape(-1, 64)[:, ZIGZAG]
        comps.append(Component(ci + 1, qid, zz, nby, nbx))
    return CoeffImage(h, w, comps, qtables)


def inverse(ci: CoeffImage) -> np.ndarray:
    """Quantized coefficient image -> decoded uint8 image (RGB or grayscale)."""
    planes = []
    for comp in ci.components:
        q = ci.qtables[comp.qtab_id].astype(np.float64)
        nat = comp.coeffs[:, UNZIGZAG].astype(np.float64).reshape(-1, 8, 8)
        blocks = dct.idct2(nat * q) + 128.0
        planes.append(blocks_to_plane(blocks, comp.nby, comp.nbx, ci.height, ci.width))
    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    return ycbcr_to_rgb(np.stack(planes, axis=-1))
