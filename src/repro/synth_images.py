"""Synthetic analogues of the paper's four image datasets.

The evaluation needs image corpora whose (a) JPEG scan-size statistics
and (b) class signal at different spatial frequencies drive the
results. Each generator composes, per image:

  * a smooth random background (low-frequency sinusoid mixture),
  * a class-dependent **low-frequency** signature (a large Gaussian blob
    whose position/scale encodes the coarse label), and
  * a class-dependent **band-limited texture** (an oriented grating whose
    frequency lies in a chosen 8x8-DCT band) encoding the fine label,
  * pixel noise.

Because JPEG's progressive scans partition exactly those DCT bands,
truncating at scan group g removes the fine texture signal while
keeping the coarse signature — which is the mechanism behind the
paper's Section 6.3 observations (fine-grained tasks need high scans;
binary/coarse tasks tolerate scan 1-2).

Datasets mirror the paper's Table 3 proportions: HAM largest images and
quality 100, CelebA quality 75 and binary labels, Cars fine-grained
hierarchical labels (make x model) with Make-Only / Is-Corvette
coarsenings, ImageNet many-class.
"""
import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    n_images: int  # at sf=1.0
    size: int  # square images, pixels per side
    n_classes: int
    quality: int  # JPEG quality the "original" corpus is stored at
    # Index of the DCT band (0=DC .. 9=highest, aligned with the luma
    # scan bands) where the fine-grained texture signal lives.
    texture_band: int
    n_makes: int = 1  # >1 => hierarchical labels (cars)
    images_per_record: int = 48


SPECS: dict[str, DatasetSpec] = {
    "imagenet_lite": DatasetSpec("imagenet_lite", 400, 96, 25, 92, texture_band=1),
    "ham_lite": DatasetSpec("ham_lite", 192, 128, 7, 100, texture_band=2),
    "cars_lite": DatasetSpec("cars_lite", 240, 96, 20, 84, texture_band=2, n_makes=4),
    "celeba_lite": DatasetSpec("celeba_lite", 288, 80, 2, 75, texture_band=1),
}

def _band_frequency(band: int) -> float:
    """A spatial frequency (cycles/pixel) that lands in DCT band ``band``.

    Zigzag index z corresponds to |u|+|v| ~ sqrt-ish radial frequency;
    we map band -> a radial frequency u/16 cycles per pixel where u is a
    representative 1-D DCT index for that band.
    """
    # Representative 1-D frequency index for each of the 10 luma bands.
    rep = [0, 1.5, 2.5, 3.5, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0]
    u = rep[min(band, 9)]
    return u / 16.0  # DCT-II basis k has u/16 cycles per pixel


def _smooth_background(rng: np.random.Generator, size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    bg = np.zeros((size, size))
    for _ in range(3):
        fx, fy = rng.uniform(0.2, 1.2, 2) / size
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(10, 30)
        bg += amp * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
    return bg


def _class_blob(cls: int, n_classes: int, size: int) -> np.ndarray:
    """Low-frequency class signature: Gaussian blob at a class-specific spot."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    ang = 2 * np.pi * cls / max(n_classes, 1)
    cy = size / 2 + 0.28 * size * np.sin(ang)
    cx = size / 2 + 0.28 * size * np.cos(ang)
    sigma = size * (0.10 + 0.05 * (cls % 3))
    return 55.0 * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)))


def _class_texture(cls: int, n_classes: int, size: int, band: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Band-limited oriented grating encoding the fine label."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    f = _band_frequency(band)
    theta = np.pi * (cls + 0.5) / max(n_classes, 1)
    phase = rng.uniform(0, 2 * np.pi)
    g = np.sin(2 * np.pi * f * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
    return 26.0 * g


def generate_image(spec: DatasetSpec, idx: int) -> tuple[np.ndarray, dict]:
    """Deterministically generate image ``idx`` of a dataset.

    Returns (uint8 image, labels dict). Labels always include ``label``;
    hierarchical datasets add ``make`` (coarse) and ``is_zero`` (binary,
    the Is-Corvette analogue).
    """
    # crc32, not hash(): Python string hashing is per-process randomized,
    # which would desynchronize Spark executors from the driver.
    rng = np.random.default_rng(zlib.crc32(f"{spec.name}:{idx}".encode()))
    cls = int(rng.integers(0, spec.n_classes))
    size = spec.size
    img = 128.0 + _smooth_background(rng, size)
    if spec.n_makes > 1:
        make = cls % spec.n_makes
        model = cls // spec.n_makes
        img += _class_blob(make, spec.n_makes, size)
        img += _class_texture(model, spec.n_classes // spec.n_makes, size,
                              spec.texture_band, rng)
        labels = {"label": cls, "make": make, "is_zero": int(make == 0)}
    else:
        img += _class_blob(cls, spec.n_classes, size)
        img += _class_texture(cls, spec.n_classes, size, spec.texture_band, rng)
        labels = {"label": cls, "make": cls, "is_zero": int(cls == 0)}
    img += rng.standard_normal((size, size)) * 6.0
    gray = np.clip(img, 0, 255)
    tint = rng.uniform(0.85, 1.15, 3)
    rgbs = [np.clip(gray * t + s, 0, 255)
            for t, s in zip(tint, [0.0, 5.0, -5.0])]
    return np.stack(rgbs, axis=-1).astype(np.uint8), labels


def n_images(spec: DatasetSpec, sf: float = 1.0) -> int:
    return max(spec.images_per_record, int(spec.n_images * sf))


def is_test(idx: int) -> bool:
    """Deterministic ~20% holdout split."""
    return idx % 5 == 0
