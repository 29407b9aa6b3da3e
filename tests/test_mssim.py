"""Unit tests for the MS-SSIM implementation."""
import numpy as np
import pytest

from repro.metrics.mssim import msssim


def _img(seed=0, h=96, w=96):
    """An HxWx3 RGB image whose channels are affine maps of one textured plane."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    g = 128 + 40 * np.sin(xx / 10) + 30 * np.cos(yy / 8) + 10 * rng.standard_normal((h, w))
    rgb = np.stack([g, 0.9 * g + 10, 0.8 * g + 25], axis=-1)
    return np.clip(rgb, 0, 255).astype(np.uint8)


def _mixed_img():
    """An RGB image whose channels come from three unrelated textures."""
    return np.stack([_img(seed)[..., 0] for seed in range(3)], axis=-1)


def test_identical_images_score_one():
    a = _img()
    assert msssim(a, a) == pytest.approx(1.0, abs=1e-6)


def test_identical_color_images_score_one():
    a = _mixed_img()
    assert msssim(a, a) == pytest.approx(1.0, abs=1e-6)


def test_noise_lowers_score_monotonically():
    a = _img()
    rng = np.random.default_rng(1)
    scores = []
    for sigma in [2, 10, 40]:
        b = np.clip(a.astype(float) + rng.standard_normal(a.shape) * sigma, 0, 255)
        scores.append(msssim(a, b.astype(np.uint8)))
    assert scores[0] > scores[1] > scores[2]


def test_blur_lowers_score():
    a = _img()
    k = np.ones((5, 5)) / 25.0
    from numpy.lib.stride_tricks import sliding_window_view

    w = sliding_window_view(np.pad(a.astype(float), ((2, 2), (2, 2), (0, 0)), mode="edge"),
                            (5, 5), axis=(0, 1))
    b = (w * k).sum(axis=(3, 4))
    assert msssim(a, b.astype(np.uint8)) < 0.99


def test_score_symmetric():
    a, b = _img(0), _img(3)
    assert msssim(a, b) == pytest.approx(msssim(b, a), abs=1e-9)


def test_small_image_adapts_levels():
    a = _img(h=24, w=24)
    assert msssim(a, a) == pytest.approx(1.0, abs=1e-6)


def test_score_in_unit_interval():
    a, b = _img(0), _img(42)
    s = msssim(a, b)
    assert 0.0 <= s <= 1.0


def test_jpeg_truncation_scores_monotone():
    from repro.jpeg import decode, truncate_to_scans
    from repro.jpeg.codec import forward
    from repro.jpeg.encoder import encode_progressive_from_coeffs

    a = _mixed_img()
    p = encode_progressive_from_coeffs(forward(a, 90))
    full = decode(p)
    scores = [
        msssim(decode(truncate_to_scans(p, g)), full) for g in [1, 2, 5, 10]
    ]
    assert scores == sorted(scores)
    assert scores[-1] == pytest.approx(1.0, abs=1e-6)
