"""Unit tests for color conversion, blocking, and forward/inverse transform."""
import numpy as np
import pytest

from repro.jpeg import baseline_to_progressive, decode_to_coeffs, encode_baseline, truncate_to_scans
from repro.jpeg.codec import (
    _YCC2RGB,
    UNZIGZAG,
    blocks_to_plane,
    forward,
    idct2,
    inverse,
    plane_to_blocks,
    rgb_to_ycbcr,
    ycbcr_to_rgb,
)
from repro.synth_images import SPECS, generate_image


def _test_image(h=40, w=56, seed=0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    g = 128 + 50 * np.sin(xx / 9) + 30 * np.cos(yy / 7) + 8 * rng.standard_normal((h, w))
    rgb = np.stack([g, 0.9 * g + 10, 0.8 * g + 25], axis=-1)
    return np.clip(rgb, 0, 255).astype(np.uint8)


def test_ycbcr_roundtrip():
    img = _test_image()
    back = ycbcr_to_rgb(*np.moveaxis(rgb_to_ycbcr(img), -1, 0))
    assert np.abs(back.astype(int) - img.astype(int)).max() <= 1


def test_ycbcr_gray_pixel_maps_to_zero_chroma():
    px = np.full((1, 1, 3), 77, dtype=np.uint8)
    ycc = rgb_to_ycbcr(px)
    assert np.isclose(ycc[0, 0, 0], 77, atol=0.5)
    assert np.allclose(ycc[0, 0, 1:], 128, atol=0.5)


@pytest.mark.parametrize("h,w", [(8, 8), (16, 24), (17, 9), (1, 1), (23, 64)])
def test_blocking_roundtrip(h, w):
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 255, (h, w))
    blocks = plane_to_blocks(p)
    assert blocks.shape == (-(-h // 8) * -(-w // 8), 8, 8)
    assert np.allclose(blocks_to_plane(blocks, h, w), p)


def test_forward_shapes_color():
    ci = forward(_test_image(), 90)  # 40x56: a 5x7 block grid
    assert len(ci.components) == 3
    assert len(ci.qtables) == 2
    for comp in ci.components:
        assert comp.coeffs.shape == (5 * 7, 64)
        assert comp.coeffs.dtype == np.int32


@pytest.mark.parametrize("quality,psnr_min", [(50, 24), (75, 26), (90, 29), (95, 32)])
def test_transform_roundtrip_psnr(quality, psnr_min):
    img = _test_image()
    dec = inverse(forward(img, quality))
    mse = np.mean((dec.astype(float) - img.astype(float)) ** 2)
    psnr = 10 * np.log10(255**2 / mse)
    assert psnr > psnr_min


def test_higher_quality_never_worse():
    img = _test_image(seed=3)
    errs = []
    for q in [30, 60, 90]:
        dec = inverse(forward(img, q))
        errs.append(np.mean((dec.astype(float) - img.astype(float)) ** 2))
    assert errs[0] >= errs[1] >= errs[2]


def test_flat_image_is_near_lossless():
    img = np.full((16, 16, 3), 100, dtype=np.uint8)
    dec = inverse(forward(img, 75))
    assert np.abs(dec.astype(int) - 100).max() <= 2


def _stacked_inverse(ci):
    """Reference for ``inverse``: stack the three planes, then subtract
    128 from the strided chroma channels in place."""
    planes = []
    for comp in ci.components:
        q = ci.qtables[comp.qtab_id].astype(np.float64)
        nat = comp.coeffs[:, UNZIGZAG].astype(np.float64).reshape(-1, 8, 8)
        planes.append(blocks_to_plane(idct2(nat * q) + 128.0, ci.height, ci.width))
    t = np.stack(planes, axis=-1)
    t[..., 1:] -= 128.0
    return np.clip(np.round(t @ _YCC2RGB.T), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_inverse_is_bit_equal_to_the_stacked_form(name):
    # Centring each chroma plane before stacking changes no pixel, at
    # the loader's scans 1, 5 and 10.
    spec = SPECS[name]
    for i in range(3):
        p = baseline_to_progressive(encode_baseline(generate_image(spec, i)[0], spec.quality))
        for g in (1, 5, 10):
            ci = decode_to_coeffs(truncate_to_scans(p, g))
            assert np.array_equal(inverse(ci), _stacked_inverse(ci)), (i, g)
