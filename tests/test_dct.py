"""Unit tests for the 8x8 DCT of ``jpeg.codec``."""
import numpy as np
import pytest

from repro.jpeg import codec


def test_basis_orthonormal():
    d = codec._basis()
    assert np.allclose(d @ d.T, np.eye(8), atol=1e-12)


def test_dc_coefficient_is_scaled_mean():
    b = np.full((8, 8), 10.0)
    c = codec.fdct2(b)
    assert np.isclose(c[0, 0], 80.0)  # 8 * mean
    assert np.allclose(c.reshape(-1)[1:], 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_single_block(seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-128, 127, (8, 8))
    assert np.allclose(codec.idct2(codec.fdct2(b)), b, atol=1e-9)


def test_roundtrip_block_stack():
    rng = np.random.default_rng(0)
    b = rng.uniform(-128, 127, (32, 8, 8))
    assert np.allclose(codec.idct2(codec.fdct2(b)), b, atol=1e-9)


def test_parseval_energy_preserved():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((8, 8))
    assert np.isclose((b**2).sum(), (codec.fdct2(b) ** 2).sum())


def test_linearity():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, 8, 8))
    assert np.allclose(codec.fdct2(a + 2 * b), codec.fdct2(a) + 2 * codec.fdct2(b))


def test_pure_cosine_concentrates_in_one_coefficient():
    n = np.arange(8)
    basis_row = np.cos((2 * n + 1) * 3 * np.pi / 16)
    b = np.outer(np.ones(8), basis_row)
    c = codec.fdct2(b)
    # Energy lands at (0, 3) only.
    mask = np.zeros((8, 8), bool)
    mask[0, 3] = True
    assert abs(c[0, 3]) > 1.0
    assert np.allclose(c[~mask], 0.0, atol=1e-9)
