"""Unit tests for the quantization tables, zigzag order, and quality
estimation of ``jpeg.codec``."""
import numpy as np
import pytest

from repro.jpeg.codec import (
    STD_CHROMA_QT,
    STD_LUMA_QT,
    UNZIGZAG,
    ZIGZAG,
    estimate_quality,
    scale_table,
    tables_for_quality,
)


def test_zigzag_is_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))


def test_zigzag_starts_and_ends_correctly():
    assert ZIGZAG[0] == 0  # DC first
    assert ZIGZAG[1] == 1  # then (0,1)
    assert ZIGZAG[2] == 8  # then (1,0)
    assert ZIGZAG[-1] == 63  # highest frequency last


def test_unzigzag_inverts_zigzag():
    v = np.arange(64)
    assert np.array_equal(v[ZIGZAG][UNZIGZAG], v)


def test_zigzag_diagonal_order_monotone():
    # Zigzag visits anti-diagonals in order of i+j.
    diag = [(z // 8) + (z % 8) for z in ZIGZAG]
    assert diag == sorted(diag)


def test_scale_quality_50_is_identity():
    assert np.array_equal(scale_table(STD_LUMA_QT, 50), STD_LUMA_QT)


def test_scale_quality_100_is_all_ones():
    assert np.array_equal(scale_table(STD_LUMA_QT, 100), np.ones((8, 8), int))


def test_scale_monotone_in_quality():
    prev = None
    for q in [10, 30, 50, 70, 90]:
        t = scale_table(STD_LUMA_QT, q).sum()
        if prev is not None:
            assert t < prev
        prev = t


def test_tables_for_quality_returns_both():
    lt, ct = tables_for_quality(75)
    assert lt.shape == ct.shape == (8, 8)
    assert np.array_equal(ct, scale_table(STD_CHROMA_QT, 75))


@pytest.mark.parametrize("q", [25, 50, 75, 83, 91, 95, 100])
def test_estimate_quality_inverts_scaling(q):
    assert estimate_quality(scale_table(STD_LUMA_QT, q)) == q


def test_tables_clamped_to_byte_range():
    assert scale_table(STD_LUMA_QT, 1).max() <= 255
    assert scale_table(STD_LUMA_QT, 1).min() >= 1
