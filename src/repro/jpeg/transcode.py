"""Lossless baseline -> progressive transcoding (the jpegtran role).

``baseline_to_progressive`` entropy-decodes a sequential JPEG to its
quantized coefficients and re-serializes them with the progressive scan
script — no DCT, no requantization, so the coefficient data (and the
decoded pixels) are bit-identical, which is the property the paper's
encoder relies on (Section 5: "losslessly transform JPEG images into
progressive JPEG images").
"""
from .decoder import decode_to_coeffs
from .encoder import encode_progressive_from_coeffs


def baseline_to_progressive(data: bytes) -> bytes:
    """Losslessly transcode a baseline JPEG to 10-scan progressive."""
    return encode_progressive_from_coeffs(decode_to_coeffs(data))
