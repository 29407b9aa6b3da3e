"""From-scratch JPEG codec (baseline + progressive spectral selection).

Public surface:
  encode_baseline                       — uint8 image -> baseline JPEG bytes
  decode / decode_to_coeffs             — JPEG bytes (or truncated prefix) -> pixels / coefficients
  baseline_to_progressive               — lossless transcode (jpegtran role)
  truncate_to_scans / scan_spans        — scan-boundary surgery used by the PCR format

A progressive file straight from coefficients is
``encoder.encode_progressive_from_coeffs(codec.forward(img, quality))``.
"""
from .decoder import decode, decode_to_coeffs
from .encoder import N_SCANS, encode_baseline
from .markers import scan_spans, truncate_to_scans
from .transcode import baseline_to_progressive

__all__ = [
    "encode_baseline",
    "decode",
    "decode_to_coeffs",
    "baseline_to_progressive",
    "scan_spans",
    "truncate_to_scans",
    "N_SCANS",
]
