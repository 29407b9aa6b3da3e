"""From-scratch JPEG codec (baseline + progressive spectral selection).

Public surface:
  encode_baseline / encode_progressive  — uint8 image -> JPEG bytes
  decode / decode_to_coeffs             — JPEG bytes (or truncated prefix) -> pixels / coefficients
  baseline_to_progressive               — lossless transcode (jpegtran role)
  truncate_to_scans / scan_spans        — scan-boundary surgery used by the PCR format
"""
from .baseline import encode_baseline
from .decoder import decode, decode_to_coeffs
from .markers import scan_spans, truncate_to_scans
from .progressive import N_SCANS, encode_progressive
from .transcode import baseline_to_progressive

__all__ = [
    "encode_baseline",
    "encode_progressive",
    "decode",
    "decode_to_coeffs",
    "baseline_to_progressive",
    "scan_spans",
    "truncate_to_scans",
    "N_SCANS",
]
