"""Fuzzing the parsers of damaged files: JPEG markers and scans, PCR and
TFRecord records.

Mutated copies of small real files (a 24x32 colour baseline/progressive
pair, a 2-image PCR, a 2-record TFRecord) must parse, decode or raise
ValueError. The fuzz loop runs in a child process whose address space is
capped at 1 GiB, so a parser that allocates from a damaged size field
fails with MemoryError there instead of taking the host's memory.
"""
import os
import resource
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import pcr
from repro.formats import tfrecord
from repro.jpeg import decode_to_coeffs, markers
from repro.jpeg.codec import forward
from repro.jpeg.encoder import encode_baseline_from_coeffs, encode_progressive_from_coeffs

ROOT = Path(__file__).resolve().parent.parent
AS_CAP = 1 << 30  # the child's address-space limit, in bytes
EXAMPLES = 300  # hypothesis examples in the child: about 3 s


def _image(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:24, 0:32]
    g = 128 + 45 * np.sin(xx / 5 + seed) + 35 * np.cos(yy / 4) + 9 * rng.standard_normal((24, 32))
    return np.clip(np.stack([g, 0.8 * g + 20, 250 - 0.7 * g], axis=-1), 0, 255).astype(np.uint8)


def _reframe(data: bytearray) -> None:
    """Rewrite every TFRecord CRC the (possibly damaged) lengths reach, so
    a mutation gets past the framing to the example inside."""
    i = 0
    while i + 12 <= len(data):
        data[i + 8 : i + 12] = struct.pack("<I", tfrecord._masked_crc(bytes(data[i : i + 8])))
        end = i + 16 + struct.unpack_from("<Q", data, i)[0]
        if end > len(data):
            return
        data[end - 4 : end] = struct.pack("<I", tfrecord._masked_crc(bytes(data[i + 12 : end - 4])))
        i = end


def _files() -> dict[str, tuple[bytes, range, list[tuple[int, str]]]]:
    """name -> (bytes, offsets of its header bytes past any magic,
    [(offset, struct format)] of its length and count fields)."""
    coeffs = [forward(_image(seed), 90) for seed in (0, 1)]
    baselines = [encode_baseline_from_coeffs(ci) for ci in coeffs]
    progressives = [encode_progressive_from_coeffs(ci) for ci in coeffs]
    out = {}
    for name, data in (("baseline", baselines[0]), ("progressive", progressives[0])):
        segs = markers.parse(data)
        fields = [(s.offset + 2, ">H") for s in segs if s.marker not in (markers.SOI, markers.EOI)]
        sof = next(s for s in segs if s.marker in (markers.SOF0, markers.SOF2))
        fields += [(sof.offset + 5, ">H"), (sof.offset + 7, ">H"), (sof.offset + 9, "B")]
        fields += [(s.offset + 4, "B") for s in segs if s.marker == markers.SOS]
        sos = next(s for s in segs if s.marker == markers.SOS)
        # From past SOI to where the first scan's entropy data starts.
        out[name] = (data, range(2, sos.end - len(sos.entropy)), fields)
    with tempfile.TemporaryDirectory() as tmp:
        info = pcr.write_pcr(os.path.join(tmp, "x.pcr"), [(p, 7) for p in progressives])
        data = Path(tmp, "x.pcr").read_bytes()
        tfrecord.write_tfrecord(os.path.join(tmp, "x.tfrec"), [(b, 7) for b in baselines])
        tfrec = Path(tmp, "x.tfrec").read_bytes()
    g = info.n_scan_groups
    fields = [(4, "<I"), (8, "B")] + [(9 + 8 * j, "<Q") for j in range(g)]
    fields += [(off, "<I") for off in range(9 + 8 * g, info.index_bytes, 4)]
    # The index is covered by its fields; the header bytes are the JPEG
    # headers after it.
    out["pcr"] = (data, range(info.index_bytes, info.index_bytes + sum(info.header_lens)), fields)
    # The first record's framing, example header and JPEG header.
    second = 16 + 8 + len(baselines[0])
    out["tfrecord"] = (tfrec, range(20 + out["baseline"][1].stop),
                       [(0, "<Q"), (16, "<I"), (second, "<Q"), (second + 16, "<I")])
    return out


FILES = _files()


@st.composite
def _mutated(draw) -> tuple[str, bytes]:
    """A file with 1-3 mutations (a header byte, a length or count field
    set to an edge or random value, any byte), perhaps cut. TFRecords are
    then re-framed with valid CRCs, so the damage reaches their examples."""
    name = draw(st.sampled_from(sorted(FILES)))
    orig, header, fields = FILES[name]
    data = bytearray(orig)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["header", "field", "any"]))
        if kind == "field":
            off, fmt = draw(st.sampled_from(fields))
            top = (1 << 8 * struct.calcsize(fmt)) - 1
            edges = st.sampled_from([v for v in (0, 1, 2, 255, 256, top >> 1, top) if v <= top])
            data[off : off + struct.calcsize(fmt)] = struct.pack(
                fmt, draw(edges | st.integers(0, top)))
        else:
            pos = draw(st.sampled_from(header) if kind == "header" else
                       st.integers(0, len(data) - 1))
            data[pos] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    if name == "tfrecord":
        _reframe(data)
    return name, bytes(data)


def _value_error_or_result(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return None


def _feed(name: str, data: bytes, scan_group: int, tmp: str) -> None:
    """Hand ``data`` to every parser of its kind, and the JPEGs a record
    file gives back to the decoder; only ValueError is caught."""
    if name in ("baseline", "progressive"):
        _value_error_or_result(markers.parse, data)
        _value_error_or_result(decode_to_coeffs, data)
        return
    path = os.path.join(tmp, name)
    Path(path).write_bytes(data)
    if name == "pcr":
        items = _value_error_or_result(pcr.read_pcr, path, scan_group)
    else:
        items = _value_error_or_result(tfrecord.read_tfrecord, path)
    for _, jpeg in items or []:
        _value_error_or_result(decode_to_coeffs, jpeg)


def fuzz_under_cap(examples: int = EXAMPLES) -> None:
    """The fuzz loop; run it in a child process, which it caps at AS_CAP."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = AS_CAP if hard == resource.RLIM_INFINITY else min(AS_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    with tempfile.TemporaryDirectory() as tmp:
        @settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(_mutated(), st.integers(1, 10))
        def fuzz(mutated, scan_group):
            _feed(*mutated, scan_group, tmp)

        fuzz()


def test_mutated_files_decode_or_raise_value_error_under_memory_cap():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", "from tests.test_fuzz import fuzz_under_cap; fuzz_under_cap()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
