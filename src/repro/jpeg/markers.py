"""JPEG marker framing and parsing.

The PCR encoder (paper Section 5) "scans the binary representation of
the progressive JPEG files, searching for the markers that designate
the end of a scan" — ``scan_spans`` is that routine: it returns the
byte span of the file header plus one span per scan (each span starts
at the scan's DHT/SOS markers and ends at the end of its entropy data),
so a prefix of header + spans[0..g] + EOI is a decodable JPEG.
"""
import struct
from dataclasses import dataclass

SOI = 0xFFD8
EOI = 0xFFD9
SOS = 0xFFDA
SOF0 = 0xFFC0  # baseline sequential
SOF2 = 0xFFC2  # progressive
DHT = 0xFFC4
DQT = 0xFFDB
APP0 = 0xFFE0

_STANDALONE = {SOI, EOI}  # markers with no length field we ever emit


@dataclass
class Segment:
    marker: int
    offset: int  # offset of the 0xFF byte
    end: int  # one past the segment (for SOS: one past the entropy data)
    payload: bytes  # length-prefixed payload (without the length field itself)
    entropy: bytes = b""  # SOS only: the entropy-coded (stuffed) data


def seg(marker: int, payload: bytes = b"") -> bytes:
    """Serialize one marker segment (length field covers itself + payload)."""
    if marker in _STANDALONE:
        assert not payload
        return struct.pack(">H", marker)
    return struct.pack(">HH", marker, len(payload) + 2) + payload


def _entropy_end(data: bytes, start: int) -> int:
    """End of an entropy-coded segment: next 0xFF not followed by 0x00."""
    n = len(data)
    i = data.find(b"\xff", start)
    while 0 <= i < n - 1:
        if data[i + 1] != 0x00:
            return i
        i = data.find(b"\xff", i + 2)
    return n


def parse(data: bytes) -> list[Segment]:
    """Parse a (possibly truncated) JPEG stream into segments.

    A stream cut inside a marker segment ends before that segment, so a
    cut anywhere after a scan still yields every complete scan before it.
    """
    if data[:2] != struct.pack(">H", SOI):
        raise ValueError("not a JPEG (missing SOI)")
    segs = [Segment(SOI, 0, 2, b"")]
    i = 2
    n = len(data)
    while i < n - 1:
        if data[i] != 0xFF:
            raise ValueError(f"expected marker at offset {i}")
        marker = struct.unpack(">H", data[i : i + 2])[0]
        if marker == EOI:
            segs.append(Segment(EOI, i, i + 2, b""))
            break
        if i + 4 > n:
            break  # cut inside the length field
        end = i + 2 + struct.unpack(">H", data[i + 2 : i + 4])[0]
        if end > n:
            break  # cut inside the segment
        payload = data[i + 4 : end]
        if marker == SOS:
            e_end = _entropy_end(data, end)
            segs.append(Segment(SOS, i, e_end, payload, entropy=data[end:e_end]))
            i = e_end
        else:
            segs.append(Segment(marker, i, end, payload))
            i = end
    return segs


def scan_spans(data: bytes) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """(header_span, [scan_span, ...]) byte spans of a JPEG stream.

    The header span runs from SOI up to the first marker that belongs to
    the first scan (its DHT, or the SOS itself). Each scan span covers
    the scan's immediately preceding DHT segments, the SOS segment, and
    its entropy data. ``header + spans[:g]`` + EOI is a valid JPEG
    rendering the first g scans.
    """
    segs = parse(data)
    sos_idx = [k for k, s in enumerate(segs) if s.marker == SOS]
    if not sos_idx:
        raise ValueError("no SOS segment found")
    spans = []
    for k in sos_idx:
        start_k = k
        # Pull in DHT segments directly preceding this SOS.
        while start_k > 0 and segs[start_k - 1].marker == DHT:
            start_k -= 1
        spans.append((segs[start_k].offset, segs[k].end))
    header = (0, spans[0][0])
    return header, spans


EOI_BYTES = struct.pack(">H", EOI)


def truncate_to_scans(data: bytes, n_scans: int) -> bytes:
    """Rebuild a decodable JPEG containing only the first ``n_scans`` scans."""
    header, spans = scan_spans(data)
    n_scans = max(1, min(n_scans, len(spans)))
    out = data[header[0] : header[1]]
    for s, e in spans[:n_scans]:
        out += data[s:e]
    return out + EOI_BYTES
