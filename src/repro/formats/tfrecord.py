"""TFRecord-style record format (the paper's strong baseline layout).

TFRecord framing per record: ``u64 length | u32 crc(length) | payload |
u32 crc(payload)``. TensorFlow uses masked CRC32-C; this container has
no crc32c implementation available, so we use zlib.crc32 with the same
masking — identical framing/overhead (the quantity the experiments
measure), different polynomial (documented substitution, DESIGN.md).

Payload is a minimal "example": ``i32 label | u32 jpeg_len | jpeg``.
"""
import struct
import zlib

# Bytes a record adds to its JPEG: the u64 length, its CRC and the
# payload's CRC (16 B of framing), plus the example's 8 B header.
RECORD_OVERHEAD = 8 + 2 * 4 + 8


def _masked_crc(data: bytes) -> int:
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF


def _example(label: int, jpeg: bytes) -> bytes:
    return struct.pack("<iI", label, len(jpeg)) + jpeg


def _parse_example(payload: bytes, path: str, at: int) -> tuple[int, bytes]:
    if len(payload) >= 8:
        label, n = struct.unpack_from("<iI", payload)
        if 8 + n == len(payload):
            return label, payload[8:]
    raise ValueError(f"corrupt TFRecord file {path}: the example of the record "
                     f"at byte {at} does not hold the JPEG length it claims")


def write_tfrecord(path: str, images: list[tuple[bytes, int]]) -> int:
    """Write (jpeg, label) pairs as one TFRecord file; returns bytes written."""
    total = 0
    with open(path, "wb") as f:
        for jpeg, label in images:
            payload = _example(label, jpeg)
            hdr = struct.pack("<Q", len(payload))
            rec = (
                hdr
                + struct.pack("<I", _masked_crc(hdr))
                + payload
                + struct.pack("<I", _masked_crc(payload))
            )
            f.write(rec)
            total += len(rec)
    return total


def read_tfrecord(path: str) -> list[tuple[int, bytes]]:
    """Read a TFRecord file; returns [(label, jpeg_bytes)].

    Raises ValueError naming ``path`` on a bad CRC, a file that ends
    inside a record, or an example whose JPEG length is not its payload's.
    """
    out = []
    with open(path, "rb") as f:
        data = f.read()
    i = 0
    while i < len(data):
        if i + 12 > len(data):
            raise ValueError(f"truncated TFRecord file {path}: it ends inside "
                             f"the length field of the record at byte {i}")
        hdr = data[i : i + 8]
        (length,) = struct.unpack("<Q", hdr)
        (crc_h,) = struct.unpack_from("<I", data, i + 8)
        if crc_h != _masked_crc(hdr):
            raise ValueError(f"corrupt TFRecord file {path}: bad length CRC "
                             f"of the record at byte {i}")
        end = i + 16 + length
        if end > len(data):
            raise ValueError(f"truncated TFRecord file {path}: the record at "
                             f"byte {i} runs past its end")
        payload = data[i + 12 : end - 4]
        (crc_p,) = struct.unpack_from("<I", data, end - 4)
        if crc_p != _masked_crc(payload):
            raise ValueError(f"corrupt TFRecord file {path}: bad payload CRC "
                             f"of the record at byte {i}")
        out.append(_parse_example(payload, path, i))
        i = end
    return out
