"""The Progressive Compressed Record (PCR) on-disk format (paper Fig 4).

A PCR packs N progressive JPEGs so that *scan group g* — the g-th scan
of every image — is contiguous. Reading the file prefix up to scan
group g's end offset yields every image at fidelity g with one
sequential read, which is the paper's core mechanism for trading
fidelity against bandwidth without duplicating data.

File layout (little-endian, "raw struct" form — the paper's SQLite/
RocksDB+Protobuf metadata role is played by this fixed header plus the
parquet sidecar written by ``repro.core.dataset``):

    magic  b"PCR1"
    u32    n_images
    u8     n_scan_groups (G)
    u64    group_end[G]          absolute end offset of each scan group
    i32    label[n_images]       per-sample metadata ("scan group 0")
    u32    header_len[n_images]  per-image JPEG header lengths
    u32    scan_len[G][n_images] per-image scan delta lengths
    bytes  jpeg headers (image order)      -- always read
    bytes  scan group 1 deltas (image order)
    ...
    bytes  scan group G deltas (image order)

Everything before the JPEG headers is the fixed index, packed and
unpacked by one struct (``_index_struct``). A reader checks it before
trusting it (``_read_index``): the magic, that the index fits in the
file, and that each ``group_end`` is where the lengths put it.

Reassembling image i at fidelity g = header_i + deltas 1..g + EOI,
which our (truncation-tolerant) decoder renders — identical bytes to
``markers.truncate_to_scans`` on the original progressive file. So a
file cut short still serves every scan group it fully holds.
"""
import bisect
import itertools
import os
import struct
from dataclasses import dataclass

from repro.jpeg import markers

MAGIC = b"PCR1"
_HEAD = struct.Struct("<4sIB")  # magic, n_images, n_scan_groups


def _index_struct(n: int, g: int) -> struct.Struct:
    """The fixed index of an n-image, g-group PCR: the head, ``group_end``,
    labels, header lengths and the [group][image] scan lengths."""
    return struct.Struct(f"{_HEAD.format}{g}Q{n}i{n}I{g * n}I")


@dataclass
class PcrInfo:
    """Offsets/sizes of one PCR file, as recorded at write time."""

    path: str
    n_images: int
    n_scan_groups: int
    group_end: list[int]  # absolute file offset at which scan group g ends
    labels: list[int]
    header_lens: list[int]
    scan_lens: list[list[int]]  # [group][image]

    @property
    def index_bytes(self) -> int:
        """Size of the fixed index; the JPEG headers start at this offset."""
        return _index_struct(self.n_images, self.n_scan_groups).size

    def prefix_bytes(self, g: int) -> int:
        """Bytes that must be read to access the dataset at fidelity g."""
        if not 1 <= g <= self.n_scan_groups:
            raise ValueError(f"{self.path}: scan group {g} is outside "
                             f"1..{self.n_scan_groups}")
        return self.group_end[g - 1]


def write_pcr(path: str, images: list[tuple[bytes, int]]) -> PcrInfo:
    """Write progressive JPEGs (with labels) as one PCR file.

    ``images`` is a list of (progressive_jpeg_bytes, label). The encoder
    locates scan boundaries by scanning for JPEG markers (paper §5) and
    regroups the byte spans by scan index.
    """
    headers: list[bytes] = []
    scans: list[list[bytes]] = []  # [image][scan]
    labels: list[int] = []
    n_groups = None
    for data, label in images:
        (h0, h1), spans = markers.scan_spans(data)
        if n_groups is None:
            n_groups = len(spans)
        if len(spans) != n_groups:
            raise ValueError(f"{path}: image {len(headers)} has {len(spans)} scans, "
                             f"image 0 has {n_groups}; all must share the scan script")
        headers.append(data[h0:h1])
        scans.append([data[s:e] for s, e in spans])
        labels.append(int(label))

    n, g = len(images), n_groups
    header_lens = [len(h) for h in headers]
    scan_lens = [[len(scans[i][j]) for i in range(n)] for j in range(g)]
    info = PcrInfo(path, n, g, [], labels, header_lens, scan_lens)
    end = info.index_bytes + sum(header_lens)
    for lens in scan_lens:
        end += sum(lens)
        info.group_end.append(end)

    with open(path, "wb") as f:
        f.write(_index_struct(n, g).pack(
            MAGIC, n, g, *info.group_end, *labels, *header_lens,
            *(x for lens in scan_lens for x in lens),
        ))
        f.writelines(headers)
        for j in range(g):
            f.writelines(s[j] for s in scans)
    return info


def _read_index(f, path: str) -> PcrInfo:
    """Read and check the fixed index; raise ValueError naming ``path``
    when it cannot be a PCR index."""
    head = f.read(_HEAD.size)
    if len(head) < _HEAD.size or head[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a PCR file: {path}")
    _, n, g = _HEAD.unpack(head)
    index = _index_struct(n, g)
    size = os.fstat(f.fileno()).st_size
    if g < 1 or index.size > size:
        raise ValueError(f"damaged PCR index in {path}: {n} images and {g} "
                         f"scan groups need {index.size} index bytes, file has {size}")
    fields = iter(index.unpack(head + f.read(index.size - _HEAD.size))[3:])

    def take(k: int) -> list[int]:
        return list(itertools.islice(fields, k))

    group_end, labels, header_lens = take(g), take(n), take(n)
    scan_lens = [take(n) for _ in range(g)]
    # Each group ends where its scan lengths take it, which also makes
    # group_end non-decreasing.
    end = index.size + sum(header_lens)
    for j, lens in enumerate(scan_lens):
        end += sum(lens)
        if group_end[j] != end:
            raise ValueError(f"damaged PCR index in {path}: scan group {j + 1} "
                             f"ends at {group_end[j]}, its lengths end at {end}")
    return PcrInfo(path, n, g, group_end, labels, header_lens, scan_lens)


def read_index(path: str) -> PcrInfo:
    """Read only the fixed index of a PCR file (the in-memory metadata)."""
    with open(path, "rb") as f:
        return _read_index(f, path)


def read_pcr(path: str, scan_group: int) -> list[tuple[int, bytes]]:
    """Read a PCR at fidelity ``scan_group``; returns [(label, jpeg_bytes)].

    Reads the file prefix up to the requested scan group's end offset
    once, sequentially (the PCR access pattern): the index, then the
    headers and scan groups 1..g in one read. Each image's truncated
    progressive JPEG is then reassembled in memory. A file cut short
    serves the scan groups it fully holds, and raises ValueError naming
    ``path`` if that is none.
    """
    with open(path, "rb") as f:
        info = _read_index(f, path)
        g = max(1, min(scan_group, info.n_scan_groups))
        buf = f.read(info.prefix_bytes(g) - info.index_bytes)
    end = info.index_bytes + len(buf)
    g = bisect.bisect_right(info.group_end, end, hi=g)
    if g == 0:
        raise ValueError(f"truncated PCR file {path}: it ends at byte {end}, "
                         f"before scan group 1 ends at {info.group_end[0]}")

    parts: list[list[bytes]] = [[] for _ in range(info.n_images)]
    off = 0
    for lens in [info.header_lens, *info.scan_lens[:g]]:
        for i, ln in enumerate(lens):
            parts[i].append(buf[off : off + ln])
            off += ln
    return [
        (label, b"".join(p) + markers.EOI_BYTES)
        for label, p in zip(info.labels, parts)
    ]
