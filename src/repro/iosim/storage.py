"""Storage cost model: seek latency + bandwidth-proportional transfer.

This is exactly the model the paper's appendix assumes ("read latencies
are proportional to the number of bytes read — reading at bandwidth W
is achieved after an input-size-independent setup cost", Lemma A.1).
Record layouts pay one seek per record; File-per-Image pays one seek
per image, which is where the paper's 25x epoch blowup comes from.

The constants approximate the paper's testbed: 7200RPM HDD (~8 ms seek)
delivering ~200 MiB/s sequential per OSD stream.
"""
MiB = 1 << 20
BANDWIDTH = 200 * MiB  # bytes/second sustained sequential
SEEK_LATENCY = 0.008  # seconds per random access


def read_time(nbytes: int, n_seeks: int) -> float:
    """Seconds to service ``nbytes`` split over ``n_seeks`` random reads."""
    return n_seeks * SEEK_LATENCY + nbytes / BANDWIDTH


def fpi_epoch_time(n_images: int, mean_image_bytes: float) -> float:
    """Epoch read time for File-per-Image (one seek per image)."""
    return read_time(int(n_images * mean_image_bytes), n_images)
