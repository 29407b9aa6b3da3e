"""The paper's cluster model (§4.1, §6.1, Appendix A): every modeled
number lives here, and none of them is a wall-clock measurement.

* Storage (Lemma A.1): a read costs an input-size-independent seek plus
  its bytes at bandwidth W. Record layouts pay one seek per record;
  File-per-Image pays one per image, which is where the paper's 25x
  epoch blowup comes from. The constants approximate the paper's
  testbed: a 7200RPM HDD (~8 ms seek) delivering ~200 MiB/s sequential
  per OSD stream.
* Rates (Lemmas A.2-A.4): the loader sustains ``X_g = W / E[s(x, g)]``
  images/s and training runs at ``X = min(X_c, X_g)``. ``speedup_table``
  prices each scan group of a dataset's ``analysis.scan_size_stats`` row
  with it, and ``seconds_per_epoch`` turns those rates into epoch times.
* The cluster: ``N_NODES`` training nodes at the paper's measured
  per-node rates (§A.5), with the storage bandwidth chosen so the
  full-fidelity dataset is I/O bound at half the compute rate — the same
  regime as the paper's Figure 5 cluster (which pulls 450 MB/s against
  ~400 MiB/s of storage). Our synthetic images are ~20x smaller than
  ImageNet's, so expressing bandwidth through this regime (rather than
  copying 400 MiB/s verbatim) preserves which configurations are I/O
  bound. See DESIGN.md "Simulated time vs wall-clock".
* The Figure 17 system: ``simulate_training`` runs a loader feeding a
  prefetch queue that compute drains, and reports total time plus
  per-batch stall times (the Figure 18 traces). Tests assert it converges
  to the closed form, which is the paper's own validation.
"""
from dataclasses import dataclass

import pandas as pd

from repro.formats import tfrecord
from repro.jpeg import N_SCANS

MiB = 1 << 20
BANDWIDTH = 200 * MiB  # bytes/second sustained sequential
SEEK_LATENCY = 0.008  # seconds per random access
# Paper §A.5 single-node training rates (images/second) on a TitanX:
# ResNet-18 450 img/s/node, ShuffleNetv2 750 img/s/node.
MODEL_RATES = {"resnet_lite": 450.0, "shufflenet_lite": 750.0}
N_NODES = 10  # paper: 10 training workers (20 in the "heavy" runs)
PREFETCH_DEPTH = 2  # records the loader may hold ahead of compute (double buffer)


def read_time(nbytes: int, n_seeks: int) -> float:
    """Seconds to service ``nbytes`` split over ``n_seeks`` random reads."""
    return n_seeks * SEEK_LATENCY + nbytes / BANDWIDTH


def fpi_epoch_time(n_images: int, mean_image_bytes: float) -> float:
    """Epoch read time for File-per-Image (one seek per image)."""
    return read_time(int(n_images * mean_image_bytes), n_images)


def cluster_rate(model: str) -> float:
    """Aggregate compute rate (images/s) of the ``N_NODES`` training nodes."""
    return MODEL_RATES[model] * N_NODES


def reference_bandwidth(stats: pd.Series) -> float:
    """Cluster storage bandwidth (bytes/s) for the Figure-5 regime.

    Chosen so full-fidelity (scan 10) data throughput is half the
    ``resnet_lite`` cluster compute rate — scan 10 I/O bound by 2x, scan
    5 (~half the bytes) right at the compute limit, matching the paper's
    cluster.
    """
    return 0.5 * cluster_rate("resnet_lite") * float(stats["mean_cum_10"])


def system_throughput(bandwidth: float, mean_image_bytes: float,
                      compute_rate: float) -> float:
    """Lemma A.4: X = min(X_c, X_g), with X_g = W / E[s] (Lemma A.2)."""
    return min(compute_rate, bandwidth / mean_image_bytes)


def speedup_table(stats: pd.Series, model: str, bandwidth: float) -> pd.DataFrame:
    """Predicted cluster throughput of ``model`` per scan group and for
    TFRecord (Fig 5 'Predicted' series): ``system_throughput`` at each
    config's mean image bytes, indexed by config ``scan_1..scan_10,
    tfrecord``. A TFRecord image costs its baseline JPEG plus the record
    framing.
    """
    rate = cluster_rate(model)
    mean_bytes = {f"scan_{g}": stats[f"mean_cum_{g}"] for g in range(1, N_SCANS + 1)}
    mean_bytes["tfrecord"] = stats["mean_baseline"] + tfrecord.RECORD_OVERHEAD
    return pd.DataFrame(
        [
            {
                "config": config,
                "mean_bytes": float(b),
                "predicted_rate": system_throughput(bandwidth, float(b), rate),
            }
            for config, b in mean_bytes.items()
        ]
    ).set_index("config")


def seconds_per_epoch(stats: pd.Series, model: str, bandwidth: float) -> pd.Series:
    """Cluster epoch time per ``speedup_table`` config: the dataset's
    images over its predicted rate."""
    return stats["n_images"] / speedup_table(stats, model, bandwidth)["predicted_rate"]


def time_to_accuracy(acc_per_epoch: list[float], target: float,
                     epoch_s: float) -> float | None:
    """Simulated seconds to first reach ``target`` accuracy (None if never)."""
    for e, a in enumerate(acc_per_epoch):
        if a >= target:
            return (e + 1) * epoch_s
    return None


@dataclass
class SimResult:
    total_time: float
    stall_times: list[float]  # per-batch compute-side stall (seconds)
    throughput: float  # images/second achieved


def simulate_training(n_records: int, images_per_record: int,
                      mean_image_bytes: float, bandwidth: float,
                      compute_rate: float) -> SimResult:
    """Event-driven double-buffer loader -> compute simulation (Fig 17/18).

    The loader is a closed system (fetches the next record as soon as a
    prefetch slot frees); compute drains records first-come-first-serve
    and stalls when the queue is empty.
    """
    fetch_time = images_per_record * mean_image_bytes / bandwidth
    compute_time = images_per_record / compute_rate
    ready: list[float] = []  # completion times of fetched-not-consumed records
    loader_free = 0.0
    clock = 0.0
    stalls = []
    fetched = 0
    # Prime the prefetch queue.
    while fetched < min(PREFETCH_DEPTH, n_records):
        loader_free += fetch_time
        ready.append(loader_free)
        fetched += 1
    for _ in range(n_records):
        avail = ready.pop(0)
        stall = max(0.0, avail - clock)
        stalls.append(stall)
        take_time = max(clock, avail)  # compute dequeues, freeing a slot
        clock = take_time + compute_time
        if fetched < n_records:
            loader_free = max(loader_free, take_time) + fetch_time
            ready.append(loader_free)
            fetched += 1
    n_images = n_records * images_per_record
    return SimResult(clock, stalls, n_images / clock)
