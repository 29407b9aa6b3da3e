"""Closed-system training-pipeline model (paper §4.1, Appendix A.2).

Closed-form side: Little's-law throughput ``X_g = W / E[s(x, g)]``
(Lemma A.2), the system bound ``X = min(X_c, X_g)`` (Lemma A.4), and
the data-bound speedup ratio of mean sizes (Theorem 4.1/A.5).

Event-driven side: ``simulate_training`` runs the paper's Figure 17
two-stage system (loader feeding a prefetch queue, compute draining
it) and reports total time plus per-batch stall times — the Figure 18
stall traces. Tests assert the event simulation converges to the
closed-form prediction, which is the paper's own validation.

Per-node compute rates default to the paper's measured values (§A.5):
ResNet-18 450 img/s/node, ShuffleNetv2 750 img/s/node on a TitanX.
"""
from dataclasses import dataclass

# Paper §A.5 single-node training rates (images/second).
MODEL_RATES = {"resnet_lite": 450.0, "shufflenet_lite": 750.0}


def data_throughput(bandwidth: float, mean_image_bytes: float) -> float:
    """Lemma A.2: images/second the loader can sustain at bandwidth W."""
    return bandwidth / mean_image_bytes


def system_throughput(bandwidth: float, mean_image_bytes: float,
                      compute_rate: float) -> float:
    """Lemma A.4: X = min(X_c, X_g)."""
    return min(compute_rate, data_throughput(bandwidth, mean_image_bytes))


def max_speedup(mean_bytes_full: float, mean_bytes_reduced: float) -> float:
    """Theorem 4.1: data-bound speedup = ratio of mean sample sizes."""
    return mean_bytes_full / mean_bytes_reduced


def epoch_time(n_images: int, bandwidth: float, mean_image_bytes: float,
               compute_rate: float) -> float:
    """Seconds per epoch under the closed-form system throughput."""
    return n_images / system_throughput(bandwidth, mean_image_bytes, compute_rate)


def time_to_accuracy(acc_per_epoch: list[float], target: float,
                     seconds_per_epoch: float) -> float | None:
    """Simulated seconds to first reach ``target`` accuracy (None if never)."""
    for e, a in enumerate(acc_per_epoch):
        if a >= target:
            return (e + 1) * seconds_per_epoch
    return None


@dataclass
class SimResult:
    total_time: float
    stall_times: list[float]  # per-batch compute-side stall (seconds)
    throughput: float  # images/second achieved


def simulate_training(n_records: int, images_per_record: int,
                      mean_image_bytes: float, bandwidth: float,
                      compute_rate: float, prefetch_depth: int = 2,
                      seek_latency: float = 0.0) -> SimResult:
    """Event-driven double-buffer loader -> compute simulation (Fig 17/18).

    The loader is a closed system (fetches the next record as soon as a
    prefetch slot frees); compute drains records first-come-first-serve
    and stalls when the queue is empty.
    """
    fetch_time = seek_latency + images_per_record * mean_image_bytes / bandwidth
    compute_time = images_per_record / compute_rate
    ready: list[float] = []  # completion times of fetched-not-consumed records
    loader_free = 0.0
    clock = 0.0
    stalls = []
    fetched = 0
    # Prime the prefetch queue.
    while fetched < min(prefetch_depth, n_records):
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
