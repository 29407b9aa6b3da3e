"""Closed-system training-pipeline model (paper §4.1, Appendix A.2).

Closed-form side: Little's-law throughput ``X_g = W / E[s(x, g)]``
(Lemma A.2) and the system bound ``X = min(X_c, X_g)`` (Lemma A.4);
``analysis.speedup_table`` prices each scan group of a dataset with them.

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
PREFETCH_DEPTH = 2  # records the loader may hold ahead of compute (double buffer)


def data_throughput(bandwidth: float, mean_image_bytes: float) -> float:
    """Lemma A.2: images/second the loader can sustain at bandwidth W."""
    return bandwidth / mean_image_bytes


def system_throughput(bandwidth: float, mean_image_bytes: float,
                      compute_rate: float) -> float:
    """Lemma A.4: X = min(X_c, X_g)."""
    return min(compute_rate, data_throughput(bandwidth, mean_image_bytes))


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
