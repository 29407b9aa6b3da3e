"""Unit tests for the paper's cluster model.

The key property (the paper's own validation): the event-driven
simulation must converge to the closed-form Little's-law predictions.
"""
import pandas as pd
import pytest

from repro.iosim import (
    BANDWIDTH,
    MODEL_RATES,
    SEEK_LATENCY,
    MiB,
    fpi_epoch_time,
    read_time,
    reference_bandwidth,
    seconds_per_epoch,
    simulate_training,
    speedup_table,
    system_throughput,
    time_to_accuracy,
)


def test_system_throughput_min_rule():
    assert system_throughput(1e9, 100_000, 450) == 450  # compute bound
    assert system_throughput(1e6, 100_000, 450) == 10  # data bound


def test_epoch_time_scales_inverse_with_bandwidth_when_io_bound():
    t1 = 1000 / system_throughput(10 * MiB, 100_000, compute_rate=1e9)
    t2 = 1000 / system_throughput(20 * MiB, 100_000, compute_rate=1e9)
    assert t1 / t2 == pytest.approx(2.0)


def test_time_to_accuracy():
    accs = [0.1, 0.3, 0.6, 0.7]
    assert time_to_accuracy(accs, 0.6, 10.0) == 30.0
    assert time_to_accuracy(accs, 0.9, 10.0) is None


def test_model_rates_match_paper():
    assert MODEL_RATES["resnet_lite"] == 450.0
    assert MODEL_RATES["shufflenet_lite"] == 750.0


@pytest.mark.parametrize("bandwidth,compute_rate", [
    (50 * MiB, 450.0),   # heavily IO bound
    (500 * MiB, 450.0),  # compute bound
    (100 * MiB, 750.0),  # IO bound, fast model
])
def test_simulation_matches_closed_form(bandwidth, compute_rate):
    mean_bytes = 110_000
    res = simulate_training(
        n_records=400, images_per_record=64, mean_image_bytes=mean_bytes,
        bandwidth=bandwidth, compute_rate=compute_rate,
    )
    predicted = system_throughput(bandwidth, mean_bytes, compute_rate)
    assert res.throughput == pytest.approx(predicted, rel=0.02)


def test_simulation_io_bound_has_stalls_compute_bound_does_not():
    io_bound = simulate_training(100, 64, 110_000, 20 * MiB, 450.0)
    cpu_bound = simulate_training(100, 64, 110_000, 2_000 * MiB, 450.0)
    assert sum(io_bound.stall_times) > 0
    assert sum(cpu_bound.stall_times[2:]) == pytest.approx(0.0)


def test_simulation_speedup_proportional_to_data_reduction():
    # Theorem A.5 on the event simulation: halving bytes doubles speed
    # while IO bound.
    full = simulate_training(200, 64, 110_000, 20 * MiB, 1e9)
    half = simulate_training(200, 64, 55_000, 20 * MiB, 1e9)
    assert full.total_time / half.total_time == pytest.approx(2.0, rel=0.02)


def test_storage_model_fpi_much_slower_than_records():
    # Paper §6.2: File-per-Image is ~25x slower than record layouts.
    rec = read_time(100_000 * 7_000, 100)  # 1000-image records
    f = fpi_epoch_time(100_000, 7_000)
    assert f / rec > 10


def test_storage_read_time_components():
    # The paper's testbed: ~200 MiB/s sequential, ~8 ms per seek.
    assert (BANDWIDTH, SEEK_LATENCY) == (200 * MiB, 0.008)
    assert read_time(200 * MiB, 1) == pytest.approx(1.008)
    assert read_time(0, 5) == pytest.approx(0.04)



# A scan_size_stats-shaped row: per-scan cumulative means, the baseline
# mean and the image count.
_STATS = pd.Series({
    **{f"mean_cum_{g}": b for g, b in enumerate(
        [611.25, 1003.5, 1289.0, 1562.75, 2096.5, 2588.125, 3040.0, 3478.375,
         3867.5, 4210.625], 1)},
    "mean_baseline": 4391.875, "n_images": 400.0,
})


def test_model_outputs_are_pinned():
    """The modeled numbers of a fixed stats row, as exact floats, so a
    change to the model's code keeps every modeled cell bit-identical."""
    W = reference_bandwidth(_STATS)
    assert W == 9473906.25
    t = speedup_table(_STATS, "resnet_lite", W)
    assert t.index.tolist() == [f"scan_{g}" for g in range(1, 11)] + ["tfrecord"]
    assert t["mean_bytes"].tolist() == [
        611.25, 1003.5, 1289.0, 1562.75, 2096.5, 2588.125, 3040.0, 3478.375,
        3867.5, 4210.625, 4415.875]
    assert t["predicted_rate"].tolist() == [
        4500.0, 4500.0, 4500.0, 4500.0, 4500.0, 3660.5288577638253,
        3116.4165296052633, 2723.6586768246666, 2449.620232708468, 2250.0,
        2145.419933761712]
    assert seconds_per_epoch(_STATS, "resnet_lite", W).tolist() == [
        0.08888888888888889, 0.08888888888888889, 0.08888888888888889,
        0.08888888888888889, 0.08888888888888889, 0.10927382778355021,
        0.12835254729272838, 0.14686128016096844, 0.163290617320601,
        0.17777777777777778, 0.18644368578167006]
    assert seconds_per_epoch(_STATS, "shufflenet_lite", 0.125 * W).tolist() == [
        0.20646182771757954, 0.338952055811192, 0.43538535121138655,
        0.5278498507413455, 0.7081345142084343, 0.8741906222684017,
        1.026820378341827, 1.1748902412877475, 1.306324938564808,
        1.4222222222222223, 1.4915494862533605]
    sims = [simulate_training(64, 48, b, W, 4500.0) for b in (611.25, 4415.875)]
    assert [(r.total_time, r.throughput, sum(r.stall_times), max(r.stall_times))
            for r in sims] == [
        (0.6857635940824309, 4479.67787515815, 0.003096927415763693,
         0.003096927415763693),
        (1.442554173469892, 2129.5560724840375, 0.7598875068032256,
         0.022373242293800406)]
    assert read_time(1_234_567, 9) == 0.07788687419891359
    assert fpi_epoch_time(400, 4391.875) == 3.2083768367767336
