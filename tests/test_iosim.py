"""Unit tests for the storage/pipeline performance model.

The key property (the paper's own validation): the event-driven
simulation must converge to the closed-form Little's-law predictions.
"""
import numpy as np
import pytest

from repro.iosim.pipeline import (
    MODEL_RATES,
    data_throughput,
    simulate_training,
    system_throughput,
    time_to_accuracy,
)
from repro.iosim.storage import BANDWIDTH, SEEK_LATENCY, MiB, fpi_epoch_time, read_time


def test_data_throughput_is_w_over_mean_size():
    assert data_throughput(110_000 * 500, 110_000) == pytest.approx(500)


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

