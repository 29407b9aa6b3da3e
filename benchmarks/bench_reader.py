"""Benchmark for Fig 24: PCR prefix reads per scan vs TFRecord reads."""
import pytest

from repro.core import pcr
from repro.core.dataset import record_paths, tfrecord_path
from repro.formats import tfrecord


@pytest.mark.parametrize("scan", [1, 5, 10])
def test_bench_reader_pcr_prefix(benchmark, bench_dir, scan):
    path = record_paths(bench_dir)[0]
    items = benchmark(pcr.read_pcr, path, scan)
    assert len(items) > 0


def test_bench_reader_tfrecord(benchmark, bench_dir):
    path = tfrecord_path(record_paths(bench_dir)[0])
    items = benchmark(tfrecord.read_tfrecord, path)
    assert len(items) > 0
