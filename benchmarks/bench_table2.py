"""Benchmark for Table 2: single-core decode at each fidelity."""
import pytest

from repro.core import pcr
from repro.core.dataset import record_paths, tfrecord_path
from repro.formats import tfrecord
from repro.jpeg import decode


@pytest.mark.parametrize("scan", [1, 2, 5, 10])
def test_bench_table2_decode_scan(benchmark, bench_dir, scan):
    jpegs = [j for _, j in pcr.read_pcr(record_paths(bench_dir)[0], scan)[:8]]
    for j in jpegs:
        decode(j)  # warm caches

    def run():
        for j in jpegs:
            decode(j)

    benchmark(run)


def test_bench_table2_decode_baseline(benchmark, bench_dir):
    path = tfrecord_path(record_paths(bench_dir)[0])
    jpegs = [j for _, j in tfrecord.read_tfrecord(path)[:8]]
    for j in jpegs:
        decode(j)

    def run():
        for j in jpegs:
            decode(j)

    benchmark(run)
