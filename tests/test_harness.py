"""Tests for the experiment harness (cluster config, formatting, caching)."""
import os

import pandas as pd
import pytest

from repro import iosim
from repro.core import harness
from repro.core.analysis import scan_size_stats
from repro.core.dataset import read_metadata


def test_cluster_rate_uses_paper_constants():
    assert iosim.N_NODES == 10
    assert iosim.cluster_rate("resnet_lite") == 450.0 * iosim.N_NODES
    assert iosim.cluster_rate("shufflenet_lite") == 750.0 * iosim.N_NODES


def test_reference_bandwidth_regime(spark, celeba_dir):
    """W is chosen so full fidelity is I/O bound at half the compute rate."""
    stats = scan_size_stats(read_metadata(spark, celeba_dir))
    W = iosim.reference_bandwidth(stats)
    mean_full = float(stats["mean_cum_10"])
    assert W / mean_full == pytest.approx(0.5 * iosim.cluster_rate("resnet_lite"))


def test_job_spark_hides_console_progress(spark):
    """Job output holds the report, not stage progress bars."""
    assert spark.conf.get("spark.ui.showConsoleProgress") == "false"


def test_dataset_dir_respects_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_DATA", str(tmp_path))
    assert harness.dataset_dir("x", 0.5) == os.path.join(str(tmp_path), "x_sf0.5")


def test_data_root_is_normalized_absolute(monkeypatch):
    monkeypatch.delenv("REPRO_DATA", raising=False)
    root = harness.data_root()
    assert os.path.isabs(root) and root == os.path.normpath(root)
    assert root == os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".data")


def test_get_or_build_caches(spark, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_DATA", str(tmp_path))
    out1 = harness.get_or_build(spark, "celeba_lite", sf=0.1)
    marker = os.path.join(out1, "record_0000.pcr")
    mtime = os.path.getmtime(marker)
    out2 = harness.get_or_build(spark, "celeba_lite", sf=0.1)
    assert out1 == out2
    assert os.path.getmtime(marker) == mtime  # not rebuilt


def test_fmt_table_markdown():
    pdf = pd.DataFrame({"a": [1, 2], "b": [0.5, 1.25]})
    s = harness.fmt_table(pdf)
    lines = s.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert len(lines) == 4


def test_fmt_table_float_formatting():
    pdf = pd.DataFrame({"x": [1234.5678]})
    assert "1.23e+03" in harness.fmt_table(pdf)


def test_jobs_importable_and_have_run():
    """Every job module exposes run(spark) (spark-submit contract)."""
    import importlib.util
    import sys

    jobs_dir = os.path.join(os.path.dirname(__file__), "..", "jobs")
    sys.path.insert(0, jobs_dir)
    try:
        names = [
            f[:-3]
            for f in os.listdir(jobs_dir)
            if f.endswith(".py") and not f.startswith("_")
        ]
        assert len(names) >= 12
        for name in names:
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(jobs_dir, f"{name}.py")
            )
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            assert callable(getattr(mod, "run")), name
    finally:
        sys.path.remove(jobs_dir)
