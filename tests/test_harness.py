"""Tests for the experiment harness (cluster config, formatting,
per-process dataset builds)."""
import os
import subprocess
import sys
import tempfile

import pandas as pd
import pytest

from repro import iosim
from repro.core import harness
from repro.core.analysis import scan_size_stats
from repro.core.dataset import collect_features, read_metadata
from repro.synth_images import SPECS, n_images


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


def test_get_or_build_caches(spark, monkeypatch):
    # A fresh memo: the first call builds, the second returns the same
    # directory without touching its files.
    monkeypatch.setattr(harness, "_BUILT", {})
    builds = []
    build = harness.build_pcr_dataset
    monkeypatch.setattr(harness, "build_pcr_dataset",
                        lambda *a, **k: builds.append(a) or build(*a, **k))
    out1 = harness.get_or_build(spark, "celeba_lite", sf=0.1)
    mtimes = {f: os.path.getmtime(os.path.join(out1, f)) for f in os.listdir(out1)}
    out2 = harness.get_or_build(spark, "celeba_lite", sf=0.1)
    assert out1 == out2 and len(builds) == 1
    assert {f: os.path.getmtime(os.path.join(out2, f)) for f in os.listdir(out2)} == mtimes


def test_get_or_build_never_serves_a_failed_build(spark, monkeypatch):
    # A build that writes one record file and dies is not recorded: the
    # next call builds the whole dataset again, in another directory.
    monkeypatch.setattr(harness, "_BUILT", {})
    build = harness.build_pcr_dataset
    partial = []

    def dies(spark, name, out, sf):
        open(os.path.join(out, "record_0000.pcr"), "wb").close()
        partial.append(out)
        raise RuntimeError("killed mid-build")

    monkeypatch.setattr(harness, "build_pcr_dataset", dies)
    with pytest.raises(RuntimeError, match="killed mid-build"):
        harness.get_or_build(spark, "celeba_lite", sf=0.1)
    monkeypatch.setattr(harness, "build_pcr_dataset", build)
    out = harness.get_or_build(spark, "celeba_lite", sf=0.1)
    assert out != partial[0]
    feats = collect_features(spark, out, 1)
    assert len(feats) == n_images(SPECS["celeba_lite"], 0.1)


def test_scratch_removes_the_builds_of_dead_processes(tmp_path, monkeypatch):
    """A build directory named for an exited child's pid is removed; one
    named for this process is kept, and this process's own is named so."""
    assert os.path.basename(harness._scratch().name).startswith(
        f"repro-data-{os.getpid()}-")
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    dead = tmp_path / f"repro-data-{child.pid}-abc"
    (dead / "celeba_lite_sf1_x").mkdir(parents=True)
    mine = tmp_path / f"repro-data-{os.getpid()}-def"
    mine.mkdir()
    harness._remove_dead_builds()
    assert not dead.exists()
    assert mine.exists()


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
