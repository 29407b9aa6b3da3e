"""Tests for the experiment harness functions over a prebuilt dataset.

These exercise the same code paths as jobs/ but against the session
fixtures (no full-scale dataset builds), asserting the *shape*
properties that EXPERIMENTS.md records.
"""
import os
import shutil

import numpy as np
import pytest

from repro.core import analysis, harness, pcr
from repro.core import experiments as cx
from repro.core.dataset import read_metadata, record_paths
from repro.train import experiments as tx


def _patch_harness(monkeypatch, name, out_dir):
    # Route harness.get_or_build to the existing session fixture dir.
    monkeypatch.setattr(
        harness, "get_or_build", lambda spark, n, sf=1.0: out_dir
    )


def test_seconds_per_epoch_monotone(spark, celeba_dir):
    stats = analysis.scan_size_stats(read_metadata(spark, celeba_dir))
    spe = tx.seconds_per_epoch(stats, "resnet_lite")
    times = [spe[f"scan_{g}"] for g in range(1, 11)]
    assert times == sorted(times)
    # Scan 10 is IO bound by 2x in the reference regime.
    assert times[-1] > 1.5 * times[0]


def test_each_figure_aggregates_its_dataset_once(spark, celeba_dir, monkeypatch):
    # Figs 5/7/14/16 run the sidecar's mean aggregation once per call
    # and price every scan group and model from that one row.
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    calls = []
    real = analysis.scan_size_stats

    def counting(meta):
        calls.append(meta)
        return real(meta)

    for mod in (analysis, harness, cx, tx):
        if hasattr(mod, "scan_size_stats"):
            monkeypatch.setattr(mod, "scan_size_stats", counting)
    figs = {
        "fig5": lambda: cx.fig5_throughput(spark, "celeba_lite", 0.25),
        "fig7": lambda: tx.fig7_time_to_accuracy(spark, "celeba_lite", 0.25,
                                                 scans=(1, 10)),
        "fig14": lambda: tx.fig14_autotune(spark, "celeba_lite", 0.25,
                                           epochs=6, tune_every=2),
        "fig16": lambda: tx.fig16_bandwidth_sweep(
            spark, "celeba_lite", 0.25, bandwidth_fracs=(0.1, 2.0),
            scans=(1, 10)),
    }
    for name, run in figs.items():
        calls.clear()
        run()
        assert len(calls) == 1, name


def test_load_scan_data_shapes(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    data = tx.load_scan_data(spark, "celeba_lite", 0.25, scans=(1, 10))
    assert set(data.X_by_scan) == {1, 10}
    assert data.X_by_scan[1].shape == data.X_by_scan[10].shape
    assert data.n_classes == 2
    assert len(data.y) == len(data.X_by_scan[1])
    assert len(data.yte) == len(data.Xte_by_scan[1])


def test_load_scan_data_standardized_per_scan(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    data = tx.load_scan_data(spark, "celeba_lite", 0.25, scans=(1, 10))
    for g in (1, 10):
        X = data.X_by_scan[g]
        assert np.abs(X.mean(axis=0)).max() < 1e-6
        assert np.abs(X).max() < 25  # min_std floor prevents blowups


def test_accuracy_curves_full_fidelity_learns(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    data = tx.load_scan_data(spark, "celeba_lite", 0.25, scans=(10,))
    curves = tx.accuracy_curves(data, epochs=20)
    assert len(curves[10]) == 20
    assert curves[10][-1] > 0.7


def test_fig7_table_columns(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    t = tx.fig7_time_to_accuracy(
        spark, "celeba_lite", 0.25, models=("resnet_lite",), scans=(1, 10)
    )
    assert set(t.columns) >= {
        "dataset", "model", "scan", "final_acc", "epoch_s", "time_to_target_s"
    }
    assert len(t) == 2
    # Higher scans cost more per epoch.
    t = t.sort_values("scan")
    assert t["epoch_s"].is_monotonic_increasing


def test_fig16_low_bandwidth_amplifies_scan_benefit(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    t = tx.fig16_bandwidth_sweep(
        spark, "celeba_lite", 0.25, models=("resnet_lite",),
        bandwidth_fracs=(0.1, 2.0), scans=(1, 10), target_frac=0.5,
    )
    lo = t[t["bandwidth_MiB_s"] == t["bandwidth_MiB_s"].min()]
    hi = t[t["bandwidth_MiB_s"] == t["bandwidth_MiB_s"].max()]

    def ratio(sub):
        s1 = sub[sub["scan"] == 1]["time_to_target_s"].iloc[0]
        s10 = sub[sub["scan"] == 10]["time_to_target_s"].iloc[0]
        return s10 / s1

    # Scan 1's advantage is larger at low bandwidth (paper Fig 16).
    assert ratio(lo) >= ratio(hi) - 1e-9


def test_fig6_similarity_ordered_by_fidelity(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    t = tx.fig6_gradient_similarity(
        spark, "celeba_lite", 0.25, scans=(1, 5, 10), checkpoints=(3,),
        probe_size=64,
    )
    row = t.iloc[0]
    assert row["scan_10"] == pytest.approx(1.0)
    assert row["scan_1"] <= row["scan_5"] + 0.05


def test_median_rates_are_items_over_median_pass_time(monkeypatch):
    """One untimed warm-up call of each pass, then round-robin timed
    calls; each rate is the pass's items over its median timed call,
    read from a fake clock."""
    clock = [0.0]
    durations = {"a": iter([100.0, 3.0, 1.0, 2.0, 9.0, 4.0]),  # warm-up first
                 "b": iter([50.0, 1.0, 2.0, 30.0, 0.5, 2.0])}
    calls = []
    monkeypatch.setattr(cx.time, "perf_counter", lambda: clock[0])

    def one_pass(key, items):
        calls.append(key)
        clock[0] += next(durations[key])
        return items

    rates = cx.median_rates({"a": lambda: one_pass("a", 12),
                             "b": lambda: one_pass("b", 5)})
    assert cx.TIMED_PASSES == 5
    assert rates == {"a": 12 / 3.0, "b": 5 / 2.0}
    assert calls == ["a", "b"] * (1 + cx.TIMED_PASSES)


def test_fig22_times_the_conversion_of_the_stored_records(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    monkeypatch.setattr(cx, "ALL_DATASETS", ["celeba_lite"])
    row = cx.fig22_encoding_times(spark).iloc[0]
    paths = record_paths(celeba_dir)
    meta = read_metadata(spark, celeba_dir).toPandas()
    assert row["pcr_bytes"] == sum(os.path.getsize(p) for p in paths)
    assert row["baseline_bytes"] == meta["baseline_bytes"].sum()
    assert row["pcr_convert_s"] > 0


def test_fig22_rejects_a_record_its_conversion_does_not_give(
        spark, celeba_dir, tmp_path, monkeypatch):
    out = str(tmp_path / "celeba_lite")
    shutil.copytree(celeba_dir, out)
    path = record_paths(out)[0]
    info = pcr.read_index(path)
    with open(path, "r+b") as f:  # flip a byte inside scan group 5
        f.seek(info.group_end[4] - 3)
        b = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([b[0] ^ 0x01]))
    _patch_harness(monkeypatch, "celeba_lite", out)
    monkeypatch.setattr(cx, "ALL_DATASETS", ["celeba_lite"])
    with pytest.raises(Exception, match="differs from the PCR conversion"):
        cx.fig22_encoding_times(spark)
