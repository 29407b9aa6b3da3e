"""Tests for the experiment harness functions over a prebuilt dataset.

These exercise the same code paths as jobs/ but against the session
fixtures (no full-scale dataset builds), asserting the *shape*
properties that EXPERIMENTS.md records.
"""
import itertools
import os
import shutil

import numpy as np
import pytest

from repro import iosim
from repro.core import analysis, harness, pcr
from repro.core import experiments as cx
from repro.core.dataset import read_metadata, record_paths
from repro.train import experiments as tx
from repro.train.model import EPOCHS


def _patch_harness(monkeypatch, name, out_dir):
    # Route harness.get_or_build to the existing session fixture dir.
    monkeypatch.setattr(
        harness, "get_or_build", lambda spark, n, sf=1.0: out_dir
    )


def test_seconds_per_epoch_monotone(spark, celeba_dir):
    stats = analysis.scan_size_stats(read_metadata(spark, celeba_dir))
    spe = iosim.seconds_per_epoch(stats, "resnet_lite", iosim.reference_bandwidth(stats))
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
        "fig5": lambda: cx.fig5_throughput(spark, "resnet_lite", 0.25),
        "fig7": lambda: tx.fig7_time_to_accuracy(spark, "celeba_lite", 0.25),
        "fig14": lambda: tx.fig14_autotune(spark, 0.25),
        "fig16": lambda: tx.fig16_bandwidth_sweep(spark, 0.25),
    }
    for name, run in figs.items():
        calls.clear()
        run()
        assert len(calls) == 1, name


def test_load_scan_data_shapes(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    data = tx.load_scan_data(spark, "celeba_lite", 0.25)
    assert list(data.X_by_scan) == list(analysis.TABLE_SCANS)
    assert data.X_by_scan[1].shape == data.X_by_scan[10].shape
    assert data.n_classes == 2
    assert len(data.y) == len(data.X_by_scan[1])
    assert len(data.yte) == len(data.Xte_by_scan[1])


def test_load_scan_data_standardized_per_scan(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    data = tx.load_scan_data(spark, "celeba_lite", 0.25)
    for g in analysis.TABLE_SCANS:
        X = data.X_by_scan[g]
        assert np.abs(X.mean(axis=0)).max() < 1e-6
        assert np.abs(X).max() < 25  # the MIN_STD floor prevents blowups


def test_accuracy_curves_full_fidelity_learns(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    data = tx.load_scan_data(spark, "celeba_lite", 0.25)
    curves = tx.accuracy_curves(data)
    assert len(curves[10]) == EPOCHS
    assert curves[10][-1] > 0.7


def test_fig7_table_columns(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    t = tx.fig7_time_to_accuracy(
        spark, "celeba_lite", 0.25, models=("resnet_lite",)
    )
    assert set(t.columns) >= {
        "dataset", "model", "scan", "final_acc", "epoch_s", "time_to_target_s"
    }
    assert list(t["scan"]) == list(analysis.TABLE_SCANS)
    # Higher scans cost more per epoch.
    t = t.sort_values("scan")
    assert t["epoch_s"].is_monotonic_increasing


def test_fig16_low_bandwidth_amplifies_scan_benefit(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    t = tx.fig16_bandwidth_sweep(spark, 0.25)
    assert len(t) == len(tx.MODELS) * len(tx.BANDWIDTH_FRACS) * len(analysis.TABLE_SCANS)
    for model in tx.MODELS:
        m = t[t["model"] == model]
        lo = m[m["bandwidth_MiB_s"] == m["bandwidth_MiB_s"].min()]
        hi = m[m["bandwidth_MiB_s"] == m["bandwidth_MiB_s"].max()]

        def ratio(sub):
            s1 = sub[sub["scan"] == 1]["time_to_target_s"].iloc[0]
            s10 = sub[sub["scan"] == 10]["time_to_target_s"].iloc[0]
            return s10 / s1

        # Scan 1's advantage is larger at low bandwidth (paper Fig 16).
        assert ratio(lo) >= ratio(hi) - 1e-9, model


def test_fig6_similarity_ordered_by_fidelity(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    t = tx.fig6_gradient_similarity(spark, 0.25)
    assert list(t["epoch"]) == list(tx.CHECKPOINTS)
    row = t.iloc[0]
    assert row["scan_10"] == pytest.approx(1.0)
    assert row["scan_1"] <= row["scan_5"] + 0.05


def _fake_clock(monkeypatch, durations):
    """Monkeypatch ``time.perf_counter`` with a clock that only moves when
    a pass is called: ``durations[key]`` yields each call's seconds.
    Returns (calls, stamps, one_pass): the keys called, every clock
    reading, and ``one_pass(key, items)``."""
    clock = [0.0]
    stamps, calls = [], []

    def read_clock():
        stamps.append(clock[0])
        return clock[0]

    monkeypatch.setattr(cx.time, "perf_counter", read_clock)

    def one_pass(key, items):
        calls.append(key)
        clock[0] += next(durations[key])
        return items

    return calls, stamps, one_pass


def test_median_rates_are_items_over_median_pass_time(monkeypatch):
    """One untimed warm-up call of each pass, then its repeat count
    doubles from 1 until that many calls last ``MIN_PASS_S``; then
    round-robin timed passes of that many calls. Each rate is a pass's
    items over its median timed pass, read from a fake clock, and no
    timed pass is shorter than ``MIN_PASS_S``."""
    # a: sizing groups of 1, 2, 4 calls last .02 .04 .08 -> 4 calls a
    # pass; b: its first sizing call lasts .06 -> 1 call.
    durations = {"a": iter([0.02,
                            0.02,  0.02, 0.02,  0.02, 0.02, 0.02, 0.02,
                            0.02, 0.03, 0.02, 0.02,  0.02, 0.02, 0.025, 0.02,
                            0.02, 0.02, 0.02, 0.04,  0.02, 0.02, 0.02, 0.02,
                            0.02, 0.02, 0.02, 0.03]),
                 "b": iter([0.06, 0.06, 0.06, 0.07, 0.08, 0.06, 0.09])}
    calls, stamps, one_pass = _fake_clock(monkeypatch, durations)
    rates = cx.median_rates({"a": lambda: one_pass("a", 12),
                             "b": lambda: one_pass("b", 5)})
    assert (cx.TIMED_PASSES, cx.MIN_PASS_S) == (5, 0.05)
    assert calls == (["a"] * (1 + 1 + 2 + 4) + ["b"] * 2
                     + (["a"] * 4 + ["b"]) * cx.TIMED_PASSES)
    # Timed passes of a: .09 .085 .10 .08 .09; of b: .06 .07 .08 .06 .09.
    assert rates == pytest.approx({"a": 4 * 12 / 0.09, "b": 5 / 0.07})
    pass_s = np.diff(stamps)[::2]  # each stamp pair brackets one call group
    assert pass_s == pytest.approx([0.02, 0.04, 0.08, 0.06]
                                   + [0.09, 0.06, 0.085, 0.07, 0.10, 0.08,
                                      0.08, 0.06, 0.09, 0.09])


def test_median_rates_cold_first_call_does_not_shorten_passes(monkeypatch):
    # The first call is 10x slower than the rest (cold caches, lazy
    # imports): sized from it, a timed pass would last 2 warm calls.
    durations = {"a": itertools.chain([0.03], itertools.repeat(0.003))}
    _, stamps, one_pass = _fake_clock(monkeypatch, durations)
    cx.median_rates({"a": lambda: one_pass("a", 1)})
    timed_s = np.diff(stamps)[::2][-cx.TIMED_PASSES:]
    assert (timed_s >= cx.MIN_PASS_S - 1e-12).all(), timed_s


def test_median_rates_slow_sizing_group_does_not_shorten_passes(monkeypatch):
    # Calls last .02 s, but one call of the 2-call sizing group lasts
    # .05: that group (.07) ends the doubling. Sized from it, a timed
    # pass would be 2 calls (.04 s); the 1-call group's .02 s per call
    # sizes it at ceil(.05 / .02) = 3 calls.
    durations = {"a": itertools.chain([0.02, 0.02, 0.02, 0.05],
                                      itertools.repeat(0.02))}
    calls, stamps, one_pass = _fake_clock(monkeypatch, durations)
    cx.median_rates({"a": lambda: one_pass("a", 1)})
    assert len(calls) == 1 + 1 + 2 + 3 * cx.TIMED_PASSES
    timed_s = np.diff(stamps)[::2][-cx.TIMED_PASSES:]
    assert timed_s == pytest.approx([0.06] * cx.TIMED_PASSES)
    assert (timed_s >= cx.MIN_PASS_S - 1e-12).all(), timed_s


def test_fig24_reader_rows(spark, celeba_dir, monkeypatch):
    _patch_harness(monkeypatch, "celeba_lite", celeba_dir)
    t = cx.fig24_reader(spark, 0.25).set_index("config")
    scans = [f"scan_{g}" for g in analysis.TABLE_SCANS]
    assert list(t.index) == scans + ["tfrecord", "file_per_image"]
    assert (np.diff(t.loc[scans, "bytes_per_img"]) > 0).all()
    assert (np.diff(t.loc[scans, "modeled_img_s"]) < 0).all()
    # Per-image seeks: File-per-Image is an order of magnitude slower.
    assert t.loc["file_per_image", "modeled_img_s"] * 10 <= t.loc["tfrecord", "modeled_img_s"]
    measured = t.loc[scans + ["tfrecord"], "measured_img_s"].to_numpy()
    assert np.isfinite(measured).all() and (measured > 0).all()


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
