"""Benchmark of the PCR pipeline: the Spark loader at scan groups 1 and 10.

Run from the repository root:

    python3 perfbench/run.py --workload load-scan1 --seed 1 --seconds 12 --trace 0

Each run starts a ``local[k]`` Spark session, k = min(4, cpus), from
this one driver process, and sets up: it builds a fresh dataset with
``build_pcr_dataset`` (generate, baseline encode, progressive transcode,
PCR and TFRecord write, parquet metadata) and loads it for a few
warm-up epochs. It then times ``collect_features`` epochs at the workload's
scan group for ``--seconds`` seconds, and checks the dataset and the
delivered rows (``checks.py``). The build is the encode path's
measurement: its rate, its bytes and the set-up time it dominates.

The seed names a copy of the ``imagenet_lite`` spec registered in
``synth_images.SPECS``, so it selects the images; the program sees only
the records built from them. The dataset lives in a fresh directory
under ``.perfbench/`` that the run removes at the end.

With ``--trace 1`` the run also records spans around the Spark calls and
around each layer call of a serial replay of one sampled record, times
``load_features().count()``, writes the spans to ``.perfbench/traces/``
and prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: ``attempted`` is
the number of records built, ``failed`` the number that any check
rejected (``failed_record_frac`` is their ratio).
"""
import argparse
import dataclasses
import hashlib
import io
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

# workload -> scan group its epochs read
WORKLOADS = {"load-scan1": 1, "load-scan10": 10}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much data one run builds and checks."""

    records: int = 8  # two records per core
    images_per_record: int = 48  # as in imagenet_lite
    sample_images: int = 16  # serially replayed in an untraced run
    count_reps: int = 3  # load_features().count() timings in a traced run
    # Warm-up epochs run for this long (at least one): the epoch rate
    # keeps rising for a few epochs after the first.
    warmup_s: float = 8.0


def median_q(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q1, q3


def source_id() -> str:
    """Git commit when there is one, and a hash of the program's sources."""
    commit = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() or "none"
    h = hashlib.sha1()
    for p in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + p.read_bytes())
    return f"commit={commit} src_sha1={h.hexdigest()[:12]}"


def configure(work: Path, k: int) -> None:
    """Point Python, Spark and its workers at the checkout's sources and
    keep their temporary files inside ``work``. Must run before pyspark
    is imported."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    # spark-submit runs a launcher JVM before the driver JVM; neither
    # may write its perf data or temporary files outside the checkout.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    java = (f"-Dlog4j2.configurationFile=file:{BENCH / 'log4j2.properties'} "
            f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{k}]", "--driver-memory 1g",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf spark.driver.host=127.0.0.1",
        "--driver-java-options", shlex.quote(java), "pyspark-shell",
    ])


def start_spark():
    from repro.core import harness

    spark = harness.job_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = gateway.proc
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


class Bench:
    """One run: a Spark session, a work directory, a seeded spec, a tracer."""

    def __init__(self, spark, k: int, work: Path, spec, sizes: Sizes, tracer):
        self.spark, self.k, self.work = spark, k, work
        self.spec, self.sizes, self.tracer = spec, sizes, tracer

    def build(self, name: str) -> tuple[str, float]:
        from repro.core.dataset import build_pcr_dataset

        ds = str(self.work / name)
        t = time.perf_counter()
        with self.tracer.span("core.dataset.build_pcr_dataset"):
            build_pcr_dataset(self.spark, self.spec.name, ds)
        return ds, time.perf_counter() - t

    def collect(self, ds: str, scan: int):
        from repro.core.dataset import collect_features

        t = time.perf_counter()
        with self.tracer.span("core.dataset.collect_features"):
            pdf = collect_features(self.spark, ds, scan)
        return pdf, time.perf_counter() - t

    def count(self, ds: str, scan: int) -> float:
        from repro.core.dataset import load_features

        t = time.perf_counter()
        with self.tracer.span("core.dataset.load_features.count"):
            load_features(self.spark, ds, scan).count()
        return time.perf_counter() - t


def repeat_for(step, seconds: float) -> list:
    """Call ``step`` until ``seconds`` have passed, at least once; return its results."""
    out, end = [], time.perf_counter() + seconds
    while True:
        out.append(step())
        if time.perf_counter() >= end:
            return out


def timed_loop(step, seconds: float, tracer) -> tuple[list, float | None]:
    """``repeat_for`` the measured window. A traced run spends the first
    half with spans off and the second with spans on, and also returns
    the tracing overhead in % of the median (result, seconds) step time."""
    if not tracer.enabled:
        return repeat_for(step, seconds), None
    tracer.enabled = False
    plain = repeat_for(step, seconds / 2)
    tracer.enabled = True
    traced = repeat_for(step, seconds / 2)
    off = statistics.median(r[1] for r in plain)
    on = statistics.median(r[1] for r in traced)
    return plain + traced, 100.0 * (on / off - 1.0)


def run_workload(b: Bench, workload: str, seconds: float, t0: float,
                 seed: int, say) -> tuple[dict, int, int]:
    """Set up, measure and check one workload; returns (metrics, attempted, failed)."""
    import checks
    from repro.core.dataset import record_paths

    scan = WORKLOADS[workload]
    sz, tr = b.sizes, b.tracer
    failed: set[str] = set()
    pdf = None

    # Set-up, timed from t0 (before the session started): build, warm-up epochs.
    ds, build_s = b.build("data")
    try:
        repeat_for(lambda: b.collect(ds, scan), sz.warmup_s)
    except Exception:  # the epochs below fail the same way and are counted
        traceback.print_exc()
    setup_s = time.perf_counter() - t0

    records = record_paths(ds)
    meta = checks.read_meta(ds)
    checked = checks.check_records(records, meta, scan, tr)
    failed |= checked["failed"]
    expected = checks.expected_rows(records, checked)
    n_images = len(meta)

    def epoch():
        nonlocal pdf
        try:
            pdf, dt = b.collect(ds, scan)
        except Exception:  # a failed Spark job fails every record it read
            traceback.print_exc()
            failed.update(records)
            return None, float("inf")
        failed.update(checks.epoch_failures(pdf, expected, records))
        return len(pdf) / dt, dt

    t_measure = time.perf_counter()
    epochs, overhead = timed_loop(epoch, seconds, tr)
    load_rates = [r for r, _ in epochs if r is not None]
    t_check = time.perf_counter()

    rec = records[seed % len(records)]  # the sampled record
    n_sample = sz.images_per_record if tr.enabled else sz.sample_images
    if rec not in failed:
        try:
            if not checks.check_sample(pdf, rec, checked, meta, b.spec,
                                       n_sample, str(b.work), tr):
                failed.add(rec)
        except Exception:  # a damaged record may break the decoder itself
            traceback.print_exc()
            failed.add(rec)
    t_done = time.perf_counter()

    images = max(checked["images"], 1)
    build_rate = n_images / build_s
    say(f"regime workload={workload} seed={seed} spec={b.spec.name} "
        f"master=local[{b.k}] "
        f"k={b.k} scan={scan} images={n_images} records={len(records)} "
        f"images_per_record={sz.images_per_record} {source_id()}")
    say(f"bytes pcr={checked['pcr_bytes']} baseline={checked['baseline_bytes']} "
        f"read_per_epoch={checked['prefix_bytes']} "
        f"reassembled_per_epoch={checked['reassembled_bytes']}")
    if load_rates:
        m, q1, q3 = median_q(load_rates)
        say(f"samples load_img_per_s n={len(load_rates)} median={m:.4f} "
            f"q1={q1:.4f} q3={q3:.4f} img/s all="
            + ",".join(f"{x:.4f}" for x in load_rates))
    say(f"failed_record_frac {len(failed) / len(records):.4f} "
        f"({len(failed)}/{len(records)} records)")
    say(f"phases setup_s={setup_s:.3f} build_s={build_s:.3f} "
        f"measure_s={t_check - t_measure:.3f} "
        f"sample_check_s={t_done - t_check:.3f}")

    if not tr.enabled:
        metrics = {
            "load_img_per_s": (
                statistics.median(load_rates) if load_rates else 0.0, "img/s"),
            "encode_img_per_s": (build_rate, "img/s"),
            "read_bytes_per_img": (checked["prefix_bytes"] / images, "B"),
            "pcr_bytes_per_baseline_byte": (
                checked["pcr_bytes"] / max(checked["baseline_bytes"], 1), "ratio"),
            "setup_s": (setup_s, "s"),
            "driver_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "MB"),
        }
        return metrics, len(records), len(failed)

    # Traced run: time the count action, then derive per-layer metrics
    # from the spans of the Spark calls and of the serial replay.
    count_s = statistics.median(b.count(ds, scan) for _ in range(sz.count_reps))
    collect_s = statistics.median(dt for _, dt in epochs)
    n_rep = max(1, min(n_sample, len(checked["items"].get(rec, []))))

    def ms(name: str) -> float:
        return tr.total(name) / n_rep * 1e3

    read_ms = tr.total("core.pcr.read_pcr") / images * 1e3
    serial_load_ms = (read_ms + ms("jpeg.decoder.decode_to_coeffs")
                      + ms("jpeg.codec.inverse")
                      + ms("train.features.extract_features"))
    serial_encode_ms = sum(ms(n) for n in (
        "synth_images.generate_image", "jpeg.encode_baseline",
        "jpeg.transcode.baseline_to_progressive", "core.pcr.write_pcr",
        "formats.tfrecord.write_tfrecord"))
    count_rate = n_images / count_s
    metrics = {
        "jpeg.markers.parse.ms_per_img": (ms("jpeg.markers.parse"), "ms"),
        "jpeg.decoder.entropy.ms_per_img": (
            tr.self_time("jpeg.decoder.decode_to_coeffs") / n_rep * 1e3, "ms"),
        "jpeg.codec.inverse.ms_per_img": (ms("jpeg.codec.inverse"), "ms"),
        "train.features.extract_features.ms_per_img": (
            ms("train.features.extract_features"), "ms"),
        "core.pcr.read_pcr.ms_per_img": (read_ms, "ms"),
        "core.pcr.prefix_bytes_per_img": (
            checked["reassembled_bytes"] / images, "B"),
        "core.dataset.load_features.img_per_s": (count_rate, "img/s"),
        # Spark rate / (k x serial rate of the same layers)
        "core.dataset.load_features.parallel_efficiency": (
            count_rate * serial_load_ms / 1e3 / b.k, "ratio"),
        "core.dataset.collect_features.extra_ms_per_img": (
            (collect_s - count_s) / n_images * 1e3, "ms"),
        "synth_images.generate_image.ms_per_img": (
            ms("synth_images.generate_image"), "ms"),
        "jpeg.encode_baseline.ms_per_img": (ms("jpeg.encode_baseline"), "ms"),
        "jpeg.transcode.decode_to_coeffs.ms_per_img": (
            ms("jpeg.transcode.decode_to_coeffs"), "ms"),
        "jpeg.transcode.encode_progressive.ms_per_img": (
            ms("jpeg.transcode.encode_progressive"), "ms"),
        "core.pcr.write_pcr.ms_per_img": (ms("core.pcr.write_pcr"), "ms"),
        "formats.tfrecord.write_tfrecord.ms_per_img": (
            ms("formats.tfrecord.write_tfrecord"), "ms"),
        "core.dataset.build_pcr_dataset.parallel_efficiency": (
            build_rate * serial_encode_ms / 1e3 / b.k, "ratio"),
        "core.pcr.bytes_written_per_img": (checked["pcr_bytes"] / images, "B"),
        "trace.overhead_pct": (overhead, "%"),
    }
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_path = WORK / "traces" / f"{workload}-{b.spec.name}.jsonl"
    tr.dump(trace_path)
    say(f"trace spans={len(tr.spans)} file={trace_path.relative_to(ROOT)} "
        f"read_bytes_per_img={checked['prefix_bytes'] / images:.4f} "
        f"serial_load_ms_per_img={serial_load_ms:.4f} "
        f"serial_encode_ms_per_img={serial_encode_ms:.4f}")
    return metrics, len(records), len(failed)


def main(argv: list[str] | None = None, out=None, sizes: Sizes = Sizes(),
         bench=Bench) -> int:
    """Run one workload; ``out``, ``sizes`` and ``bench`` let the self-test
    capture the report, shrink the data and damage a record."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "core" / "dataset.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if out is None:
        # Keep standard output for this run's report: whatever the JVM
        # or the Python workers write to fd 1 goes to stderr instead.
        out = io.TextIOWrapper(os.fdopen(os.dup(1), "wb"), line_buffering=True)
        sys.stdout.flush()
        os.dup2(2, 1)

    def say(line: str) -> None:
        out.write(line + "\n")
        out.flush()

    k = min(4, len(os.sched_getaffinity(0)))
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    configure(work, k)
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark()
        from repro import synth_images
        from spans import Tracer

        name = f"perfbench_seed{args.seed}"
        synth_images.SPECS[name] = dataclasses.replace(
            synth_images.SPECS["imagenet_lite"], name=name,
            n_images=sizes.records * sizes.images_per_record,
            images_per_record=sizes.images_per_record)
        b = bench(spark, k, work, synth_images.SPECS[name], sizes,
                  Tracer(bool(args.trace)))
        metrics, attempted, failed = run_workload(
            b, args.workload, args.seconds, t0, args.seed, say)
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
    for n, (v, unit) in metrics.items():
        say(f"metric {n} = {v:.6g} {unit}")
    say(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
