"""Self-test of the benchmark on a tiny dataset.

Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload in BENCHMARK.json with ``--trace 0`` and
   ``--trace 1`` on four records of eight images, and checks that each
   run prints every metric BENCHMARK.json names for that mode, with its
   unit, and that no record fails.
2. Runs ``load-scan1`` again with one byte flipped in a copy of one
   ``.pcr`` that replaces the original, and checks that the run counts
   a failed record.

Exits 0 when all of this holds.
"""
import io
import json
import os
import shutil
import sys

import run

TINY = run.Sizes(records=4, images_per_record=8, sample_images=4,
                 count_reps=1, warmup_s=0.0)
SEED = 7


def one_run(workload: str, trace: int, bench=run.Bench) -> tuple[int, list[str]]:
    buf = io.StringIO()
    rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds",
                   "1", "--trace", str(trace)], out=buf, sizes=TINY, bench=bench)
    return rc, buf.getvalue().splitlines()


class DamagingBench(run.Bench):
    """Flips one byte inside the scan-1 data of the first image of the
    record the run samples, once the dataset is built."""

    def build(self, name):
        ds, dt = super().build(name)
        from repro.core import pcr
        from repro.core.dataset import record_paths

        import checks

        records = record_paths(ds)
        rec = records[SEED % len(records)]
        info = pcr.read_index(rec)
        off = (checks.index_bytes(info.n_images, info.n_scan_groups)
               + sum(info.header_lens) + info.scan_lens[0][0] // 2)
        copy = rec + ".copy"
        shutil.copyfile(rec, copy)
        with open(copy, "r+b") as f:
            f.seek(off)
            byte = f.read(1)[0]
            f.seek(off)
            f.write(bytes([byte ^ 0x01]))
        os.replace(copy, rec)
        return ds, dt


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = one_run(w["name"], trace)
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v["unit"] for n, v in result["metrics"].items()}
            missing = [n for n, u in want.items() if not any(
                ln.startswith(f"metric {n} = ") and ln.endswith(f" {u}")
                for ln in lines)]
            if rc or got != want or missing or not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: rc={rc} "
                                f"missing={missing} units={got} result={result}")
            print(f"{w['name']} trace={trace}: {len(got)} metrics, "
                  f"failed {result['failed']}/{result['attempted']}")

    rc, lines = one_run("load-scan1", 0, DamagingBench)
    result = json.loads(lines[-1])
    frac = [ln for ln in lines if ln.startswith("failed_record_frac")]
    print(f"damaged record: {frac[0] if frac else 'no failed_record_frac line'}")
    if rc or result["failed"] == 0 or result["correct"]:
        problems.append(f"a flipped .pcr byte went unnoticed: {result}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
