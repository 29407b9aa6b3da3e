"""Fig 14/26: autotuned scan selection vs static scan 5 / 10 / TFRecord.

Run: python jobs/fig14_autotune.py [--sf=1.0]
"""
import _job
from repro.core.harness import fmt_table
from repro.train.experiments import fig14_autotune

PAPER = """Paper Fig 14 (ImageNet, 90 epochs): autotuning matches scan-10
accuracy while running almost as fast as static scan 5 (the warmup at
scan 10 blends the two latencies); raising the threshold to 0.9 pushes
the last epochs back to scan 10 at slightly longer time."""


def run(spark) -> str:
    sf = _job.arg_sf()
    parts = []
    for thr in (0.8, 0.9):
        t = fig14_autotune(spark, sf, thr)
        parts.append(f"## threshold {thr}\n\n" + fmt_table(t))
    return "# Fig 14 — autotuning (ours, imagenet_lite/resnet_lite)\n\n" + "\n\n".join(parts) + "\n\n" + PAPER


if __name__ == "__main__":
    raise SystemExit(_job.main(run))
