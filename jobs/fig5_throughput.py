"""Fig 5/15: cluster training rate per scan — predicted vs simulated.

Run: python jobs/fig5_throughput.py [--sf=1.0]
"""
import _job
from repro.core.experiments import fig5_throughput
from repro.core.harness import fmt_table

PAPER = """Paper Fig 5 (10-node TitanX, ResNet-18/ImageNet): throughput rises as
scans shrink until the ~4500 img/s compute limit; TFRecord ~= scan 10;
predicted rates (W / mean size, capped at compute) closely match measured."""


def run(spark) -> str:
    out = []
    for model in ("resnet_lite", "shufflenet_lite"):
        t = fig5_throughput(spark, model, _job.arg_sf())
        out.append(f"## {model} (imagenet_lite)\n\n" + fmt_table(t))
    return "# Fig 5/15 — training rate per scan (ours)\n\n" + "\n\n".join(out) + "\n\n" + PAPER


if __name__ == "__main__":
    raise SystemExit(_job.main(run))
