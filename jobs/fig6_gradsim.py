"""Fig 6: gradient cosine similarity per scan group across training.

Run: python jobs/fig6_gradsim.py [--sf=1.0]
"""
import _job
from repro.core.harness import fmt_table
from repro.train.experiments import fig6_gradient_similarity

PAPER = """Paper Fig 6 (ResNet/HAM10000): similarity is exact for scan 10,
decreases for lower scans as the model converges; high-quality scans
stay within ~0.1 of the baseline gradient (above the 0.8 threshold)."""


def run(spark) -> str:
    t = fig6_gradient_similarity(spark, _job.arg_sf())
    return "# Fig 6 — gradient similarity (ours, ham_lite/resnet_lite)\n\n" + fmt_table(t) + "\n\n" + PAPER


if __name__ == "__main__":
    raise SystemExit(_job.main(run))
