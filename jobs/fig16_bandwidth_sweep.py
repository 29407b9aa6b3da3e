"""Fig 16: effect of cluster bandwidth on time-to-accuracy per scan.

Run: python jobs/fig16_bandwidth_sweep.py [--sf=1.0]
"""
import _job
from repro.core.harness import fmt_table
from repro.train.experiments import fig16_bandwidth_sweep

PAPER = """Paper Fig 16 (10 nodes, token-bucket limits 20..500 MiB/s): at very
low bandwidth every scan reduction helps; at high bandwidth the
benefits vanish; faster models (ShuffleNet) stay I/O bound to higher
bandwidths, so low scans keep helping them longer."""


def run(spark) -> str:
    t = fig16_bandwidth_sweep(spark, _job.arg_sf())
    return "# Fig 16 — bandwidth sweep (ours, imagenet_lite)\n\n" + fmt_table(t) + "\n\n" + PAPER


if __name__ == "__main__":
    raise SystemExit(_job.main(run))
