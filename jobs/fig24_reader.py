"""Fig 24 + §6.2: reader microbenchmark — PCR prefix reads per scan,
TFRecord, and the (modeled) File-per-Image layout.

Run: python jobs/fig24_reader.py [--sf=1.0]
"""
import _job
from repro.core.experiments import fig24_reader
from repro.core.harness import fmt_table

PAPER = """Paper Fig 24 + §6.2: reader throughput in images/s scales as
1/mean-bytes-per-image (drive saturated at every scan); baseline JPEG
reads within ~4% of scan 10; File-per-Image is ~25x slower than record
layouts due to per-image seeks."""


def run(spark) -> str:
    t = fig24_reader(spark, _job.arg_sf())
    return "# Fig 24 — reader throughput (ours, celeba_lite)\n\n" + fmt_table(t) + "\n\n" + PAPER


if __name__ == "__main__":
    raise SystemExit(_job.main(run))
