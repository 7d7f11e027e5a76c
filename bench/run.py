"""Entry point of the rulemix benchmark.

    python3 bench/run.py --workload fit-discovery --seed 1 --seconds 42 --trace 0

It imports rulemix from the ``src`` directory next to this one, so it runs
from any source checkout without installing. The last line of standard
output is the result object; the line before it holds host information and
the sample count, quartiles and mean of every timed step. ``README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("fit-discovery", "fit-compose", "serve-csv")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="non-negative seed of the served rows")
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "rulemix" / "__init__.py").is_file():
        print(f"error: no rulemix package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    # One thread per process: the benchmark measures rulemix, and the host
    # has few cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
