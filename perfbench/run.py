"""Pipeline benchmark for surfelslam.

    python3 perfbench/run.py --workload odometry --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the run exits non-zero without a result when that
source is missing.  The workload inputs are generated from ``--seed``
(set-up), then whole passes over the workload's windows repeat until
``--seconds`` have been measured.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics from traced passes, interleaved with untraced ones so the tracing
overhead can be reported.  A failed correctness check sets ``correct`` to
false.  See README.md for the workloads and metrics.
"""

import os
import sys
import time

# One BLAS thread, pinned before numpy loads, so runs do not depend on
# what else shares the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import the package from this checkout's ``src`` only."""
    if not (SRC / "surfelslam" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'surfelslam'}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import surfelslam

    if Path(surfelslam.__file__).resolve().parent != (SRC / "surfelslam").resolve():
        raise SystemExit(f"error: imported surfelslam from {surfelslam.__file__}")


if __name__ == "__main__":
    arguments = parse_args(sys.argv[1:])
    import_package()
    import bench

    # CPU time of the process so far: interpreter start-up and imports.
    bench.main(arguments, import_s=time.process_time())
