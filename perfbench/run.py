"""Benchmark the four oltsim commands; run from the repository root.

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seconds 25          # every workload, with a summary

The last line of a workload run is its JSON result; see README.md.
"""

import os
import sys

# BLAS reads its thread count once, when numpy loads: pin it before anything
# imports numpy, so one client uses one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
