"""Benchmark of the ufbwiener package: one seeded workload per invocation.

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Everything runs in this one process, as a
closed loop with one caller: an op starts when the previous one ends.
BLAS/OpenMP are pinned to one thread before numpy is imported.

Workloads (see workloads.py):
  solve_sweep   `wiener` on seeded random banks, M = 2..6 (mostly L = M)
  adapt_repro   `repro exp1`, `repro exp2` and a shaped-input `adapt`
  verify_suite  per op, the six `properties.check_*` suites at `--quick` sizes

`--trace 0` runs the closed loop for `--seconds` of timed ops and
reports ops_per_s, op_p50_s, op_tail_s, setup_s, peak_rss_mib and
ok_ratio (1 - fail_ratio).  `--trace 1` runs a fixed number of ops
(about `--seconds` in all) untraced, then the same ops with spans
around the package's public functions, and reports per-span calls,
total and self time, counts, the solver-scaling row and the tracing
overhead.  Every op's output is checked outside the timed interval.
The last stdout line is the JSON result; results and spans are also
kept under `.perfbench_work/`.
"""

import argparse
import os
import sys
import time
from pathlib import Path

_START = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("solve_sweep", "adapt_repro", "verify_suite")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "ufbwiener" / "__init__.py").is_file():
        print(f"perfbench: no ufbwiener package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    from perfbench import bench
    import ufbwiener

    if Path(ufbwiener.__file__).resolve().parent != src / "ufbwiener":
        print(f"perfbench: imported ufbwiener from {ufbwiener.__file__}, not {src}",
              file=sys.stderr)
        return 2
    threads = {var: os.environ[var] for var in THREAD_VARS}
    return bench.run(args, root, time.perf_counter() - _START, threads)


if __name__ == "__main__":
    sys.exit(main())
