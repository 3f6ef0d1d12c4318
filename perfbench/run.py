"""The moboga benchmark: one workload, one process, one line of JSON results.

Usage, from the repository root::

    python3 perfbench/run.py --workload binh-korn --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every correctness check passed. Workloads are defined in
``workloads.py``.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("binh-korn", "mixed-soft", "deep-archive")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS/OpenMP thread, fixed before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "moboga" / "__init__.py").is_file():
        print(f"error: no moboga sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(here)]

    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
