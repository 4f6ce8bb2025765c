"""Benchmark of analogkit, run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client in one fresh process runs a workload's command sequence through
``analogkit.cli.main`` in a closed loop: set-up first (several times, for
``setup_s``), then whole rounds of the sequence for about ``--seconds``,
then the correctness checks. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
round with ``--trace 1``. See bench/README.md.

This file only checks the sources are there and caps BLAS threads before
numpy loads; the rest lives in harness.py.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> None:
    """Cap BLAS threads at the CPUs this process may use."""
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="analogkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "analogkit" / "__init__.py").is_file():
        print(f"no analogkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
