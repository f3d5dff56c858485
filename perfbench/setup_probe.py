"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SIZE SEED SCRATCH_DIR``

Prints the seconds from just before ``import repro`` until every
distinct trace is generated (into an empty trace store) and its
placement built. ``run.py`` starts several of these and reports the
fastest as ``setup_s``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import Grid, import_repro  # noqa: E402


def main() -> None:
    workload, size, seed, scratch = sys.argv[1:5]
    import_repro()
    g = Grid(workload, size, int(seed), Path(scratch) / f"probe-{os.getpid()}")
    g.prepare()
    print(f"{time.perf_counter() - START:.6f}")


if __name__ == "__main__":
    main()
