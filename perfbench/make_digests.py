"""Regenerate ``digests.json``, the committed reference rows.

Usage (from the repository root)::

    python3 perfbench/make_digests.py

Sweeps every workload once per seed through the same path the
benchmark times, and records a SHA-256 per point for the default seed
and one per workload for every seed: seeds 0-31 at the full size, and
the default seed at the smoke size the self-checks use. Regenerate
only when a change is meant to alter the simulated rows, and say so in
its description: the digests are the parity reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import digests
import grid
import harness

#: Seeds with committed digests at each size.
SEEDS = {"full": range(32), "smoke": (grid.DEFAULT_SEED,)}


def main() -> int:
    harness.import_repro()
    out = {
        "about": "row digests (fast_path stripped); regenerate with make_digests.py",
        "default_seed": grid.DEFAULT_SEED,
    }
    scratch = harness.make_scratch()
    try:
        for size in grid.SIZES:
            out[size] = {}
            for name in grid.WORKLOADS:
                entry = out[size][name] = {"points": {}, "workload": {}}
                for seed in SEEDS[size]:
                    g = harness.Grid(name, size, seed, scratch / f"{size}-{name}-{seed}")
                    g.prepare()
                    _, rows = g.round()
                    got = [digests.row_digest(r) for r in rows]
                    entry["workload"][str(seed)] = digests.workload_digest(got)
                    if seed == grid.DEFAULT_SEED:
                        entry["points"][str(seed)] = got
                    print(f"{size} {name} seed={seed} {entry['workload'][str(seed)][:16]}",
                          file=sys.stderr, flush=True)
    finally:
        harness.stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    with open(digests.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
