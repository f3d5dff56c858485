"""Self-checks of the benchmark itself, at the smoke size (seconds).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Checks that every workload's smoke grid sweeps with ``failed_frac`` 0
against the committed digests; that a deliberately perturbed row is
counted as failed, against the committed digests and against an
earlier round; that traced rows are byte-identical to untraced rows;
that the scheme sweep's warm re-run is compared with its cold rows;
that ``BENCHMARK.json`` names exactly the workloads and metrics the
code reports; and that ``run.py`` fails without printing a result when
the repository's sources are missing. Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import digests
import grid
import harness
import layers
import spans

SIZE = "smoke"
SEED = grid.DEFAULT_SEED


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def perturbed(rows: list[dict]) -> list[dict]:
    """The rows with one simulated number in the middle row changed."""
    bad = copy.deepcopy(rows)
    row = bad[len(bad) // 2]
    key = next(k for k, v in row.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool))
    row[key] = row[key] + 1
    return bad


def main() -> int:
    harness.import_repro()
    reference = digests.load_reference()
    scratch = harness.make_scratch()
    try:
        for name in grid.WORKLOADS:
            g = harness.Grid(name, SIZE, SEED, scratch / name)
            g.prepare()
            tally = digests.Tally(reference, SIZE, name, SEED)
            _, rows = g.round()  # a cached workload also checks warm == cold here
            tally.add(rows)
            check(tally.status == "matched" and tally.failed == 0,
                  f"{name}: smoke rows match the committed digests (failed_frac 0)")

            against_ref = digests.Tally(reference, SIZE, name, SEED)
            against_ref.add(perturbed(rows))
            check(against_ref.failed == 1 and against_ref.status == "mismatch",
                  f"{name}: a perturbed row fails against the committed digests")
            unchecked = digests.Tally({}, SIZE, name, SEED)
            unchecked.add(rows)
            unchecked.add(perturbed(rows))
            check(unchecked.failed == 1 and unchecked.status == "unchecked",
                  f"{name}: a perturbed row fails against an earlier round")

            rec = spans.Recorder()
            undo = spans.instrument(rec)
            rec.start("check")
            try:
                _, traced_rows = g.round(rec)
            finally:
                rec.stop()
                undo()
            check(json.dumps(traced_rows) == json.dumps(rows) and rec.spans,
                  f"{name}: traced rows are byte-identical to untraced rows")

        with open(harness.ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        check([w["name"] for w in bench["workloads"]] == list(grid.WORKLOADS),
              "BENCHMARK.json names the workloads grid.py defines")
        check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
              == layers.PER_LAYER, "BENCHMARK.json per_layer matches layers.PER_LAYER")

        bare = scratch / "bare"
        shutil.copytree(harness.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper64-migration",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "run.py exits non-zero without a result when src/ is missing")
    finally:
        harness.stop_children()
        shutil.rmtree(scratch, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
