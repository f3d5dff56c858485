"""Row digests and the committed reference they are checked against.

A point's digest is the SHA-256 of its canonical row as sorted-key
compact JSON, with the ``fast_path`` diagnostics stripped first: a
fast-path change may move engagement counters but never the simulated
outcome. A workload's digest is the SHA-256 of its point digests, one
per line, in grid order.

``digests.json`` holds per-point digests for the default seed and
per-workload digests for a range of seeds, generated by
``make_digests.py``. A seed with neither is reported ``unchecked``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "digests.json"


def row_digest(row: dict) -> str:
    bare = {k: v for k, v in row.items() if k != "fast_path"}
    blob = json.dumps(bare, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def workload_digest(point_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(point_digests).encode()).hexdigest()


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


class Tally:
    """Counts attempted and failed point evaluations across rounds.

    A point fails when its round raised or timed out, when its digest
    differs from the committed one (against a workload-level digest a
    mismatch cannot be localised, so every point of the round fails),
    or when its full row, ``fast_path`` included, differs byte for byte
    from the first round's, which catches traced rows that differ from
    untraced ones and warm re-runs that differ from cold ones.
    """

    def __init__(self, reference: dict, size: str, workload: str, seed: int) -> None:
        entry = reference.get(size, {}).get(workload, {})
        self.points_ref = entry.get("points", {}).get(str(seed))
        self.whole_ref = entry.get("workload", {}).get(str(seed))
        checked = self.points_ref is not None or self.whole_ref is not None
        self.status = "matched" if checked else "unchecked"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: list[str] | None = None
        self.first_rows: list[dict] | None = None

    def add(self, rows: list[dict]) -> None:
        """Check one completed round's rows."""
        full = [json.dumps(r, sort_keys=True) for r in rows]
        got = [row_digest(r) for r in rows]
        if self.first is None:
            self.first, self.first_rows = full, rows
        ref = self.points_ref
        if len(full) != len(self.first) or (ref is not None and len(got) != len(ref)):
            bad = set(range(len(got)))
        else:
            bad = {i for i, (a, b) in enumerate(zip(full, self.first)) if a != b}
            if ref is not None:
                bad |= {i for i, (a, b) in enumerate(zip(got, ref)) if a != b}
            elif self.whole_ref is not None and workload_digest(got) != self.whole_ref:
                bad = set(range(len(got)))
        if bad and self.status == "matched":
            self.status = "mismatch"
        self.attempted += len(got)
        self.failed += len(bad)

    def fail(self, points: int, error: str) -> None:
        """A round that raised returns no rows: all its points fail."""
        self.attempted += points
        self.failed += points
        self.errors.append(error)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
