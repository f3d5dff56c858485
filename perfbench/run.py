"""Paper-grid benchmark: spec-to-rows throughput at the paper's point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
``acc_per_s`` (simulated accesses per host second in the fastest timed
round), ``setup_s`` (the fastest of several fresh interpreters) and
``peak_rss_mb``. Host time on a shared machine only ever gets slower
under contention, so the fastest sample is the one least disturbed by
other tenants. ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics of ``layers.py``; the spans are
written to ``perfbench/out/``. Both modes check every round's rows
against the committed digests and against each other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines
before it print every metric by name with its unit, and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback

import digests
import grid
import harness
from harness import clock

#: Timed rounds per run at least, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Fresh interpreters whose fastest set-up time is ``setup_s``.
SETUP_PROBES = 9
#: The benchmark measures the paper-scale grids; ``smoke`` serves the
#: self-checks only.
SIZE = "full"

END_TO_END = {"acc_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(grid.WORKLOADS))
    ap.add_argument("--seed", type=int, default=grid.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _guarded_round(g, tally, rec=None, workers=None):
    """One round; a raise or timeout fails all its points."""
    try:
        seconds, rows = g.round(rec, workers)
    except Exception as exc:  # a failed round is a measured outcome
        traceback.print_exc(file=sys.stderr)
        tally.fail(len(g.points), f"{type(exc).__name__}: {exc}")
        return None, None
    tally.add(rows)
    return seconds, rows


def measure(g, tally, seconds: float) -> dict:
    """Untraced timed rounds; returns the end-to-end metrics."""
    g.prepare()
    if g.workload.cached:
        _guarded_round(g, tally)  # starts the pool; untimed
    rounds, rss = [], None
    start = clock()
    while not tally.errors and (clock() - start < seconds or len(rounds) < MIN_ROUNDS):
        dt, _ = _guarded_round(g, tally)
        if dt is not None:
            rounds.append(dt)
        if len(rounds) == MIN_ROUNDS and rss is None:
            # after a fixed amount of work: pool workers' memory grows
            # with every round, and a faster host fits more rounds in
            rss = harness.peak_rss_mb()
    if rss is None:
        rss = harness.peak_rss_mb()
    harness.stop_children()
    setup = [harness.setup_seconds(g.workload.name, g.size, g.seed, g.scratch)
             for _ in range(SETUP_PROBES)]
    return {
        "acc_per_s": g.best_rate(rounds),
        "setup_s": min(setup),
        "peak_rss_mb": rss,
        "rounds": len(rounds),
    }


def measure_traced(g, tally, seconds: float, spans_path) -> dict:
    """Alternate untraced and traced rounds; returns per-layer metrics."""
    import layers
    import spans

    rec = spans.Recorder()

    def traced(phase, fn, *args):
        undo = spans.instrument(rec)
        p = rec.start(phase)
        try:
            return p, fn(*args)
        finally:
            rec.stop()
            undo()

    setup, _ = traced("setup", lambda: rec.call("bench.prepare", g.prepare, (), {}))
    if g.workload.cached:
        _guarded_round(g, tally)  # starts the pool before any wrapper exists
    plain, wrapped, phases = [], [], []
    start = clock()
    while not tally.errors and (clock() - start < seconds or not wrapped):
        dt, _ = _guarded_round(g, tally)
        if dt is None:
            break
        plain.append(dt)
        phase, (dt, _) = traced("round", _guarded_round, g, tally, rec)
        if dt is None:
            break
        wrapped.append(dt)
        phases.append(phase)
    weighted = [(setup.spans, setup.counters, 1.0)]
    weighted += [(p.spans, p.counters, 1.0 / len(phases)) for p in phases]
    serial_s = None
    if g.workers > 1 and not tally.errors:
        # pool workers are out of the recorder's sight: time the same
        # points in one untraced serial sweep (the serial sum of point
        # times), then trace them once in-process for the per-point layers
        serial_s, _ = _guarded_round(g, tally, None, 1)
        serial, _ = traced("serial", _guarded_round, g, tally, rec, 1)
        weighted.append((layers.point_spans(serial.spans), serial.counters, 1.0))
    harness.stop_children()
    rec.dump(spans_path)
    counts = layers.row_counts(tally.first_rows or [], g.accesses)
    metrics = layers.derive(layers.span_totals(weighted), counts, g.workers,
                            g.best_rate(plain), g.best_rate(wrapped),
                            len(plain), len(wrapped), serial_s)
    metrics["rounds"] = len(plain) + len(wrapped)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    harness.import_repro()
    scratch = harness.make_scratch()
    tally = digests.Tally(digests.load_reference(), SIZE, args.workload, args.seed)
    try:
        g = harness.Grid(args.workload, SIZE, args.seed, scratch)
        if args.trace:
            import layers

            spans_path = harness.OUT / f"spans-{args.workload}-{args.seed}.json"
            values = measure_traced(g, tally, args.seconds, spans_path)
            units = layers.UNITS
        else:
            values = measure(g, tally, args.seconds)
            units = END_TO_END
    finally:
        harness.stop_children()
        shutil.rmtree(scratch, ignore_errors=True)

    correct = tally.failed == 0 and tally.status != "mismatch"
    print(f"perfbench {args.workload} size={SIZE} seed={args.seed} "
          f"trace={args.trace} points={len(g.points)} rounds={values.pop('rounds')} "
          f"digests={tally.status}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':34s} {tally.failed_frac:>16.6g} fraction "
          f"({tally.failed} of {tally.attempted} point runs)")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
