"""Per-layer metrics: derived from traced spans, counters and the rows.

Every ratio is reported next to its numerator and denominator. A layer
a workload does not exercise reports 0 (for example ``sim.events`` on
``paper64-coherence``, whose machines have no event engine), so every
workload prints the same metric names.

Span-derived values follow one rule: set-up spans count once, and
round spans are averaged over the traced rounds, so each value is what
one cold invocation (set up, then sweep the grid once) spends there.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times

EM2_FAMILY = ("em2", "em2ra", "ra-only")
CC = ("cc-msi", "cc-mesi")

#: Spans that have wrapped children, so their self time differs from
#: their duration; each gets a ``self.<name>_s``. A leaf span's self
#: time would repeat a metric already reported (``machine.run`` is
#: ``sim.run_s``), so leaves get none.
SELF_SPANS = (
    "bench.prepare",
    "analysis.sweep_specs",
    "analysis.sweep_specs_warm",
    "analysis.parallel_sweep",
    "analysis.cache_put",
    "runner.run_spec_dict",
    "runner.build",
    "runner.build_workload",
)

LOWER, HIGHER = "lower", "higher"


def _per_layer() -> list[tuple[str, str, str]]:
    m = [
        ("sim.events", "count", LOWER),
        ("sim.run_s", "s", LOWER),
        ("sim.host_us_per_event", "us", LOWER),
    ]
    for name in EM2_FAMILY:
        m += [
            (f"core.{name}.construct_s", "s", LOWER),
            (f"core.{name}.run_s", "s", LOWER),
            (f"core.{name}.results_s", "s", LOWER),
            (f"core.{name}.accesses", "count", LOWER),
            (f"core.{name}.acc_per_s", "1/s", HIGHER),
        ]
    m += [
        ("epoch.batched_frac", "frac", HIGHER),
        ("epoch.batched_accesses", "count", HIGHER),
        ("epoch.accesses", "count", LOWER),
        ("epoch.windows", "count", LOWER),
        ("epoch.mean_window", "count", HIGHER),
        ("epoch.engaged_points", "count", HIGHER),
        ("epoch.points", "count", LOWER),
        ("decision.calls", "count", LOWER),
        ("decision.migrates", "count", LOWER),
        ("decision.migrate_frac", "frac", LOWER),
        ("decision.s", "s", LOWER),
        ("noc.flit_hops", "count", LOWER),
        ("noc.messages", "count", LOWER),
        ("cache.dram_fills", "count", LOWER),
    ]
    for name in CC:
        m += [
            (f"coherence.{name}.construct_s", "s", LOWER),
            (f"coherence.{name}.run_s", "s", LOWER),
            (f"coherence.{name}.accesses", "count", LOWER),
            (f"coherence.{name}.acc_per_s", "1/s", HIGHER),
        ]
    m += [
        ("coherence.batched_frac", "frac", HIGHER),
        ("coherence.batched_accesses", "count", HIGHER),
        ("coherence.accesses", "count", LOWER),
        ("coherence.invalidations", "count", LOWER),
        ("evaluation.run_s", "s", LOWER),
        ("evaluation.accesses", "count", LOWER),
        ("evaluation.acc_per_s", "1/s", HIGHER),
        ("trace.generate_s", "s", LOWER),
        ("trace.accesses", "count", LOWER),
        ("trace.store_get_s", "s", LOWER),
        ("trace.store_put_s", "s", LOWER),
        ("trace.store_gets", "count", LOWER),
        ("trace.store_hits", "count", HIGHER),
        ("trace.store_hit_frac", "frac", HIGHER),
        ("placement.build_s", "s", LOWER),
        ("arch.build_s", "s", LOWER),
        ("analysis.sweep_s", "s", LOWER),
        ("analysis.warm_sweep_s", "s", LOWER),
        ("analysis.pool_wall_s", "s", LOWER),
        ("analysis.serial_point_s", "s", LOWER),
        ("analysis.workers", "count", HIGHER),
        ("analysis.pool_efficiency", "frac", HIGHER),
        ("analysis.shm_publish_s", "s", LOWER),
        ("analysis.cache_get_s", "s", LOWER),
        ("analysis.cache_put_s", "s", LOWER),
        ("analysis.cache_gets", "count", LOWER),
        ("analysis.cache_hits", "count", HIGHER),
        ("analysis.cache_hit_frac", "frac", HIGHER),
        ("analysis.canonical_rows_s", "s", LOWER),
        ("bench.untraced_acc_per_s", "1/s", HIGHER),
        ("bench.traced_acc_per_s", "1/s", HIGHER),
        ("bench.tracing_overhead_frac", "frac", LOWER),
        ("bench.untraced_rounds", "count", HIGHER),
        ("bench.traced_rounds", "count", HIGHER),
    ]
    m += [(f"self.{name}_s", "s", LOWER) for name in SELF_SPANS]
    return m


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def point_spans(spans: list[tuple]) -> list[tuple]:
    """The spans nested under a ``runner.run_spec_dict`` span."""
    inside: set[int] = set()
    out = []
    for span in spans:  # parents precede their children
        sid, parent, name = span[0], span[1], span[2]
        if name == "runner.run_spec_dict" or parent in inside:
            inside.add(sid)
            out.append(span)
    return out


def span_totals(weighted: list[tuple[list[tuple], dict, float]]) -> defaultdict:
    """Weighted sums over ``(spans, counters, weight)`` phases."""
    t: defaultdict[str, float] = defaultdict(float)
    for spans, counters, w in weighted:
        for key, value in counters.items():
            t[key] += w * value
        for name, value in self_times(spans).items():
            t[f"self.{name}_s"] += w * value
        for _sid, _parent, name, start, end, attrs in spans:
            dur = w * (end - start)
            t[f"dur.{name}"] += dur
            t[f"n.{name}"] += w
            machine = attrs.get("machine")
            if name == "machine.construct":
                t[f"core.{machine}.construct_s"] += dur
                t[f"core.{machine}.accesses"] += w * attrs["accesses"]
            elif name == "machine.run":
                t[f"core.{machine}.run_s"] += dur
            elif name == "machine.results":
                t[f"core.{machine}.results_s"] += dur
            elif name == "coherence.construct":
                t[f"coherence.{machine}.construct_s"] += dur
                t[f"coherence.{machine}.accesses"] += w * attrs["accesses"]
            elif name == "coherence.run":
                t[f"coherence.{machine}.run_s"] += dur
            elif name == "evaluation.evaluate_scheme":
                t["evaluation.accesses"] += w * attrs["accesses"]
            elif name in ("trace.store_get", "analysis.cache_get") and attrs.get("hit"):
                t[f"hits.{name}"] += w
    return t


def row_counts(rows: list[dict], accesses: list[int]) -> dict[str, float]:
    """Simulated work counts read from one round's public outputs."""
    c: defaultdict[str, float] = defaultdict(float)
    for row, n in zip(rows, accesses):
        machine = row["machine"]["name"]
        fp = row.get("fast_path") or {}
        if machine in EM2_FAMILY:
            c["epoch.points"] += 1
            c["epoch.accesses"] += n
            c["epoch.batched_accesses"] += fp.get("batched_accesses", 0)
            c["epoch.windows"] += fp.get("epochs_batched", 0)
            c["epoch.engaged_points"] += bool(fp.get("engaged"))
            c["noc.flit_hops"] += row["flit_hops"]
            c["noc.messages"] += sum(v for k, v in row.items() if k.startswith("messages."))
            c["cache.dram_fills"] += row["dram_fills"]
        elif machine in CC:
            stats = row["stats"]
            c["coherence.accesses"] += n
            c["coherence.batched_accesses"] += fp.get("batched_accesses", 0)
            c["coherence.invalidations"] += stats.get("count.invalidations", 0)
            c["noc.flit_hops"] += stats.get("count.flit_hops", 0)
            c["noc.messages"] += sum(v for k, v in stats.items() if k.startswith("count.msg."))
            c["cache.dram_fills"] += stats.get("count.dram_fills", 0)
    return c


def derive(t: dict, counts: dict, workers: int, untraced: float, traced: float,
           n_untraced: int, n_traced: int, serial_point_s: float | None = None
           ) -> dict[str, float]:
    """Every per-layer metric from span totals ``t`` and row counts.
    ``serial_point_s`` overrides the traced per-point time sum when the
    points ran in pool workers and were timed by an untraced serial
    sweep instead."""
    g = lambda key: t.get(key, 0.0)  # noqa: E731
    m: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    m.update(counts)
    for name in EM2_FAMILY:
        for part in ("construct_s", "run_s", "results_s", "accesses"):
            m[f"core.{name}.{part}"] = g(f"core.{name}.{part}")
        m[f"core.{name}.acc_per_s"] = _ratio(g(f"core.{name}.accesses"), g(f"core.{name}.run_s"))
    m["sim.events"] = g("sim.events")
    m["sim.run_s"] = g("dur.machine.run")
    m["sim.host_us_per_event"] = 1e6 * _ratio(m["sim.run_s"], m["sim.events"])
    m["epoch.batched_frac"] = _ratio(m["epoch.batched_accesses"], m["epoch.accesses"])
    m["epoch.mean_window"] = _ratio(m["epoch.batched_accesses"], m["epoch.windows"])
    m["decision.calls"] = g("decision.calls")
    m["decision.migrates"] = g("decision.migrates")
    m["decision.migrate_frac"] = _ratio(m["decision.migrates"], m["decision.calls"])
    m["decision.s"] = g("decision.s")
    for name in CC:
        for part in ("construct_s", "run_s", "accesses"):
            m[f"coherence.{name}.{part}"] = g(f"coherence.{name}.{part}")
        m[f"coherence.{name}.acc_per_s"] = _ratio(
            g(f"coherence.{name}.accesses"), g(f"coherence.{name}.run_s"))
    m["coherence.batched_frac"] = _ratio(m["coherence.batched_accesses"], m["coherence.accesses"])
    m["evaluation.run_s"] = g("dur.evaluation.evaluate_scheme")
    m["evaluation.accesses"] = g("evaluation.accesses")
    m["evaluation.acc_per_s"] = _ratio(m["evaluation.accesses"], m["evaluation.run_s"])
    m["trace.generate_s"] = g("dur.trace.generate")
    m["trace.accesses"] = g("trace.accesses")
    m["trace.store_get_s"] = g("dur.trace.store_get")
    m["trace.store_put_s"] = g("dur.trace.store_put")
    m["trace.store_gets"] = g("n.trace.store_get")
    m["trace.store_hits"] = g("hits.trace.store_get")
    m["trace.store_hit_frac"] = _ratio(m["trace.store_hits"], m["trace.store_gets"])
    m["placement.build_s"] = g("dur.runner.build_placement")
    m["arch.build_s"] = (g("self.runner.build_s") + g("dur.runner.build_system_config")
                         + g("dur.runner.build_topology"))
    m["analysis.sweep_s"] = g("dur.analysis.sweep_specs")
    m["analysis.warm_sweep_s"] = g("dur.analysis.sweep_specs_warm")
    m["analysis.pool_wall_s"] = g("dur.analysis.parallel_sweep")
    m["analysis.serial_point_s"] = (
        g("dur.runner.run_spec_dict") if serial_point_s is None else serial_point_s)
    m["analysis.workers"] = workers
    m["analysis.pool_efficiency"] = _ratio(
        m["analysis.serial_point_s"], workers * m["analysis.pool_wall_s"])
    m["analysis.shm_publish_s"] = g("dur.analysis.shm_publish")
    m["analysis.cache_get_s"] = g("dur.analysis.cache_get")
    m["analysis.cache_put_s"] = g("dur.analysis.cache_put")
    m["analysis.cache_gets"] = g("n.analysis.cache_get")
    m["analysis.cache_hits"] = g("hits.analysis.cache_get")
    m["analysis.cache_hit_frac"] = _ratio(m["analysis.cache_hits"], m["analysis.cache_gets"])
    m["analysis.canonical_rows_s"] = g("dur.analysis.canonical_rows")
    m["bench.untraced_acc_per_s"] = untraced
    m["bench.traced_acc_per_s"] = traced
    m["bench.tracing_overhead_frac"] = 1.0 - _ratio(traced, untraced) if untraced else 0.0
    m["bench.untraced_rounds"] = n_untraced
    m["bench.traced_rounds"] = n_traced
    for name in SELF_SPANS:
        m[f"self.{name}_s"] = g(f"self.{name}_s")
    for name, unit in UNITS.items():
        if unit == "count":  # whole per round; undo the 1/rounds weights' rounding
            m[name] = round(m[name], 6)
    return m
