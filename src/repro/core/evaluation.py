"""Apply a decision scheme to whole application traces.

This is the O(N) "computing the equivalent cost of a specific
decision" procedure of §3, wrapped for multi-threaded traces:
for each thread it walks the access stream, consults the scheme on
every non-local access, moves the thread on MIGRATE, charges the cost
model, and gathers the statistics every bench in this repo reports
(cost, migration/RA counts, network traffic in bits, run lengths).

``evaluate_scheme`` takes one of three paths per thread:

* ``AlwaysMigrate`` and ``NeverMigrate`` take vectorized closed forms
  (no per-access Python loop).
* Any other **run-constant** scheme (``DecisionScheme.run_constant``)
  takes :func:`evaluate_thread_runs`, which walks maximal
  constant-home runs instead of accesses. The contract a scheme must
  keep to be run-constant:

  - ``decide`` depends only on (current, home, write) and on state
    that changes only when ``observe`` sees an access homed elsewhere
    than the previous one (never on the address, an access counter or
    a random stream);
  - ``decide`` changes no state that a later ``decide`` reads, except
    on the thread's first consultation (``NativeFirst``'s native-core
    latch);
  - observing the accesses after a run's first one — all with the
    run's home — is equivalent to one ``observe_run(home, n)`` call.

  The stateless schemes, ``HistoryRunLength``, ``CostAwareHistory``
  and ``NativeFirst`` over any such away policy qualify.
* Everything else (``addr-history``, ``random``) keeps the reference
  walk :func:`evaluate_thread`, whose hot loop runs on plain Python
  lists and floats rather than per-access numpy scalars.

The cost model is converted to nested Python lists
(:class:`CostTables`) once per ``evaluate_scheme`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.costs import CostModel
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.decision.static import AlwaysMigrate, NeverMigrate
from repro.placement.base import Placement
from repro.registry import MACHINES
from repro.sim.stats import Histogram
from repro.trace.events import MultiTrace
from repro.trace.runlength import run_length_histogram, merge_histograms


@dataclass
class EvalResult:
    """Aggregate outcome of evaluating one scheme on one trace."""

    scheme: str
    total_cost: float = 0.0
    migrations: int = 0
    remote_accesses: int = 0
    local_accesses: int = 0
    traffic_bits: int = 0
    per_thread_cost: list[float] = field(default_factory=list)
    run_length_hist: Histogram | None = None

    @property
    def total_accesses(self) -> int:
        return self.migrations + self.remote_accesses + self.local_accesses

    @property
    def nonlocal_fraction(self) -> float:
        n = self.total_accesses
        return (self.migrations + self.remote_accesses) / n if n else float("nan")

    @property
    def avg_cost_per_access(self) -> float:
        n = self.total_accesses
        return self.total_cost / n if n else float("nan")

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "total_cost": self.total_cost,
            "migrations": self.migrations,
            "remote_accesses": self.remote_accesses,
            "local_accesses": self.local_accesses,
            "traffic_bits": self.traffic_bits,
            "avg_cost_per_access": self.avg_cost_per_access,
        }


class CostTables(NamedTuple):
    """A :class:`CostModel`'s matrices as nested Python lists.

    The kernels index these once per access or run; plain lists keep
    that in native Python floats (no numpy scalar boxing).
    """

    migration: list
    remote_read: list
    remote_write: list
    migration_bits: int
    ra_bits_read: int
    ra_bits_write: int

    @classmethod
    def of(cls, cost_model: CostModel) -> "CostTables":
        return cls(
            cost_model.migration.tolist(),
            cost_model.remote_read.tolist(),
            cost_model.remote_write.tolist(),
            cost_model.migration_bits(),
            cost_model.remote_access_bits(write=False),
            cost_model.remote_access_bits(write=True),
        )


def evaluate_thread(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    scheme: DecisionScheme,
    cost_model: CostModel,
    addrs: np.ndarray | None = None,
    tables: CostTables | None = None,
) -> tuple[float, int, int, int, int, np.ndarray]:
    """Sequential evaluation of one thread: the reference walk.

    Returns (cost, migrations, remote, local, traffic_bits, exec_cores)
    where ``exec_cores[k]`` is the core where access k executed (home
    for MIGRATE/LOCAL, the thread's position for REMOTE). ``addrs``
    feeds address-indexed schemes; omitted, schemes see address 0.
    ``tables`` defaults to ``CostTables.of(cost_model)``.
    """
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes).astype(bool)
    if addrs is None:
        addrs = np.zeros(homes.size, dtype=np.int64)
    else:
        addrs = np.asarray(addrs, dtype=np.int64)
    if tables is None:
        tables = CostTables.of(cost_model)
    mig_t, ra_r_t, ra_w_t, mig_bits, ra_bits_r, ra_bits_w = tables

    homes_l = homes.tolist()
    writes_l = writes.tolist()
    addrs_l = addrs.tolist()
    MIGRATE, LOCAL = Decision.MIGRATE, Decision.LOCAL
    decide, observe = scheme.decide, scheme.observe

    cur = int(start_core)
    cost = 0.0
    n_mig = n_ra = n_loc = 0
    bits = 0
    exec_list: list[int] = []
    append = exec_list.append
    for h, w, a in zip(homes_l, writes_l, addrs_l):
        if h == cur:
            n_loc += 1
            append(cur)
            observe(cur, h, a, w, LOCAL)
            continue
        d = decide(cur, h, a, w)
        if d == MIGRATE:
            cost += mig_t[cur][h]
            bits += mig_bits
            cur = h
            n_mig += 1
            append(h)
        else:
            cost += (ra_w_t if w else ra_r_t)[cur][h]
            bits += ra_bits_w if w else ra_bits_r
            n_ra += 1
            append(cur)
        observe(cur, h, a, w, d)
    return cost, n_mig, n_ra, n_loc, bits, np.array(exec_list, dtype=np.int64)


def _fast_always_migrate(homes, writes, start_core, cost_model):
    homes = np.asarray(homes, dtype=np.int64)
    prev = np.concatenate(([start_core], homes[:-1])) if homes.size else homes
    mig = cost_model.migration
    costs = mig[prev, homes]
    moved = prev != homes
    cost = float(costs.sum())
    n_mig = int(moved.sum())
    n_loc = homes.size - n_mig
    bits = n_mig * cost_model.migration_bits()
    return cost, n_mig, 0, n_loc, bits, homes.copy()


def _fast_never_migrate(homes, writes, start_core, cost_model):
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes).astype(bool)
    ra_r = cost_model.remote_read[start_core]
    ra_w = cost_model.remote_write[start_core]
    per = np.where(writes, ra_w[homes], ra_r[homes])
    remote = homes != start_core
    cost = float(per[remote].sum())
    n_ra = int(remote.sum())
    n_loc = homes.size - n_ra
    bits = int(
        (remote & writes).sum() * cost_model.remote_access_bits(True)
        + (remote & ~writes).sum() * cost_model.remote_access_bits(False)
    )
    exec_cores = np.full(homes.size, start_core, dtype=np.int64)
    return cost, 0, n_ra, n_loc, bits, exec_cores


def evaluate_thread_runs(
    homes: np.ndarray,
    writes: np.ndarray,
    start_core: int,
    scheme: DecisionScheme,
    cost_model: CostModel,
    tables: CostTables | None = None,
) -> tuple[float, int, int, int, int, np.ndarray]:
    """Run-level evaluation for run-constant schemes.

    Walks maximal constant-home runs instead of accesses and returns
    exactly what :func:`evaluate_thread` returns for the same scheme
    (the unit and property tests enforce it). Per run, in the walk's
    order:

    * the run's first access is decided and observed on its own — that
      ``observe`` is where a history scheme closes the previous run, so
      with aliasing predictor slots the rest of the run may decide
      differently from its first access;
    * if the first access went remote, the rest of the run is decided
      once per read/write flavour present, and the thread migrates at
      the first access whose flavour says MIGRATE;
    * the rest of the run is observed with one ``observe_run(home, n)``.

    Remote accesses are charged as count x table entry; cost entries
    are integer cycle counts, so this equals the walk's per-access sums
    exactly. Python work is O(runs), not O(accesses). ``tables``
    defaults to ``CostTables.of(cost_model)``.
    """
    if not scheme.run_constant:
        raise ValueError(f"scheme {scheme.name!r} is not run-constant")
    homes = np.asarray(homes, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    n = homes.size
    if n == 0:
        return 0.0, 0, 0, 0, 0, np.empty(0, dtype=np.int64)
    if tables is None:
        tables = CostTables.of(cost_model)
    mig_t, ra_r_t, ra_w_t = tables.migration, tables.remote_read, tables.remote_write

    # one row per maximal constant-home run: its start, home, whether
    # its first access writes, how many accesses follow the first, and
    # how many of those write
    change = np.flatnonzero(homes[1:] != homes[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.append(change, n)
    wsum = np.concatenate(([0], np.cumsum(writes)))
    rest_writes = wsum[ends] - wsum[starts + 1]

    MIGRATE, LOCAL = Decision.MIGRATE, Decision.LOCAL
    decide, observe, observe_run = scheme.decide, scheme.observe, scheme.observe_run
    cur = int(start_core)
    cost = 0.0
    n_ra = n_ra_w = 0
    # where the thread stands from each access index on: its start core,
    # then each migration's (access index, destination)
    moved_at = [0]
    moved_to = [cur]
    for s, h, w, rest, n_w in zip(
        starts.tolist(),
        homes[starts].tolist(),
        writes[starts].tolist(),
        (ends - starts - 1).tolist(),
        rest_writes.tolist(),
    ):
        if h == cur:
            observe(cur, h, 0, w, LOCAL)
        else:
            d = decide(cur, h, 0, w)
            if d == MIGRATE:
                cost += mig_t[cur][h]
                moved_at.append(s)
                moved_to.append(h)
                cur = h
                observe(cur, h, 0, w, d)
            else:
                cost += (ra_w_t if w else ra_r_t)[cur][h]
                n_ra += 1
                n_ra_w += w
                observe(cur, h, 0, w, d)
                if rest:
                    mig_r = n_w < rest and decide(cur, h, 0, False) == MIGRATE
                    mig_w = n_w > 0 and decide(cur, h, 0, True) == MIGRATE
                    if not (mig_r or mig_w):
                        cost += (rest - n_w) * ra_r_t[cur][h] + n_w * ra_w_t[cur][h]
                        n_ra += rest
                        n_ra_w += n_w
                    else:
                        if mig_r and mig_w:
                            k = s + 1
                        elif mig_w:  # reads stay remote until the first write
                            k = s + 1 + int(writes[s + 1 : s + 1 + rest].argmax())
                            cost += (k - s - 1) * ra_r_t[cur][h]
                        else:  # writes stay remote until the first read
                            k = s + 1 + int(writes[s + 1 : s + 1 + rest].argmin())
                            cost += (k - s - 1) * ra_w_t[cur][h]
                            n_ra_w += k - s - 1
                        n_ra += k - s - 1
                        cost += mig_t[cur][h]
                        moved_at.append(k)
                        moved_to.append(h)
                        cur = h
        if rest:
            observe_run(h, rest)
    n_mig = len(moved_at) - 1
    bits = (
        n_mig * tables.migration_bits
        + (n_ra - n_ra_w) * tables.ra_bits_read
        + n_ra_w * tables.ra_bits_write
    )
    # each access executes where the thread stands after it
    moved_at.append(n)
    exec_cores = np.repeat(np.array(moved_to, dtype=np.int64), np.diff(moved_at))
    return cost, n_mig, n_ra, n - n_mig - n_ra, bits, exec_cores


def evaluate_scheme(
    trace: MultiTrace,
    placement: Placement,
    scheme: DecisionScheme,
    cost_model: CostModel,
    collect_run_lengths: bool = False,
) -> EvalResult:
    """Evaluate ``scheme`` over every thread of ``trace``."""
    result = EvalResult(scheme=scheme.name)
    if isinstance(scheme, (AlwaysMigrate, NeverMigrate)):
        tables = None  # the vectorized paths index the numpy matrices
    else:
        tables = CostTables.of(cost_model)
    hists = []
    for t, tr in enumerate(trace.threads):
        if tr.size == 0:
            result.per_thread_cost.append(0.0)
            continue
        homes = placement.home_of(tr["addr"])
        writes = tr["write"]
        start = trace.thread_native_core[t] % cost_model.config.num_cores
        if isinstance(scheme, AlwaysMigrate):
            out = _fast_always_migrate(homes, writes, start, cost_model)
        elif isinstance(scheme, NeverMigrate):
            out = _fast_never_migrate(homes, writes, start, cost_model)
        else:
            per_thread = scheme.clone()
            per_thread.reset()
            if per_thread.run_constant:
                out = evaluate_thread_runs(
                    homes, writes, start, per_thread, cost_model, tables
                )
            else:
                out = evaluate_thread(
                    homes,
                    writes,
                    start,
                    per_thread,
                    cost_model,
                    addrs=tr["addr"].astype(np.int64),
                    tables=tables,
                )
        cost, n_mig, n_ra, n_loc, bits, _cores = out
        result.total_cost += cost
        result.migrations += n_mig
        result.remote_accesses += n_ra
        result.local_accesses += n_loc
        result.traffic_bits += bits
        result.per_thread_cost.append(cost)
        if collect_run_lengths:
            hists.append(run_length_histogram(homes, start))
    if collect_run_lengths:
        result.run_length_hist = merge_histograms(hists)
    return result


@MACHINES.register(
    "analytical", "fast trace-driven scheme evaluation (the paper's cost model)"
)
def _run_analytical(trace, placement, config, scheme=None, topology=None, **params):
    from repro.util.errors import ConfigError

    if scheme is None:
        raise ConfigError("machine 'analytical' requires a decision scheme")
    if params.get("faults") is not None:
        raise ConfigError(
            "machine 'analytical' cannot model faults; use a detailed "
            "machine (em2, em2ra, ra-only, cc-msi, cc-mesi)"
        )
    params.pop("faults", None)
    params.pop("fast_path", None)  # a detailed-simulator knob; no-op here
    cost = CostModel(config, topology)
    return evaluate_scheme(trace, placement, scheme, cost, **params).as_dict()
