"""Property tests: the run kernel equals the reference walk.

``evaluate_thread_runs`` walks constant-home runs and consults a
run-constant scheme a few times per run; ``evaluate_thread`` walks
accesses and consults it on every non-local one. On any trace the two
must agree exactly on cost, migrations, remote and local accesses,
traffic bits and the core each access executed on.

The cases that matter most:

* history predictors whose table is smaller than the core count, so
  homes alias and the update at a run's first access can flip the
  decision for the rest of that run;
* read/write-asymmetric schemes, where a run's reads and writes decide
  differently and the thread migrates part-way through a run;
* ``NativeFirst``, whose native-core latch is set by its first decide.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import small_test_config
from repro.core.costs import CostModel
from repro.core.decision import (
    AlwaysMigrate,
    CostAwareHistory,
    DistanceThreshold,
    HistoryRunLength,
    NativeFirst,
    NeverMigrate,
)
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.evaluation import evaluate_thread, evaluate_thread_runs

CORES = 9
CM = CostModel(small_test_config(num_cores=CORES))
DM = CM.topology.distance_matrix


class _WriteMigrates(DecisionScheme):
    """Writes migrate, reads stay remote."""

    run_constant = True

    def decide(self, current, home, addr, write):
        return Decision.MIGRATE if write else Decision.REMOTE


class _ReadMigrates(DecisionScheme):
    """Reads migrate, writes stay remote."""

    run_constant = True

    def decide(self, current, home, addr, write):
        return Decision.REMOTE if write else Decision.MIGRATE


class _NearWritesMigrate(DecisionScheme):
    """Writes migrate within ``hops`` of the current core; reads and far
    writes stay remote — asymmetric and position-dependent."""

    run_constant = True

    def __init__(self, hops):
        self.hops = hops

    def decide(self, current, home, addr, write):
        if write and DM[current, home] <= self.hops:
            return Decision.MIGRATE
        return Decision.REMOTE

    def clone(self):
        return _NearWritesMigrate(self.hops)


# runs of one home; consecutive runs may repeat a home, which the
# kernel must merge into one maximal run exactly as the walk sees it
runs = st.lists(
    st.tuples(
        st.integers(0, CORES - 1),
        st.lists(st.booleans(), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=40,
)

table_sizes = st.sampled_from([1, 2, 3, 4, 64])
predictions = st.sampled_from([0.0, 1.0, 2.0, 5.0])

history = st.builds(
    HistoryRunLength,
    threshold=st.sampled_from([0.0, 1.5, 2.0, 3.0, 6.0]),
    table_size=table_sizes,
    initial_prediction=predictions,
)
costaware = st.builds(
    CostAwareHistory,
    st.just(CM),
    table_size=table_sizes,
    initial_prediction=predictions,
    write_fraction_hint=st.sampled_from([0.0, 0.2, 1.0]),
)
stateless = st.one_of(
    st.builds(DistanceThreshold, st.just(DM), st.sampled_from([-1, 0, 1, 2, 3, float("inf")])),
    st.builds(AlwaysMigrate),
    st.builds(NeverMigrate),
    st.builds(_WriteMigrates),
    st.builds(_ReadMigrates),
    st.builds(_NearWritesMigrate, st.integers(0, 4)),
)
run_constant_schemes = st.one_of(
    history,
    costaware,
    stateless,
    st.builds(NativeFirst, away=st.one_of(history, costaware, stateless)),
)


def _trace(rs):
    homes = np.array([h for h, ws in rs for _ in ws], dtype=np.int64)
    writes = np.array([w for _h, ws in rs for w in ws], dtype=bool)
    return homes, writes


@settings(max_examples=400, deadline=None)
@given(runs, st.integers(0, CORES - 1), run_constant_schemes)
def test_run_kernel_equals_walk(rs, start, scheme):
    homes, writes = _trace(rs)
    assert scheme.run_constant
    fast = evaluate_thread_runs(homes, writes, start, scheme.clone(), CM)
    slow = evaluate_thread(homes, writes, start, scheme.clone(), CM)
    # cost entries are integer-valued, so count x entry is exact
    assert fast[:5] == slow[:5]
    assert fast[5].tolist() == slow[5].tolist()


aliasing = st.one_of(
    st.builds(
        HistoryRunLength,
        threshold=st.sampled_from([1.5, 2.0, 3.0]),
        table_size=st.integers(1, CORES - 1),
        initial_prediction=predictions,
    ),
    st.builds(
        CostAwareHistory,
        st.just(CM),
        table_size=st.integers(1, CORES - 1),
        initial_prediction=predictions,
    ),
)


@settings(max_examples=300, deadline=None)
@given(runs, st.integers(0, CORES - 1), aliasing)
def test_aliasing_history_equals_walk(rs, start, scheme):
    """Predictor tables smaller than the core count alias homes: the
    update at a run's first access can change the rest's decision."""
    homes, writes = _trace(rs)
    fast = evaluate_thread_runs(homes, writes, start, scheme.clone(), CM)
    slow = evaluate_thread(homes, writes, start, scheme.clone(), CM)
    assert fast[:5] == slow[:5]
    assert fast[5].tolist() == slow[5].tolist()
