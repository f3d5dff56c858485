"""Unit tests for the scheme evaluator (the O(N) procedure of §3)."""

import numpy as np
import pytest

from repro.arch.config import small_test_config
from repro.core.costs import CostModel
from repro.core.decision import (
    AddressIndexedHistory,
    AlwaysMigrate,
    CostAwareHistory,
    DistanceThreshold,
    HistoryRunLength,
    NeverMigrate,
    RandomScheme,
)
from repro.core.decision import NativeFirst
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.evaluation import (
    evaluate_scheme,
    evaluate_thread,
    evaluate_thread_runs,
)
from repro.placement import first_touch, striped
from repro.trace.events import MultiTrace, make_trace


@pytest.fixture
def cm():
    return CostModel(small_test_config(num_cores=4))


class TestEvaluateThread:
    def test_all_local_zero_cost(self, cm):
        homes = np.zeros(10, dtype=np.int64)
        cost, n_mig, n_ra, n_loc, bits, cores = evaluate_thread(
            homes, np.zeros(10, bool), 0, AlwaysMigrate(), cm
        )
        assert cost == 0 and n_mig == 0 and n_loc == 10 and bits == 0

    def test_always_migrate_follows_homes(self, cm):
        homes = np.array([1, 1, 2, 0])
        cost, n_mig, n_ra, n_loc, bits, cores = evaluate_thread(
            homes, np.zeros(4, bool), 0, AlwaysMigrate(), cm
        )
        assert n_mig == 3 and n_loc == 1 and n_ra == 0
        assert cores.tolist() == [1, 1, 2, 0]
        expect = cm.migration[0, 1] + cm.migration[1, 2] + cm.migration[2, 0]
        assert cost == pytest.approx(expect)

    def test_never_migrate_stays_home(self, cm):
        homes = np.array([1, 2, 3])
        writes = np.array([False, True, False])
        cost, n_mig, n_ra, n_loc, bits, cores = evaluate_thread(
            homes, writes, 0, NeverMigrate(), cm
        )
        assert n_ra == 3 and n_mig == 0
        assert (cores == 0).all()
        expect = cm.remote_read[0, 1] + cm.remote_write[0, 2] + cm.remote_read[0, 3]
        assert cost == pytest.approx(expect)

    def test_traffic_bits_accumulate(self, cm):
        homes = np.array([1, 2])
        _, _, _, _, bits, _ = evaluate_thread(
            homes, np.zeros(2, bool), 0, AlwaysMigrate(), cm
        )
        assert bits == 2 * cm.migration_bits()


class TestFastPathsMatchSequential:
    """The vectorized AlwaysMigrate/NeverMigrate paths must agree with
    the generic sequential evaluator on every statistic."""

    @pytest.mark.parametrize("seed", range(5))
    def test_always_migrate(self, cm, seed):
        rng = np.random.default_rng(seed)
        mt = MultiTrace(
            threads=[
                make_trace(
                    rng.integers(0, 64, 100),
                    writes=rng.integers(0, 2, 100),
                )
            ],
            thread_native_core=[0],
        )
        pl = striped(4, block_words=4)

        class _Always(AlwaysMigrate):
            pass  # defeat isinstance fast path? no - subclass still matches

        # compare fast path vs sequential manually
        homes = pl.home_of(mt.threads[0]["addr"])
        writes = mt.threads[0]["write"]
        from repro.core.evaluation import _fast_always_migrate

        fast = _fast_always_migrate(homes, writes, 0, cm)
        slow = evaluate_thread(homes, writes, 0, AlwaysMigrate(), cm)
        assert fast[0] == pytest.approx(slow[0])
        assert fast[1:5] == slow[1:5]
        assert (fast[5] == slow[5]).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_never_migrate(self, cm, seed):
        rng = np.random.default_rng(100 + seed)
        homes = rng.integers(0, 4, 80)
        writes = rng.integers(0, 2, 80).astype(bool)
        from repro.core.evaluation import _fast_never_migrate

        fast = _fast_never_migrate(homes, writes, 2, cm)
        slow = evaluate_thread(homes, writes, 2, NeverMigrate(), cm)
        assert fast[0] == pytest.approx(slow[0])
        assert fast[1:5] == slow[1:5]
        assert (fast[5] == slow[5]).all()


def _runny_trace(seed, cores=4, runs=40):
    """Homes with realistic run structure plus mixed reads/writes."""
    rng = np.random.default_rng(seed)
    homes = np.repeat(rng.integers(0, cores, runs), rng.integers(1, 6, runs))
    writes = rng.random(homes.size) < 0.4
    return homes.astype(np.int64), writes


class _WriteMigrates(DecisionScheme):
    """Asymmetric test scheme: writes migrate, reads stay remote —
    exercises the mixed-decision runs of the run kernel."""

    name = "write-migrates"
    run_constant = True

    def decide(self, current, home, addr, write):
        return Decision.MIGRATE if write else Decision.REMOTE

    def clone(self):
        return _WriteMigrates()


class _ReadMigrates(DecisionScheme):
    name = "read-migrates"
    run_constant = True

    def decide(self, current, home, addr, write):
        return Decision.REMOTE if write else Decision.MIGRATE

    def clone(self):
        return _ReadMigrates()


class TestBatchedMatchesSequential:
    """The run kernel (evaluate_thread_runs) must agree with the
    sequential walk on every statistic (cost up to float summation
    order)."""

    def _check(self, scheme_factory, homes, writes, start, cm):
        fast = evaluate_thread_runs(homes, writes, start, scheme_factory(), cm)
        slow = evaluate_thread(homes, writes, start, scheme_factory(), cm)
        assert fast[0] == pytest.approx(slow[0])
        assert fast[1:5] == slow[1:5]
        assert (fast[5] == slow[5]).all()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("threshold", [0, 1, 2, 100])
    def test_distance_threshold(self, cm, seed, threshold):
        homes, writes = _runny_trace(seed)
        dm = cm.topology.distance_matrix
        self._check(lambda: DistanceThreshold(dm, threshold), homes, writes, 0, cm)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("start", [0, 2])
    def test_native_first_over_distance(self, cm, seed, start):
        homes, writes = _runny_trace(10 + seed)
        dm = cm.topology.distance_matrix
        self._check(
            lambda: NativeFirst(away=DistanceThreshold(dm, 1)),
            homes, writes, start, cm,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_read_write_asymmetric_schemes(self, cm, seed):
        homes, writes = _runny_trace(20 + seed)
        self._check(_WriteMigrates, homes, writes, 0, cm)
        self._check(_ReadMigrates, homes, writes, 0, cm)

    def test_aliasing_flips_the_decision_mid_run(self, cm):
        """One predictor slot for every home: the run at home 2 closes
        the run at home 1 on its first access (decided REMOTE on the
        initial prediction), and the rest of it then migrates."""
        homes = np.array([1, 1, 1, 2, 2, 2], dtype=np.int64)
        writes = np.zeros(6, bool)
        history = lambda: HistoryRunLength(threshold=2.0, table_size=1)  # noqa: E731
        slow = evaluate_thread(homes, writes, 0, history(), cm)
        assert slow[1:4] == (1, 4, 1)
        assert slow[5].tolist() == [0, 0, 0, 0, 2, 2]
        self._check(history, homes, writes, 0, cm)

    def test_empty_thread(self, cm):
        out = evaluate_thread_runs(
            np.empty(0, np.int64), np.empty(0, bool), 0, _WriteMigrates(), cm
        )
        assert out[:5] == (0.0, 0, 0, 0, 0) and out[5].size == 0

    def test_non_run_constant_scheme_rejected(self, cm):
        for scheme in (AddressIndexedHistory(threshold=2.0), RandomScheme(0.5, seed=1)):
            with pytest.raises(ValueError, match="not run-constant"):
                evaluate_thread_runs(np.array([1]), np.array([False]), 0, scheme, cm)

    def test_run_constant_flags(self, cm):
        dm = cm.topology.distance_matrix
        assert DistanceThreshold(dm, 1).run_constant
        assert HistoryRunLength(threshold=2.0).run_constant
        assert CostAwareHistory(cm).run_constant
        assert NativeFirst(away=DistanceThreshold(dm, 1)).run_constant
        assert NativeFirst(away=HistoryRunLength(threshold=2.0)).run_constant
        assert not NativeFirst(away=RandomScheme()).run_constant
        assert not AddressIndexedHistory(threshold=2.0).run_constant
        assert not RandomScheme().run_constant

    def test_evaluate_scheme_dispatch_matches_sequential(self, cm):
        """Whole-trace totals through the run kernel equal a hand-run
        sequential evaluation."""
        rng = np.random.default_rng(0)
        threads = []
        for _ in range(3):
            addrs = np.repeat(rng.integers(0, 64, 30), rng.integers(1, 5, 30))
            threads.append(make_trace(addrs, writes=rng.integers(0, 2, addrs.size)))
        mt = MultiTrace(threads=threads, thread_native_core=[0, 1, 2])
        pl = striped(4, block_words=4)
        dm = cm.topology.distance_matrix
        r = evaluate_scheme(mt, pl, DistanceThreshold(dm, 1), cm)
        total = 0.0
        migs = 0
        for t, tr in enumerate(mt.threads):
            homes = pl.home_of(tr["addr"])
            cost, n_mig, *_ = evaluate_thread(
                homes, tr["write"], t, DistanceThreshold(dm, 1), cm
            )
            total += cost
            migs += n_mig
        assert r.total_cost == pytest.approx(total)
        assert r.migrations == migs


class TestEvaluateScheme:
    def test_aggregates_across_threads(self, cm, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        r = evaluate_scheme(pingpong_small, pl, AlwaysMigrate(), cm)
        assert r.total_accesses == pingpong_small.total_accesses
        assert len(r.per_thread_cost) == 4
        assert r.total_cost == pytest.approx(sum(r.per_thread_cost))

    def test_run_length_histogram_optional(self, cm, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        r = evaluate_scheme(pingpong_small, pl, NeverMigrate(), cm)
        assert r.run_length_hist is None
        r2 = evaluate_scheme(
            pingpong_small, pl, NeverMigrate(), cm, collect_run_lengths=True
        )
        assert r2.run_length_hist is not None
        assert r2.run_length_hist.count > 0

    def test_stateful_scheme_isolated_per_thread(self, cm):
        """History learned by thread 0 must not leak into thread 1."""
        t0 = make_trace([100] * 50)  # long run teaches 'migrate'
        t1 = make_trace([100])  # single access: fresh table says RA
        mt = MultiTrace(threads=[t0, t1], thread_native_core=[0, 1])
        pl = striped(4, block_words=1)
        scheme = HistoryRunLength(threshold=2.0)
        r = evaluate_scheme(mt, pl, scheme, cm)
        # if state leaked, thread 1 would migrate; isolated it does RA.
        # total: thread0 learns after first run; thread1 must RA.
        assert r.remote_accesses >= 1

    def test_nonlocal_fraction(self, cm):
        mt = MultiTrace(threads=[make_trace([0, 100, 0, 100])], thread_native_core=[0])
        pl = striped(4, block_words=1)
        r = evaluate_scheme(mt, pl, NeverMigrate(), cm)
        # home(0)=0 local; home(100)=0? 100 % 4 == 0 -> local too. use striped block 1: 100%4=0
        assert 0.0 <= r.nonlocal_fraction <= 1.0

    def test_empty_thread_handled(self, cm):
        mt = MultiTrace(threads=[make_trace([]), make_trace([5])])
        pl = striped(4, block_words=1)
        r = evaluate_scheme(mt, pl, AlwaysMigrate(), cm)
        assert r.per_thread_cost[0] == 0.0

    def test_as_dict_keys(self, cm, pingpong_small):
        pl = first_touch(pingpong_small, 4)
        d = evaluate_scheme(pingpong_small, pl, AlwaysMigrate(), cm).as_dict()
        for key in ("scheme", "total_cost", "migrations", "traffic_bits"):
            assert key in d
