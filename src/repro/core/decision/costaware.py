"""Cost-aware history scheme: per-pair break-even comparison.

:class:`~repro.core.decision.history.HistoryRunLength` compares the
predicted run length against one global threshold — a single
comparator, but blind to *where* the home is: the migration/RA
break-even run length varies with hop distance (serialization is
fixed, hops are not).

:class:`CostAwareHistory` keeps the same last-run-length predictor but
decides by evaluating the actual cost inequality for this (current,
home) pair:

    migrate  iff  L_pred * cost_ra(cur, home) > cost_mig(cur, home) +
                  cost_mig(home, cur)

In hardware this is the same predictor table plus two small ROM
lookups and one multiply-compare — still cheap, and it removes the
threshold tuning knob entirely. The benches show it dominating the
scalar-threshold scheme across workloads.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.costs import CostModel
from repro.core.decision.base import Decision, DecisionScheme
from repro.core.decision.history import PerHomePredictor
from repro.registry import SCHEMES


class CostAwareHistory(DecisionScheme):
    """Last-run-length prediction + per-pair break-even decision."""

    name = "costaware-history"
    run_constant = True  # the predictor changes only when a run ends

    def __init__(
        self,
        cost_model: CostModel,
        table_size: int = 64,
        initial_prediction: float = 1.0,
        write_fraction_hint: float = 0.2,
    ) -> None:
        self.cost_model = cost_model
        self.table_size = table_size
        self.initial_prediction = initial_prediction
        self.write_fraction_hint = write_fraction_hint
        self.predictor = PerHomePredictor(table_size, initial_prediction)
        mig = np.asarray(cost_model.migration)
        ra_r = np.asarray(cost_model.remote_read)
        ra_w = np.asarray(cost_model.remote_write)
        # expected per-access RA cost blends reads/writes by the hint;
        # nested lists hold the same doubles as the numpy matrices and
        # index without numpy scalar boxing
        self._ra = ((1 - write_fraction_hint) * ra_r + write_fraction_hint * ra_w).tolist()
        self._round_trip = (mig + mig.T).tolist()
        self._run_home: int | None = None
        self._run_len = 0

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        L = self.predictor.predict(home)
        if L * self._ra[current][home] > self._round_trip[current][home]:
            return Decision.MIGRATE
        return Decision.REMOTE

    def observe(self, current: int, home: int, addr: int, write: bool, decision: Decision) -> None:
        if home == self._run_home:
            self._run_len += 1
            return
        if self._run_home is not None:
            self.predictor.update(self._run_home, self._run_len)
        self._run_home = home
        self._run_len = 1

    def observe_run(self, home: int, n: int) -> None:
        self._run_len += n

    def reset(self) -> None:
        self.predictor.reset()
        self._run_home = None
        self._run_len = 0

    def clone(self) -> "CostAwareHistory":
        # shares the read-only cost tables; only the predictor and the
        # run tracker are per-thread
        twin = copy.copy(self)
        twin.predictor = PerHomePredictor(self.table_size, self.initial_prediction)
        twin.reset()
        return twin


@SCHEMES.register("costaware", "run-length prediction + per-pair break-even test")
def _make_costaware(cost, **params):
    return CostAwareHistory(cost, **params)
