"""Stateless decision schemes.

These bracket the design space: ``AlwaysMigrate`` is pure EM² (§2),
``NeverMigrate`` is the remote-access-only architecture of [15], and
``DistanceThreshold`` is the simplest plausible hardware scheme — the
migration's serialization cost is fixed, so short hops amortize it
fastest.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.decision.base import Decision, DecisionScheme
from repro.registry import SCHEMES
from repro.util.errors import ConfigError
from repro.util.rng import as_generator


class AlwaysMigrate(DecisionScheme):
    """Pure EM²: every non-local access migrates to the home core."""

    name = "always-migrate"
    run_constant = True

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        return Decision.MIGRATE


class NeverMigrate(DecisionScheme):
    """Remote-access-only (Fensch & Cintra-style [15]): never migrate.

    The thread stays at its native core forever; every non-local word
    costs a round trip.
    """

    name = "never-migrate"
    run_constant = True

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        return Decision.REMOTE


class NativeFirst(DecisionScheme):
    """Always migrate *home*; delegate the away decision to ``away``.

    Rationale (the scheme family of the follow-up EM² hardware work):
    a thread's private data dominates its accesses, so an access homed
    at the native core almost always starts a long local run — migrate
    back unconditionally. Accesses homed at *other* cores go to the
    ``away`` policy (default: remote access).

    Note the degenerate case, asserted in the tests: with
    ``away=NeverMigrate()`` the thread never leaves its native core,
    so the home rule never fires and the scheme *is* NeverMigrate.
    The composition earns its keep with any away policy that migrates
    (distance thresholds, history) — it guarantees the thread's private
    working set is always reached by migration, never by RA storms.

    The native core is latched at the first consultation: a thread can
    only move via a decision, so at first consult it is still at its
    native core.
    """

    name = "native-first"

    def __init__(
        self,
        away: DecisionScheme | None = None,
        native_core: int | None = None,
    ) -> None:
        self.away = away if away is not None else NeverMigrate()
        self.native_core = native_core

    @property
    def run_constant(self) -> bool:
        # the native-core latch is fixed after the first consult, so the
        # composition is run-constant exactly when the away policy is
        return self.away.run_constant

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        if self.native_core is None:
            self.native_core = current
        if home == self.native_core:
            return Decision.MIGRATE
        return self.away.decide(current, home, addr, write)

    def observe(self, current: int, home: int, addr: int, write: bool, decision: Decision) -> None:
        self.away.observe(current, home, addr, write, decision)

    def observe_run(self, home: int, n: int) -> None:
        self.away.observe_run(home, n)

    def reset(self) -> None:
        self.native_core = None
        self.away.reset()

    def clone(self) -> "NativeFirst":
        return NativeFirst(away=self.away.clone())  # fresh latch per thread


class DistanceThreshold(DecisionScheme):
    """Migrate when the home is within ``threshold`` hops, else RA.

    Requires the topology's distance matrix (a small core-local ROM in
    hardware). ``threshold=inf`` degenerates to AlwaysMigrate,
    ``threshold=-1`` to NeverMigrate.
    """

    name = "distance-threshold"
    run_constant = True

    def __init__(self, distance_matrix: np.ndarray, threshold: float) -> None:
        self.distance_matrix = np.asarray(distance_matrix)
        if self.distance_matrix.ndim != 2 or (
            self.distance_matrix.shape[0] != self.distance_matrix.shape[1]
        ):
            raise ConfigError("distance_matrix must be square")
        self.threshold = threshold
        # the comparator's outcome per (current, home) as nested lists:
        # a list lookup is cheaper than a numpy scalar index
        self._near = (self.distance_matrix <= threshold).tolist()

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        if self._near[current][home]:
            return Decision.MIGRATE
        return Decision.REMOTE

    def clone(self) -> "DistanceThreshold":
        return copy.copy(self)  # no per-thread state; shares the table


class RandomScheme(DecisionScheme):
    """Migrate with probability ``p`` — the sanity baseline every real
    scheme must beat."""

    name = "random"

    def __init__(self, p: float = 0.5, seed: int | None = 0) -> None:
        if not (0.0 <= p <= 1.0):
            raise ConfigError("p must be in [0, 1]")
        self.p = p
        self.seed = seed
        self._rng = as_generator(seed)

    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        return Decision.MIGRATE if self._rng.random() < self.p else Decision.REMOTE

    def reset(self) -> None:
        self._rng = as_generator(self.seed)

    def clone(self) -> "RandomScheme":
        return RandomScheme(self.p, self.seed)


# ------------------------------------------------------------- registry
# Factories take the experiment's CostModel (topology/config context a
# core-local hardware unit would be provisioned with) plus SchemeSpec
# params, and return a fresh scheme instance.
@SCHEMES.register("always-migrate", "pure EM2: migrate on every non-local access")
def _make_always_migrate(cost, **params):
    return AlwaysMigrate(**params)


@SCHEMES.register("never-migrate", "remote-access-only: never migrate")
def _make_never_migrate(cost, **params):
    return NeverMigrate(**params)


@SCHEMES.register("distance-1", "migrate when the home is within 1 hop")
def _make_distance_1(cost, threshold: float = 1, **params):
    return DistanceThreshold(cost.topology.distance_matrix, threshold, **params)


@SCHEMES.register("distance-2", "migrate when the home is within 2 hops")
def _make_distance_2(cost, threshold: float = 2, **params):
    return DistanceThreshold(cost.topology.distance_matrix, threshold, **params)


@SCHEMES.register("random", "migrate with probability p (sanity baseline)")
def _make_random(cost, p: float = 0.5, seed: int | None = 0, **params):
    return RandomScheme(p=p, seed=seed, **params)


@SCHEMES.register("native-first", "always migrate home; RA when homed away")
def _make_native_first(cost, **params):
    return NativeFirst(**params)
