"""Decision-scheme interface.

A scheme is consulted once per *non-local* access (the home differs
from the thread's current core) and answers MIGRATE or REMOTE. It sees
only information a per-core hardware unit could have: the current
core, the home core, the address, whether the access writes, and its
own internal state (updated via :meth:`DecisionScheme.observe`).

Schemes are deliberately sequential objects — the reference evaluator
drives them access by access, mirroring the O(N) "cost of a specific
decision" procedure in §3. A scheme that declares itself
*run-constant* lets the evaluator drive it one home run at a time
instead (see :attr:`DecisionScheme.run_constant`).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod


class Decision(enum.IntEnum):
    LOCAL = 0  # home == current core; no decision needed
    MIGRATE = 1
    REMOTE = 2


class DecisionScheme(ABC):
    """Stateful per-thread decision unit."""

    name = "abstract"

    #: True for schemes that keep the run-constant contract, which lets
    #: :func:`repro.core.evaluation.evaluate_thread_runs` walk maximal
    #: constant-home runs instead of accesses:
    #:
    #: * ``decide`` depends only on (current, home, write) and on state
    #:   that changes only when ``observe`` sees an access homed
    #:   elsewhere than the previous one — never on the address, an
    #:   access count or a random stream;
    #: * ``decide`` changes no state a later ``decide`` reads, except on
    #:   the thread's first consultation;
    #: * observing the accesses after a run's first one is equivalent to
    #:   one :meth:`observe_run` call.
    #:
    #: A subclass that breaks the contract must set this back to False.
    run_constant = False

    @abstractmethod
    def decide(self, current: int, home: int, addr: int, write: bool) -> Decision:
        """Return MIGRATE or REMOTE for a non-local access."""

    def observe(self, current: int, home: int, addr: int, write: bool, decision: Decision) -> None:
        """Called after every access (including local ones) so history
        schemes can update their predictors. Default: no state."""

    def observe_run(self, home: int, n: int) -> None:
        """Observe ``n`` more accesses of the current run, all homed at
        ``home`` — the run-level stand-in for ``n`` :meth:`observe`
        calls, used only for run-constant schemes. Default: no state."""

    def reset(self) -> None:
        """Clear per-thread state (called between threads)."""

    def clone(self) -> "DecisionScheme":
        """A fresh instance with the same parameters (per-thread state).

        Default: construct a new object of the same class with the
        attributes stored by ``__init__``; schemes with constructor
        arguments override this.
        """
        return type(self)()
