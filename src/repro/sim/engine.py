"""Time-ordered event queue with deterministic execution.

Design notes
------------
* The heap holds ``(time, seq, Event)`` tuples, not bare events.
  ``seq`` is a monotonically increasing counter, which makes same-time
  events run in scheduling (FIFO) order — determinism matters because
  the protocol models break ties by arrival order. Because ``seq`` is
  unique, tuple comparison never reaches the third element, so heap
  sifts run entirely in C instead of calling ``Event.__lt__`` —
  millions of Python comparison calls removed from large runs.
* :class:`Event` is a ``__slots__`` class, not a dataclass: large NoC
  runs allocate millions of events, and per-instance ``__dict__``
  plus generated dataclass ``__init__`` overhead dominated profiles.
* Cancellation is lazy in the heap (cancelled events are skipped when
  popped) but eager in the bookkeeping: the engine keeps a live-event
  counter so :meth:`Engine.pending` is O(1) instead of scanning the
  whole heap per call.
* Callbacks schedule further events; the engine never inspects model
  state. This keeps the engine reusable for every architecture model.
* ``run()`` executes to quiescence (empty queue) or until ``until``;
  a ``max_events`` guard turns runaway protocol bugs into
  :class:`~repro.util.errors.DeadlockError`-adjacent diagnostics rather
  than silent infinite loops.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.util.errors import LivenessError, ReproError


class Event:
    """A scheduled callback. Ordered by (time, seq)."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        engine: "Engine | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{flag})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Idempotent; the owning engine's live-event counter is
        decremented exactly once.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._live -= 1


class Engine:
    """A minimal deterministic discrete-event simulator."""

    #: Liveness ceiling for ``run()`` when the caller sets no explicit
    #: ``max_events``: far above any legitimate run in this repo (the
    #: biggest benches execute low tens of millions of events), so a
    #: protocol livelock raises :class:`LivenessError` instead of
    #: spinning the test suite forever. Override on an instance (or
    #: pass ``max_events``) for genuinely larger simulations.
    DEFAULT_MAX_EVENTS: int = 200_000_000

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0  # scheduled and not yet executed or cancelled
        self.now: float = 0.0
        self.events_executed: int = 0

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        Returns the :class:`Event`, which the caller may :meth:`Event.cancel`.
        """
        if delay < 0:
            raise ReproError(f"cannot schedule into the past (delay={delay})")
        when = self.now + delay
        seq = self._seq
        ev = Event(when, seq, callback, args, engine=self)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._queue, (when, seq, ev))
        return ev

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def requeue(self, ev: Event, delay: float) -> Event:
        """Put a fired event back in the queue ``delay`` from now.

        The recycling counterpart of :meth:`schedule`: same time and
        sequence number as a fresh ``schedule(delay, ...)`` call here,
        without allocating an :class:`Event`. ``ev`` must have fired
        and not be cancelled — a fired event is out of the heap, while
        a cancelled one may still sit in it (lazy deletion). Callers
        that change what runs assign ``ev.callback``/``ev.args`` first;
        ``delay`` must be >= 0 (unchecked: this is the transport hot
        path).
        """
        when = self.now + delay
        seq = self._seq
        ev.time = when
        ev.seq = seq
        ev._engine = self  # the run loop cleared it on pop
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._queue, (when, seq, ev))
        return ev

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None if the queue is empty."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        while self._queue:
            when, _, ev = heapq.heappop(self._queue)
            if ev.cancelled:
                continue
            self._live -= 1
            ev._engine = None  # late cancel() must not re-decrement
            self.now = when
            self.events_executed += 1
            ev.callback(*ev.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until quiescence, simulated time ``until``, or ``max_events``.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        The loop pops the heap directly (no peek-then-step double scan) —
        this is the innermost loop of every behavioral run.
        """
        queue = self._queue
        pop = heapq.heappop
        if until is None and max_events is None:
            # run-to-quiescence fast loop: one int compare per event is
            # the whole cost of the default liveness ceiling;
            # executed-count folded into the attribute once at the end
            ceiling = self.DEFAULT_MAX_EVENTS
            executed = 0
            try:
                while queue:
                    when, _, ev = pop(queue)  # no peek: nothing bounds the pop
                    if ev.cancelled:
                        continue
                    self._live -= 1
                    ev._engine = None
                    self.now = when
                    executed += 1
                    if executed > ceiling:
                        raise LivenessError(self._liveness_message(ceiling, ev))
                    ev.callback(*ev.args)
            finally:
                self.events_executed += executed
            return
        if max_events is None:
            # until-bounded loop: the horizon check is the only compare
            # per event (peek first — a too-late event stays queued)
            while queue:
                when, _, ev = queue[0]
                if ev.cancelled:
                    pop(queue)
                    continue
                if when > until:
                    self.now = until
                    return
                pop(queue)
                self._live -= 1
                ev._engine = None
                self.now = when
                self.events_executed += 1
                ev.callback(*ev.args)
            return
        if until is None:
            # max-events-bounded loop: nothing bounds time, so pop
            # directly; one counter compare per event
            executed = 0
            while queue:
                when, _, ev = pop(queue)
                if ev.cancelled:
                    continue
                self._live -= 1
                ev._engine = None
                self.now = when
                self.events_executed += 1
                ev.callback(*ev.args)
                executed += 1
                if executed >= max_events:
                    raise LivenessError(self._liveness_message(max_events, ev))
            return
        # both bounds set: the rare fully generic loop
        executed = 0
        while queue:
            when, _, ev = queue[0]
            if ev.cancelled:
                pop(queue)
                continue
            if when > until:
                self.now = until
                return
            pop(queue)
            self._live -= 1
            ev._engine = None
            self.now = when
            self.events_executed += 1
            ev.callback(*ev.args)
            executed += 1
            if executed >= max_events:
                raise LivenessError(self._liveness_message(max_events, ev))

    def _liveness_message(self, ceiling: int, ev: Event) -> str:
        cb = ev.callback
        name = getattr(cb, "__qualname__", None) or repr(cb)
        return (
            f"engine exceeded max_events={ceiling} at t={self.now}; "
            f"likely a protocol livelock (last scheduled callback: {name})"
        )

    def pending(self) -> int:
        """Number of (non-cancelled) events still queued. O(1): reads
        the live counter rather than scanning the heap."""
        return self._live
