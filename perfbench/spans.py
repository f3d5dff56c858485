"""Spans and counters recorded from the benchmark's own code.

Nothing in ``src/`` is instrumented. :func:`instrument` wraps the
public calls at each layer boundary (runner builders, machine
constructors/``run``/``results``, the coherence simulator, the
analytical evaluator, trace generation and the trace store, the result
cache, shared-memory publishing, canonicalization and the sweep's
dispatch) and returns a function that restores the originals. A span
is ``(id, parent_id, name, start, end, attrs)``; spans stay in memory
and are written out when the benchmark ends.

``scheme.decide`` runs once per non-local access, millions of times a
grid, so it is recorded as counters (calls, migrates, seconds) rather
than one span per call; its time stays inside the enclosing span's
self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter


class Phase:
    """Spans and counters of one stretch of the run (set-up, one round)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.phases: list[Phase] = []
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._in_decide = False

    def start(self, name: str) -> Phase:
        """Begin recording into a new phase."""
        phase = Phase(name)
        self.phases.append(phase)
        self.spans, self.counters = phase.spans, phase.counters
        self.enabled = True
        return phase

    def stop(self) -> None:
        self.enabled = False

    def active(self) -> bool:
        # forked pool workers inherit the wrappers; they record nothing
        return self.enabled and os.getpid() == self.pid

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.
        ``attrs`` is stored by reference, so callers may add to it
        after the call returns."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        spans = self.spans
        slot = len(spans)
        spans.append(None)  # keeps parents ahead of their children
        self._stack.append(sid)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            spans[slot] = (sid, parent, name, start, end, attrs if attrs is not None else {})

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "attrs")
        with open(path, "w") as fh:
            json.dump(
                [
                    {
                        "phase": p.name,
                        "counters": dict(p.counters),
                        "spans": [dict(zip(keys, s)) for s in p.spans],
                    }
                    for p in self.phases
                ],
                fh,
            )


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per span name: duration minus the time its
    direct children cover (children of one span never overlap, since
    every span here runs on one thread)."""
    child_time: defaultdict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end, _a in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end, _a in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


def _replace(owner, attr: str, new, restore: list) -> None:
    restore.append((owner, attr, vars(owner).get(attr)))
    setattr(owner, attr, new)


def _wrap_function(rec: Recorder, owner, attr: str, name: str, restore: list,
                   attrs_of=None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not rec.active():
            return orig(*args, **kwargs)
        attrs = attrs_of(args, kwargs) if attrs_of else None
        return rec.call(name, orig, args, kwargs, attrs)

    _replace(owner, attr, wrapper, restore)


def _wrap_method(rec: Recorder, cls, attr: str, name: str, restore: list, attrs_of=None,
                 after=None) -> None:
    """Wrap ``cls.attr`` for instances whose exact type is ``cls``, so a
    subclass constructor calling ``super().__init__`` opens one span.
    ``after(self, attrs, result)`` may add to the span's attrs."""
    orig = getattr(cls, attr)

    @functools.wraps(orig)
    def wrapper(self, *args, **kwargs):
        if type(self) is not cls or not rec.active():
            return orig(self, *args, **kwargs)
        attrs = attrs_of(self, args, kwargs) if attrs_of else {}
        out = rec.call(name, orig, (self,) + args, kwargs, attrs)
        if after is not None:
            after(self, attrs, out)
        return out

    _replace(cls, attr, wrapper, restore)


def instrument(rec: Recorder):
    """Install every wrapper; returns a zero-argument ``restore``."""
    # by module object: ``repro.analysis`` re-exports a function named
    # ``sweep`` that shadows the submodule attribute
    cache_mod, shm_mod, sweep_mod, evaluation_mod, runner = map(
        importlib.import_module,
        ("repro.analysis.cache", "repro.analysis.shm", "repro.analysis.sweep",
         "repro.core.evaluation", "repro.runner"),
    )
    from repro.coherence.simulator import DirectoryCCSimulator
    from repro.core.decision.base import Decision, DecisionScheme
    from repro.core.em2 import EM2Machine
    from repro.core.em2ra import EM2RAMachine
    from repro.core.remote_access import RemoteAccessMachine
    from repro.registry import SCHEMES
    from repro.trace.store import TraceStore
    from repro.trace.synthetic.base import WorkloadGenerator

    restore: list = []
    for attr in ("build", "build_workload", "build_placement", "build_system_config",
                 "build_topology", "run_spec_dict"):
        _wrap_function(rec, runner, attr, f"runner.{attr}", restore)
    _wrap_function(rec, evaluation_mod, "evaluate_scheme", "evaluation.evaluate_scheme",
                   restore, lambda args, kwargs: {"accesses": args[0].total_accesses})
    _wrap_function(rec, shm_mod, "publish", "analysis.shm_publish", restore)
    _wrap_function(rec, cache_mod, "canonical_rows", "analysis.canonical_rows", restore)
    _wrap_function(rec, sweep_mod, "parallel_sweep", "analysis.parallel_sweep", restore)

    def hit(obj, attrs, result):
        attrs["hit"] = result is not None

    _wrap_method(rec, cache_mod.ResultCache, "get", "analysis.cache_get", restore, after=hit)
    _wrap_method(rec, cache_mod.ResultCache, "put", "analysis.cache_put", restore)
    _wrap_method(rec, TraceStore, "get", "trace.store_get", restore, after=hit)
    _wrap_method(rec, TraceStore, "put", "trace.store_put", restore)

    orig_generate = WorkloadGenerator.generate

    @functools.wraps(orig_generate)
    def generate(self):
        if not rec.active():
            return orig_generate(self)
        trace = rec.call("trace.generate", orig_generate, (self,), {})
        rec.counters["trace.accesses"] += trace.total_accesses
        return trace

    _replace(WorkloadGenerator, "generate", generate, restore)

    def count_events(machine, attrs, result):
        rec.counters["sim.events"] += machine.engine.events_executed

    # span attrs carry the registry name the point's spec used
    for cls, name in ((EM2Machine, "em2"), (EM2RAMachine, "em2ra"),
                      (RemoteAccessMachine, "ra-only")):
        def construct_attrs(machine, args, kwargs, name=name):
            trace = args[0] if args else kwargs["trace"]
            return {"machine": name, "accesses": trace.total_accesses}

        def tagged(machine, args, kwargs, name=name):
            return {"machine": name}

        _wrap_method(rec, cls, "__init__", "machine.construct", restore, construct_attrs)
        _wrap_method(rec, cls, "run", "machine.run", restore, tagged, after=count_events)
        _wrap_method(rec, cls, "results", "machine.results", restore, tagged)

    def cc_attrs(sim, args, kwargs):
        # the registered factories pass ``protocol`` by keyword
        trace = args[0] if args else kwargs["trace"]
        return {"machine": f"cc-{kwargs.get('protocol', 'msi')}", "accesses": trace.total_accesses}

    _wrap_method(rec, DirectoryCCSimulator, "__init__", "coherence.construct", restore, cc_attrs)
    _wrap_method(rec, DirectoryCCSimulator, "run", "coherence.run", restore,
                 lambda sim, a, k: {"machine": f"cc-{sim.protocol}"})

    # every concrete scheme class that defines its own ``decide``
    SCHEMES.names()  # imports the scheme modules
    pending, seen = [DecisionScheme], set()
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls in seen or "decide" not in vars(cls):
            continue
        seen.add(cls)
        orig = vars(cls)["decide"]
        if getattr(orig, "__isabstractmethod__", False):
            continue

        def make(orig):
            @functools.wraps(orig)
            def decide(self, current, home, addr, write):
                # schemes that delegate (native-first) count once
                if rec._in_decide or not rec.active():
                    return orig(self, current, home, addr, write)
                rec._in_decide = True
                start = _clock()
                try:
                    d = orig(self, current, home, addr, write)
                finally:
                    rec.counters["decision.s"] += _clock() - start
                    rec._in_decide = False
                rec.counters["decision.calls"] += 1
                if d == Decision.MIGRATE:
                    rec.counters["decision.migrates"] += 1
                return d

            return decide

        _replace(cls, "decide", make(orig), restore)

    def undo() -> None:
        for owner, attr, own in reversed(restore):
            if own is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, own)

    return undo
