"""Sweeping one workload's grid: set-up, timed rounds, process hygiene."""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import grid

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: A round that runs longer than this raises; its points count as failed.
ROUND_TIMEOUT = 90.0

clock = time.perf_counter


def import_repro():
    """Import ``repro`` from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources in {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return repro


class RoundTimeout(Exception):
    """Raised by the alarm; an ``Exception`` so a sweep attributes it to
    the point that was running."""


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise RoundTimeout(f"round exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Grid:
    """One workload's points at one size and seed, ready to sweep."""

    def __init__(self, workload: str, size: str, seed: int, scratch: Path) -> None:
        from repro.analysis.parallel import effective_workers

        self.workload = grid.WORKLOADS[workload]
        self.size, self.seed = size, seed
        self.base = grid.base_spec(size)
        self.points = grid.points(self.workload, size, seed)
        self.workers = effective_workers(self.workload.workers)
        self.scratch = scratch
        self.accesses: list[int] = []
        self._dirs = 0

    def _fresh_dir(self, kind: str) -> Path:
        self._dirs += 1
        return self.scratch / f"{kind}-{self._dirs}"

    def prepare(self) -> None:
        """Generate every distinct trace and build its placement with an
        empty trace store: the work ``setup_s`` times."""
        from repro.trace.store import TraceStore, set_trace_store

        set_trace_store(TraceStore(self._fresh_dir("store")))
        self.accesses = grid.prepare(self.base, self.points)

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses)

    def round(self, rec=None, workers: int | None = None) -> tuple[float, list[dict]]:
        """Sweep the grid once through ``sweep_specs``; returns the host
        seconds from spec list to canonical rows, and the rows.

        A cached workload starts from an empty build memo, trace store
        and result cache, then re-runs warm (untimed) and raises if the
        warm rows differ from the cold ones. ``rec`` records spans.
        """
        import repro.analysis.cache as cache_mod
        from repro.analysis.sweep import sweep_specs
        from repro.runner import clear_build_memo
        from repro.trace.store import TraceStore, set_trace_store

        def call(name, *args, **kwargs):
            if rec is None:
                return sweep_specs(*args, **kwargs)
            return rec.call(name, sweep_specs, args, kwargs)

        workers = self.workload.workers if workers is None else workers
        cache = None
        if self.workload.cached and workers > 1:
            clear_build_memo()
            set_trace_store(TraceStore(self._fresh_dir("store")))
            cache = cache_mod.ResultCache(self._fresh_dir("cache"))
        with deadline(ROUND_TIMEOUT):
            start = clock()
            rows = call("analysis.sweep_specs", self.base, self.points,
                        workers=workers, cache=cache)
            # module attribute, so a traced round sees the wrapper
            rows = cache_mod.canonical_rows(rows)
            seconds = clock() - start
            if cache is not None:
                warm = call("analysis.sweep_specs_warm", self.base, self.points,
                            workers=workers, cache=cache)
                if json.dumps(cache_mod.canonical_rows(warm)) != json.dumps(rows):
                    raise RuntimeError("warm re-run rows differ from the cold rows")
        return seconds, rows

    def best_rate(self, seconds: list[float]) -> float:
        """Accesses per host second in the fastest of the rounds that
        took ``seconds``. Other tenants of a shared host only ever slow
        a round down, so the fastest round is the one they disturbed
        least."""
        return self.total_accesses / min(seconds) if seconds else 0.0


def peak_rss_mb() -> float:
    """High-water resident memory of this process and its children
    (live pool workers by ``VmHWM``, reaped ones by ``getrusage``)."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]))
        except OSError:
            pass  # exited meanwhile: getrusage covers it once reaped
    return max(peaks) / 1024.0  # kB -> MB


def stop_children(timeout: float = 30.0) -> None:
    """Shut the sweep pool down and wait for every worker to end, and
    for the resource tracker that shared-memory publishing starts."""
    from multiprocessing import resource_tracker

    from repro.analysis.parallel import shutdown_pool

    shutdown_pool()
    deadline_at = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline_at - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)
    # no public way to stop it; ``_stop`` closes its pipe and reaps it,
    # and the next shared-memory use starts a fresh one
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()


def setup_seconds(workload: str, size: str, seed: int, scratch: Path) -> float:
    """Set-up time in a fresh interpreter (see ``setup_probe.py``)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, size, str(seed), str(scratch)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def make_scratch() -> Path:
    path = OUT / f"scratch-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
