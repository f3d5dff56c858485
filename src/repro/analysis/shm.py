"""Zero-copy MultiTrace distribution over POSIX shared memory.

A spec-driven sweep evaluates many (scheme, placement, machine) points
on a handful of distinct workloads. Before this module, every pool
worker *regenerated* each workload's trace from the spec — tens of MB
of address columns rebuilt per process, dominating sweep wall-clock
(BENCH_perf measured parallel "speedup" of 0.5 on the seed).

The fix: the parent generates (or loads) each distinct trace once,
:func:`publish`\\ es its columns into a
:class:`multiprocessing.shared_memory.SharedMemory` segment, and ships
workers a tiny picklable *descriptor* instead of the data. Workers
:func:`attach` read-only numpy views over the same physical pages —
zero copies, zero per-worker generation, constant memory across the
pool.

Lifecycle rules (the part that goes wrong in practice):

* The **parent** owns every segment: :func:`published_traces` is a
  context manager that unlinks all segments on exit, success or error.
  Nothing here survives the sweep — a crashed parent leaves at most
  the segments of one in-flight sweep (named ``repro_trc_*`` so they
  are identifiable in ``/dev/shm``).
* **Workers** cache attachments per process and never close one while
  an array mapped over it may be live (closing the mapping under a
  numpy view is a use-after-free; numpy holds no buffer export that
  would make ``close()`` refuse). The cache keeps only weak references
  to its arrays, and :func:`release_unreferenced` closes the segments
  nothing maps any more — a persistent pool worker then holds the
  current sweep's traces, not every trace it ever attached.
* Attaching registers the segment with the resource tracker (Python
  ≤ 3.12 has no opt-out). Pool workers — forked, spawned or from a
  forkserver — share their parent's tracker, which already holds the
  parent's registration, so they leave it alone: unregistering would
  remove the parent's entry, and the parent's own ``unlink()`` would
  then make the tracker print a ``KeyError`` traceback. Only a process
  with a tracker of its own unregisters, or its tracker would unlink
  the parent's segment when that process exits, corrupting its
  siblings. The descriptor names the publisher's tracker so an
  attaching process can tell which case it is in.
* :func:`shm_available` gates the whole path; platforms without
  ``/dev/shm`` (or with it mounted unwritable) fall back to the
  regenerate-in-worker behaviour, which is slower but always correct.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import weakref
from dataclasses import dataclass

import numpy as np

from repro.trace.events import MultiTrace
from repro.util.errors import ConfigError

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

#: Every segment this module creates carries this prefix, so leaked
#: blocks are attributable (and the leak test can scan /dev/shm).
SEGMENT_PREFIX = "repro_trc_"

_available: bool | None = None


def shm_available() -> bool:
    """Whether this host can create and reopen shared-memory segments.

    Probed once per process by actually round-tripping a tiny segment;
    sweeps consult this to decide between zero-copy and the serial
    regenerate-per-worker fallback.
    """
    global _available
    if _available is None:
        _available = _probe()
    return _available


def _probe() -> bool:
    if shared_memory is None:
        return False
    seg = None
    try:
        seg = shared_memory.SharedMemory(
            create=True, size=16, name=f"{SEGMENT_PREFIX}probe_{secrets.token_hex(4)}"
        )
        # no _untrack here: the tracker coalesces same-process
        # registrations, so the creator's unlink() below unregisters
        # for both handles; an extra unregister would double-remove.
        reopened = shared_memory.SharedMemory(name=seg.name)
        reopened.close()
        return True
    except (OSError, ValueError):
        return False
    finally:
        if seg is not None:
            seg.close()
            try:
                seg.unlink()
            except OSError:
                pass


def _tracker_id() -> list[int] | None:
    """Identity of this process's resource tracker: the (device, inode)
    of its pipe, which processes sharing one tracker also share.
    ``None`` where there is no tracker to identify."""
    if resource_tracker is None:
        return None
    try:
        st = os.fstat(resource_tracker.getfd())
    except OSError:  # the tracker cannot start on this host
        return None
    return [st.st_dev, st.st_ino]


def _untrack(seg) -> None:
    """Unregister ``seg`` from this process's own resource tracker.

    ``SharedMemory(name=...)`` registers the segment even when merely
    attaching (fixed only in newer Pythons via ``track=False``); a
    tracker of the attaching process's own then unlinks it when that
    process exits, yanking the segment out from under the parent and
    every sibling worker. Only the creating side should ever unlink.
    Never call this where the tracker is the publisher's (see the module
    docstring).
    """
    if resource_tracker is None:
        return
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # tracker may be absent or already unregistered
        pass


@dataclass
class PublishedTrace:
    """A parent-side handle: the live segment plus the picklable
    descriptor workers attach with."""

    descriptor: dict
    _seg: "shared_memory.SharedMemory"

    def close(self) -> None:
        """Detach and unlink the segment (idempotent)."""
        try:
            self._seg.close()
        except (OSError, BufferError):
            pass
        try:
            self._seg.unlink()
        except (OSError, FileNotFoundError):
            pass


def publish(mt: MultiTrace) -> PublishedTrace:
    """Copy ``mt``'s thread columns into one shared segment.

    The descriptor is plain data (segment name, dtype descr, per-thread
    row counts, native cores, workload metadata) — a few hundred bytes
    to pickle regardless of trace size.
    """
    if not shm_available():
        raise ConfigError("shared memory is not available on this host")
    dtype = mt.threads[0].dtype if mt.threads else np.dtype("u1")
    counts = [int(tr.size) for tr in mt.threads]
    total = sum(counts) * dtype.itemsize
    seg = None
    for _ in range(8):
        try:
            seg = shared_memory.SharedMemory(
                create=True,
                size=max(total, 1),
                name=f"{SEGMENT_PREFIX}{secrets.token_hex(8)}",
            )
            break
        except FileExistsError:
            continue
    if seg is None:  # pragma: no cover - 8 collisions of 64-bit names
        raise ConfigError("could not allocate a unique shared-memory segment")
    try:
        off = 0
        for tr, n in zip(mt.threads, counts):
            view = np.ndarray((n,), dtype=dtype, buffer=seg.buf, offset=off)
            view[:] = tr
            off += n * dtype.itemsize
        descriptor = {
            "segment": seg.name,
            "dtype": [list(f) for f in dtype.descr],
            "counts": counts,
            "native_cores": list(mt.thread_native_core),
            "name": mt.name,
            "params": dict(mt.params),
            "tracker": _tracker_id(),
        }
    except BaseException:
        seg.close()
        try:
            seg.unlink()
        except OSError:
            pass
        raise
    return PublishedTrace(descriptor=descriptor, _seg=seg)


# Worker-side attachment cache: segment name -> (SharedMemory, weak
# references to every array mapped over it, weak reference to the
# MultiTrace last built over it). Holding no strong reference is what
# lets :func:`release_unreferenced` tell when nothing can read the
# mapping any more: numpy's derived views (fields, slices) keep their
# base array alive, so "every mapped array is dead" means no view is.
_attached: dict[str, tuple[object, list, "weakref.ref"]] = {}


def attach(descriptor: dict) -> MultiTrace:
    """A read-only :class:`MultiTrace` over the published segment.

    Views are marked non-writable: machines treat traces as immutable,
    and with shared pages a stray write would corrupt every sibling
    worker, not just this one — better to fault loudly here. Repeated
    calls return the same trace while anything holds it.
    """
    name = descriptor["segment"]
    entry = _attached.get(name)
    if entry is not None:
        mt = entry[2]()
        if mt is not None:
            return mt
        seg, refs = entry[0], entry[1]
    else:
        if shared_memory is None:
            raise ConfigError("shared memory is not available on this host")
        seg = shared_memory.SharedMemory(name=name)
        if descriptor.get("tracker") != _tracker_id():
            _untrack(seg)
        refs = []
    dtype = np.dtype([tuple(f) for f in descriptor["dtype"]])
    threads = []
    off = 0
    for n in descriptor["counts"]:
        view = np.ndarray((n,), dtype=dtype, buffer=seg.buf, offset=off)
        view.setflags(write=False)
        threads.append(view)
        refs.append(weakref.ref(view))
        off += n * dtype.itemsize
    mt = MultiTrace(
        threads=threads,
        thread_native_core=list(descriptor["native_cores"]),
        name=descriptor["name"],
        params=dict(descriptor["params"]),
    )
    _attached[name] = (seg, refs, weakref.ref(mt))
    return mt


def release_unreferenced() -> None:
    """Close every cached attachment that no live array maps any more.

    A sweep publishes fresh segments and the parent unlinks them when
    it ends, but a mapping stays until this process closes it; pool
    workers call this after each point, once the build memo has let go
    of an earlier sweep's trace. An attachment some array still maps
    stays open.
    """
    for name, (seg, refs, _mt) in list(_attached.items()):
        if any(ref() is not None for ref in refs):
            continue
        seg.close()  # type: ignore[attr-defined]
        del _attached[name]


def detach_all() -> None:
    """Drop every cached attachment (tests only — callers must ensure
    no views over the segments are still referenced)."""
    for seg, _refs, _mt in _attached.values():
        try:
            seg.close()  # type: ignore[attr-defined]
        except (OSError, BufferError):
            pass
    _attached.clear()


@contextlib.contextmanager
def published_traces(traces: dict[str, MultiTrace]):
    """Publish every trace; yield ``{key: descriptor}``; always unlink.

    The ``finally`` is the leak guarantee: whether the sweep returns,
    raises, or a worker kills the pool, the parent unlinks every
    segment it created before the exception propagates.
    """
    published: list[PublishedTrace] = []
    try:
        descriptors = {}
        for key, mt in traces.items():
            pub = publish(mt)
            published.append(pub)
            descriptors[key] = pub.descriptor
        yield descriptors
    finally:
        for pub in published:
            pub.close()
