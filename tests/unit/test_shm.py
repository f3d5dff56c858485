"""Unit tests for zero-copy trace distribution over shared memory.

The two load-bearing properties:

* **Fidelity** — an attached trace is bit-identical to the published
  one (digest equality) and read-only (a stray worker write must fault
  instead of corrupting sibling processes).
* **No leaks** — every published segment is unlinked when the sweep
  ends, whether it returns, raises, or a worker is killed outright.
"""

import multiprocessing
import os
import signal

import pytest

from repro.analysis import shm
from repro.analysis.parallel import POOL_MIN_POINTS, parallel_sweep, shutdown_pool
from repro.analysis.sweep import sweep_specs
from repro.runner import clear_build_memo
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.trace.events import MultiTrace, STACK_TRACE_DTYPE, TRACE_DTYPE, make_trace

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable on this host"
)

SHM_DIR = "/dev/shm"


def _segments() -> set:
    if not os.path.isdir(SHM_DIR):
        return set()
    return {f for f in os.listdir(SHM_DIR) if f.startswith(shm.SEGMENT_PREFIX)}


@pytest.fixture(autouse=True)
def _clean_state():
    clear_build_memo()
    before = _segments()
    yield
    shm.detach_all()
    clear_build_memo()
    # every test must leave /dev/shm exactly as it found it
    assert _segments() == before


def _flat_mt():
    return MultiTrace(
        threads=[
            make_trace([1, 2, 3], writes=[0, 1, 0], icounts=[4, 4, 4]),
            make_trace([9, 8], writes=[1, 1]),
        ],
        thread_native_core=[2, 0],
        name="flat",
        params={"alpha": 3},
    )


def _stack_mt():
    return MultiTrace(
        threads=[make_trace([1, 2], spops=[1, 2], spushes=[0, 1])],
        name="stack",
        params={},
    )


class TestPublishAttach:
    @pytest.mark.parametrize(
        "mt_fn,dtype", [(_flat_mt, TRACE_DTYPE), (_stack_mt, STACK_TRACE_DTYPE)]
    )
    def test_round_trip_bit_identical(self, mt_fn, dtype):
        mt = mt_fn()
        pub = shm.publish(mt)
        try:
            attached = shm.attach(pub.descriptor)
            assert attached.threads[0].dtype == dtype
            assert attached.digest() == mt.digest()
            assert attached.thread_native_core == mt.thread_native_core
            assert attached.name == mt.name and attached.params == mt.params
        finally:
            shm.detach_all()
            pub.close()

    def test_attached_views_are_read_only(self):
        pub = shm.publish(_flat_mt())
        try:
            attached = shm.attach(pub.descriptor)
            with pytest.raises(ValueError):
                attached.threads[0]["addr"][0] = 99
        finally:
            shm.detach_all()
            pub.close()

    def test_attach_is_cached_per_segment(self):
        pub = shm.publish(_flat_mt())
        try:
            assert shm.attach(pub.descriptor) is shm.attach(pub.descriptor)
        finally:
            shm.detach_all()
            pub.close()

    def test_descriptor_is_plain_picklable_data(self):
        import pickle

        pub = shm.publish(_flat_mt())
        try:
            clone = pickle.loads(pickle.dumps(pub.descriptor))
            assert clone == pub.descriptor
        finally:
            pub.close()

    def test_close_is_idempotent(self):
        pub = shm.publish(_flat_mt())
        pub.close()
        pub.close()


class TestLifecycle:
    def test_published_traces_unlinks_on_success(self):
        with shm.published_traces({"a": _flat_mt(), "b": _stack_mt()}) as descs:
            assert set(descs) == {"a", "b"}
            names = {d["segment"] for d in descs.values()}
            assert names <= _segments()
        assert not (names & _segments())

    def test_published_traces_unlinks_on_error(self):
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with shm.published_traces({"a": _flat_mt()}) as descs:
                name = descs["a"]["segment"]
                raise RuntimeError("mid-sweep")
        assert name not in _segments()


def _kill_self(**point):
    # SIGKILL any pool worker; the serial fallback (main process) just
    # evaluates the point, so the sweep completes after the pool breaks.
    if multiprocessing.parent_process() is None:
        return {"y": point["x"]}
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeath:
    def test_killed_worker_leaks_no_segments(self, monkeypatch):
        import repro.analysis.parallel as par

        monkeypatch.setattr(par, "default_workers", lambda: 2)
        points = [{"x": i} for i in range(max(POOL_MIN_POINTS, 4))]
        with shm.published_traces({"a": _flat_mt()}):
            # workers die on arrival; after one pool retry the sweep
            # degrades to the in-process serial loop and still finishes
            rows = parallel_sweep(points, _kill_self, workers=2)
        assert [r["y"] for r in rows] == [p["x"] for p in points]
        shutdown_pool()
        # the autouse fixture asserts /dev/shm is clean afterwards


def _base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 16}),
        machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )


SCHEMES = ["history", "always-migrate", "never-migrate", "random"]


class TestSweepSpecsSharing:
    def test_shared_rows_equal_serial_rows(self, monkeypatch):
        import repro.analysis.parallel as par

        monkeypatch.setattr(par, "default_workers", lambda: 2)
        points = [{"scheme": s} for s in SCHEMES]
        serial = sweep_specs(_base_spec(), points, workers=1, share_traces=False)
        shared = sweep_specs(_base_spec(), points, workers=2, share_traces="auto")
        assert shared == serial
        assert not any("shm_trace" in row or "spec" in row for row in shared)
        shutdown_pool()

    def test_serial_fallback_when_shm_unavailable(self, monkeypatch):
        import repro.analysis.parallel as par
        import repro.analysis.sweep as sweep_mod

        monkeypatch.setattr(par, "default_workers", lambda: 2)
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        published = []
        monkeypatch.setattr(shm, "publish", lambda mt: published.append(mt))
        points = [{"scheme": s} for s in SCHEMES]
        rows = sweep_specs(_base_spec(), points, workers=2, share_traces="auto")
        assert published == []  # nothing published without shm
        assert rows == sweep_specs(_base_spec(), points, workers=1, share_traces=False)
        shutdown_pool()

    def test_share_traces_false_never_publishes(self, monkeypatch):
        import repro.analysis.parallel as par

        monkeypatch.setattr(par, "default_workers", lambda: 2)
        published = []
        monkeypatch.setattr(shm, "publish", lambda mt: published.append(mt))
        points = [{"scheme": s} for s in SCHEMES]
        sweep_specs(_base_spec(), points, workers=2, share_traces=False)
        assert published == []
        shutdown_pool()

    def test_bad_share_traces_value_rejected(self):
        from repro.util.errors import ConfigError

        with pytest.raises(ConfigError, match="share_traces"):
            sweep_specs(_base_spec(), [{"scheme": "history"}], share_traces="yes")


_TWO_POOLED_SWEEPS = """
import repro.analysis.parallel as par
from repro.analysis.sweep import sweep_specs
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec

par.default_workers = lambda: 2
base = ExperimentSpec(
    workload=WorkloadSpec(name="pingpong", params={"num_threads": 4, "rounds": 16}),
    machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
    placement=PlacementSpec(name="first-touch"),
)
points = [{"scheme": s} for s in ("history", "always-migrate", "never-migrate", "random")]
first = sweep_specs(base, points, workers=2, share_traces="auto")
second = sweep_specs(base, points, workers=2, share_traces="auto")
assert first == second
par.shutdown_pool()
print("swept")
"""

_ATTACH_IN_FRESH_PROCESS = """
import json, sys
from repro.analysis import shm
print(shm.attach(json.loads(sys.argv[1])).threads[0]["addr"].tolist())
"""


def _python(code: str, *args: str) -> "subprocess.CompletedProcess":
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestResourceTracker:
    def test_pooled_sweeps_leave_the_tracker_consistent(self):
        """Forked pool workers share the parent's resource tracker: an
        attach must not unregister the parent's segment, or the parent's
        unlink() makes the tracker print a KeyError traceback."""
        before = _segments()
        out = _python(_TWO_POOLED_SWEEPS)
        assert out.returncode == 0, out.stderr
        assert "swept" in out.stdout
        assert "KeyError" not in out.stderr
        assert _segments() == before  # every segment unlinked

    def test_process_with_its_own_tracker_leaves_the_segment(self):
        """A process outside the publisher's tracker must unregister what
        it attaches, or its tracker unlinks the segment at its exit."""
        pub = shm.publish(_flat_mt())
        try:
            import json

            out = _python(_ATTACH_IN_FRESH_PROCESS, json.dumps(pub.descriptor))
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == ["[1,", "2,", "3]"]
            assert pub.descriptor["segment"] in _segments()
        finally:
            pub.close()


def _attach_and_report(spec, shm_trace):
    from repro.runner import run_spec_dict

    run_spec_dict(spec, shm_trace)
    return {"pid": os.getpid(), "attached": sorted(shm._attached)}


class TestAttachmentCache:
    def test_release_keeps_a_segment_while_a_view_lives(self):
        pub = shm.publish(_flat_mt())
        try:
            name = pub.descriptor["segment"]
            addrs = shm.attach(pub.descriptor).threads[0]["addr"][1:]
            shm.release_unreferenced()  # the trace is gone, a view is not
            assert name in shm._attached
            assert addrs.tolist() == [2, 3]
            # a later attach rebuilds the trace over the open mapping
            assert shm.attach(pub.descriptor).digest() == _flat_mt().digest()
            del addrs
            shm.release_unreferenced()
            assert name not in shm._attached
        finally:
            shm.detach_all()
            pub.close()

    def test_worker_cache_holds_only_the_current_sweep(self, monkeypatch):
        """Each sweep publishes fresh segments; a persistent pool worker
        must unmap the earlier sweeps' ones once its memo lets go."""
        import repro.analysis.parallel as par
        from repro.runner import build_workload

        monkeypatch.setattr(par, "default_workers", lambda: 2)
        shutdown_pool()  # fresh workers: no other test's attachments
        spec = _base_spec()
        points = [{"spec": spec.to_dict()}] * 8
        try:
            for _sweep in range(3):
                clear_build_memo()
                with shm.published_traces({"w": build_workload(spec.workload)}) as descs:
                    current = descs["w"]["segment"]
                    rows = parallel_sweep(
                        [dict(p, shm_trace=descs["w"]) for p in points],
                        _attach_and_report,
                        workers=2,
                    )
                for row in rows:
                    assert row["attached"] == [current]
        finally:
            shutdown_pool()
