"""Property-based tests: engine, topology, caches, stack cache."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache.sram import CacheArray
from repro.arch.config import CacheConfig
from repro.arch.topology import Mesh2D, TorusTopology
from repro.sim.engine import Engine
from repro.stackmachine.stack_cache import StackCache


# ---------------------------------------------------------------- engine
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_engine_executes_in_nondecreasing_time(delays):
    eng = Engine()
    times = []
    for d in delays:
        eng.schedule(d, lambda: times.append(eng.now))
    eng.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30),
    st.sets(st.integers(min_value=0, max_value=29)),
)
def test_engine_cancellation_exact(delays, cancel_idx):
    eng = Engine()
    fired = []
    events = [eng.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    for i in cancel_idx:
        if i < len(events):
            events[i].cancel()
    eng.run()
    expected = {i for i in range(len(delays))} - {i for i in cancel_idx if i < len(delays)}
    assert set(fired) == expected


# ---------------------------------------------------------------- topology
mesh_dims = st.tuples(st.integers(1, 8), st.integers(1, 8))


@given(mesh_dims, st.data())
def test_mesh_triangle_inequality(dims, data):
    w, h = dims
    m = Mesh2D(w, h)
    n = w * h
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert m.distance(a, c) <= m.distance(a, b) + m.distance(b, c)


@given(mesh_dims, st.data())
def test_mesh_route_valid(dims, data):
    w, h = dims
    m = Mesh2D(w, h)
    n = w * h
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    path = m.route(a, b)
    assert path[0] == a and path[-1] == b
    assert len(path) == m.distance(a, b) + 1
    for u, v in zip(path, path[1:]):
        assert m.distance(u, v) == 1


@given(mesh_dims, st.data())
def test_torus_no_longer_than_mesh(dims, data):
    w, h = dims
    t, m = TorusTopology(w, h), Mesh2D(w, h)
    n = w * h
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    assert t.distance(a, b) <= m.distance(a, b)
    assert t.distance(a, b) == t.distance(b, a)


# ---------------------------------------------------------------- caches
@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 2047), st.booleans()), max_size=300))
def test_cache_never_exceeds_capacity_and_tracks_residency(ops):
    cfg = CacheConfig(size_bytes=512, line_bytes=64, associativity=2)
    cache = CacheArray(cfg)
    resident: dict[int, bool] = {}  # line -> present (reference model)
    for addr, _w in ops:
        line = addr // 64
        hit = cache.lookup(addr) is not None
        assert hit == resident.get(line, False)
        if not hit:
            victim = cache.fill(addr)
            resident[line] = True
            if victim is not None:
                si = cache.set_index(addr)
                vline = victim.tag * cfg.num_sets + si
                resident[vline] = False
        assert cache.occupancy() <= cfg.num_lines
    assert cache.occupancy() == sum(resident.values())


@settings(max_examples=40)
@given(
    st.sampled_from([1, 2, 4, 8]),
    st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=300),
)
def test_cache_fill_victim_is_true_lru(assoc, ops):
    """The fill's victim scan (first stamp minimum of the set row)
    evicts exactly the way a reference per-set LRU order list fronts."""
    cfg = CacheConfig(size_bytes=4 * assoc * 16, line_bytes=16, associativity=assoc)
    cache = CacheArray(cfg)
    order: dict[int, list[int]] = {}  # set -> resident lines, LRU first
    for line, refill in ops:
        addr = line * 16
        lru = order.setdefault(line % cfg.num_sets, [])
        if cache.lookup(addr) is not None:
            lru.remove(line)
            lru.append(line)
            if refill:  # refill of a resident line only touches it
                assert cache.fill(addr) is None
            continue
        victim = cache.fill(addr)
        if len(lru) == assoc:
            assert victim is not None
            assert victim.tag * cfg.num_sets + line % cfg.num_sets == lru.pop(0)
        else:
            assert victim is None
        lru.append(line)
    assert sorted(cache.resident_addrs()) == sorted(
        ln * 16 for lines in order.values() for ln in lines
    )


@settings(max_examples=40)
@given(st.lists(st.sampled_from(["push", "pop", "peek"]), max_size=200))
def test_stack_cache_equals_plain_list(ops):
    """StackCache with spills must behave exactly like an unbounded list."""
    sc = StackCache(4)
    ref: list[int] = []
    counter = 0
    for op in ops:
        if op == "push":
            sc.push(counter)
            ref.append(counter)
            counter += 1
        elif op == "pop" and ref:
            assert sc.pop() == ref.pop()
        elif op == "peek" and ref:
            assert sc.peek(0) == ref[-1]
    assert sc.snapshot() == ref
    assert sc.depth == len(ref)
